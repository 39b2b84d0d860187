import json
import os
import struct

import numpy as np
import pytest

from torushj.artifacts import (
    diff_artifacts,
    fmt17,
    hash_directory,
    read_barrier_binary,
    read_field_csv,
    write_barrier_binary,
    write_barrier_csv,
    write_field_csv,
    write_measure_csv,
    write_trace_csv,
)
from torushj.barrier import BarrierMatrix
from torushj.curves import CurveTrace
from torushj.errors import DomainError
from torushj.grids import GridField, build_grid
from torushj.matherlp import DiscreteMeasure
from torushj.models import velocity_set


def test_field_csv_roundtrip_and_header(tmp_path):
    g = build_grid(2, 4)
    rng = np.random.default_rng(0)
    f = GridField(g, rng.normal(size=g.size) * np.pi)
    path = tmp_path / "field.csv"
    write_field_csv(f, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "# 2,4"
    assert lines[1].startswith("0,0,0,")
    back = read_field_csv(str(path))
    np.testing.assert_array_equal(back.values, f.values)   # 17 digits: exact


def reference_write_trace_csv(trace, path):
    """The row-at-a-time trace writer that `write_trace_csv` replaced."""
    with open(path, "w", newline="\n") as f:
        f.write("# step,time,coords,velocity,weight,defect\n")
        for k in range(trace.steps):
            cs = ";".join(fmt17(c) for c in trace.points[k])
            vs = ";".join(fmt17(v) for v in trace.velocities[k])
            f.write(f"{k},{fmt17(-k * trace.dt)},{cs},{vs},"
                    f"{fmt17(trace.weights[k])},{fmt17(trace.defects[k])}\n")


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("steps", [0, 1, 257])
def test_trace_csv_bytes_match_the_row_writer(tmp_path, d, steps):
    """Moving traces, and traces that rest from step 0 and from halfway: from
    there on the point, velocity and defect are the last row's.  The row
    before the rest has the same point and velocity but the defect -0.0
    against 0.0, which only a comparison of bits tells apart."""
    for rest in (None, 0, steps // 2):
        rng = np.random.default_rng(10 * d + steps)
        dt = float(rng.uniform(1e-4, 0.1))
        tr = CurveTrace(lam=0.5, dt=dt, horizon=steps * dt,
                        points=rng.uniform(size=(steps + 1, d)),
                        velocities=rng.integers(-6, 7, size=(steps, d)) * 0.375,
                        vel_indices=rng.integers(0, 13, size=steps),
                        weights=np.exp(-0.5 * dt * np.arange(steps + 1)),
                        defects=rng.normal(size=steps) * 10.0 ** rng.integers(-17, 1, size=steps),
                        actions=np.zeros(steps), dl0=-np.ones(steps),
                        on_lattice=False, defect_tol=1e-9)
        if rest is not None and steps:
            tr.points[max(rest - 1, 0):] = tr.points[-1]
            tr.velocities[max(rest - 1, 0):] = tr.velocities[-1]
            tr.defects[rest:] = 0.0
            if rest:
                tr.defects[rest - 1] = -0.0
        write_trace_csv(tr, str(tmp_path / "fast.csv"))
        reference_write_trace_csv(tr, str(tmp_path / "ref.csv"))
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_barrier_binary_roundtrip(tmp_path):
    g = build_grid(1, 8)
    rng = np.random.default_rng(1)
    bm = BarrierMatrix(g, rng.normal(size=(8, 8)))
    path = tmp_path / "bar.pbar"
    write_barrier_binary(bm, str(path))
    raw = path.read_bytes()
    assert raw[:4] == b"PBAR" and struct.unpack("<IIf", raw[4:16]) == (1, 8, -1.0)
    assert os.path.getsize(path) == 16 + 8 * 8 * 8
    back = read_barrier_binary(str(path))
    assert back.aubry is None
    np.testing.assert_array_equal(back.values, bm.values)

    write_barrier_csv(bm, str(tmp_path / "bar.csv"))
    assert (tmp_path / "bar.csv").read_text().splitlines()[0] == "# 1,8,peierls"


@pytest.mark.parametrize("t", [0.0, 2.5, -0.5])
def test_barrier_binary_refuses_a_header_t_other_than_minus_one(tmp_path, t):
    """-1 marks the Peierls barrier, the one matrix a .pbar file holds; a
    file with any other t is refused."""
    path = tmp_path / "bar.pbar"
    path.write_bytes(b"PBAR" + struct.pack("<IIf", 1, 4, t) + np.zeros(16, "<f8").tobytes())
    with pytest.raises(DomainError, match="marks no Peierls barrier"):
        read_barrier_binary(str(path))


def test_measure_csv_lists_support_only(tmp_path):
    g = build_grid(1, 4)
    vs = velocity_set(1.0, 3)
    W = np.zeros((4, 3))
    W[2, 1] = 0.75
    W[0, 0] = 0.25
    mu = DiscreteMeasure(g, vs, W)
    path = tmp_path / "mu.csv"
    write_measure_csv(mu, str(path))
    rows = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    assert len(rows) == 2


def test_determinism_and_diff(tmp_path):
    from torushj.experiments import run_experiment

    cfg_text = """
[experiment]
kind = nonexistence_3_4
name = nx_small

[model]
name = arctan_discount

[grid]
d = 1
n = 16

[velocities]
vmax = 2.0
m = 9

[solver]
tol = 1e-8
max_iter = 20000

[extras]
certificate_true = 2.0
certificate_false = 0.5
solve_lambdas = 0.5
"""
    cfg_path = tmp_path / "nx.cfg"
    cfg_path.write_text(cfg_text)
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    ra = run_experiment(str(cfg_path), output=out_a)
    rb = run_experiment(str(cfg_path), output=out_b)
    assert ra.passed and rb.passed
    assert hash_directory(out_a) == hash_directory(out_b)
    assert diff_artifacts(out_a, out_b) == []

    # perturb one artifact: the diff reports it
    victim = os.path.join(out_b, ra.manifest["artifacts"][0])
    with open(victim, "a") as f:
        f.write("tampered\n")
    diffs = diff_artifacts(out_a, out_b)
    assert diffs and diffs[0][1] == "differs"


def test_manifest_records_parameters_and_stages(tmp_path):
    from torushj.experiments import run_experiment
    cfg_text = """
[experiment]
kind = nonexistence_3_4
name = nx_manifest

[model]
name = arctan_discount

[grid]
d = 1
n = 16

[velocities]
vmax = 2.0
m = 9

[extras]
certificate_true = 2.0
certificate_false = 0.5
solve_lambdas = 0.5
"""
    cfg_path = tmp_path / "nx.cfg"
    cfg_path.write_text(cfg_text)
    res = run_experiment(str(cfg_path), output=str(tmp_path / "out"))
    man = json.load(open(os.path.join(res.outdir, "manifest.json")))
    for key in ("tol", "max_iter", "n", "vmax", "m", "lambdas", "dt", "seed"):
        assert key in man["parameters"]
    assert man["passed"] is True
    assert {s["name"] for s in man["stages"]} == {"critical_value", "certificates", "solves"}
    assert os.path.exists(os.path.join(res.outdir, "timings.json"))
    assert "timings.json" not in man["hashes"]
