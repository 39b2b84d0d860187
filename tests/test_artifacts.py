import json
import os
import re
import struct
from functools import partial

import numpy as np
import pytest

from torushj.artifacts import (
    diff_artifacts,
    hash_directory,
    read_barrier_binary,
    read_field_csv,
    write_barrier_binary,
    write_convergence_csv,
    write_field_csv,
    write_measure_csv,
    write_node_csv,
    write_trace_csv,
)
from torushj.barrier import BIG, BarrierMatrix
from torushj import experiments
from torushj.curves import CurveTrace, backward_calibrated_curve
from torushj.errors import DomainError
from torushj.experiments import export_all
from torushj.grids import GridField, PeriodicGrid
from torushj.matherlp import DiscreteMeasure
from torushj.models import velocity_set
from torushj.solver import Transition


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fmt17(x):
    return format(float(x), ".17g")


def test_field_csv_roundtrip_and_header(tmp_path):
    g = PeriodicGrid(2, 4)
    rng = np.random.default_rng(0)
    f = GridField(g, rng.normal(size=g.size) * np.pi)
    path = tmp_path / "field.csv"
    write_field_csv(f, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "# 2,4"
    assert lines[1].startswith("0,0,0,")
    back = read_field_csv(str(path))
    np.testing.assert_array_equal(back.values, f.values)   # 17 digits: exact


@pytest.mark.parametrize("keep", [
    lambda rows: rows[: len(rows) // 2],
    lambda rows: rows[:-1],
    lambda rows: rows[:-1] + rows[:1],
    lambda rows: rows + rows[-1:],
    lambda rows: rows[:-1] + [f"{len(rows)}" + rows[-1][rows[-1].index(","):]],
    lambda rows: rows[:-1] + ["-1" + rows[-1][rows[-1].index(","):]],
    lambda rows: rows[:-1] + ["x,0,0.5\n"],
], ids=["truncated", "one_short", "duplicate", "one_twice", "index_n", "index_minus_1",
        "no_index"])
def test_field_csv_reader_refuses_rows_that_do_not_list_each_node_once(tmp_path, keep):
    g = PeriodicGrid(1, 8)
    path = tmp_path / "field.csv"
    write_field_csv(GridField(g, np.arange(8) / 8), str(path))
    header, *rows = path.read_text().splitlines(keepends=True)
    path.write_text(header + "".join(keep(rows)))
    with pytest.raises(DomainError, match=re.escape(str(path))):
        read_field_csv(str(path))


@pytest.mark.parametrize("cut", [lambda raw: raw[:10], lambda raw: raw[:16],
                                 lambda raw: raw[:-8], lambda raw: raw + bytes(8)],
                         ids=["short_header", "no_body", "short_body", "long_body"])
def test_barrier_binary_reader_refuses_a_short_or_long_file(tmp_path, cut):
    path = tmp_path / "bar.pbar"
    write_barrier_binary(BarrierMatrix(PeriodicGrid(1, 4), np.ones((4, 4))), str(path))
    path.write_bytes(cut(path.read_bytes()))
    with pytest.raises(DomainError, match=re.escape(str(path))):
        read_barrier_binary(str(path))


# The row-at-a-time writers that the one row writer replaced: byte oracles.

def reference_write_field_csv(field, path):
    with open(path, "w", newline="\n") as f:
        g = field.grid
        coords = g.node_coords()
        f.write(f"# {g.d},{g.n}\n")
        for i in range(g.size):
            cs = ",".join(fmt17(c) for c in coords[i])
            f.write(f"{i},{cs},{fmt17(field.values[i])}\n")


def reference_write_measure_csv(mu, path):
    with open(path, "w", newline="\n") as f:
        f.write("# node,velocity,weight\n")
        W = mu.weights
        for i in range(W.shape[0]):
            for k in range(W.shape[1]):
                if W[i, k] > 0.0:
                    f.write(f"{i},{k},{fmt17(W[i, k])}\n")


def reference_write_node_csv(values, path):
    with open(path, "w", newline="\n") as f:
        f.write("# node,weight\n")
        for i, v in enumerate(values):
            f.write(f"{i},{fmt17(v)}\n")


def reference_write_convergence_csv(rows, path):
    with open(path, "w", newline="\n") as f:
        f.write("# lambda,sup_error,iterations,residual\n")
        for lam, err, iters, resid in rows:
            f.write(f"{fmt17(lam)},{fmt17(err)},{iters},{fmt17(resid)}\n")


def spread(rng, size):
    """Floats over many magnitudes, with -0.0 and 0.0 among them."""
    x = rng.normal(size=size) * 10.0 ** rng.integers(-300, 300, size=size)
    x[rng.random(size) < 0.1] = -0.0
    x[rng.random(size) < 0.1] = 0.0
    return x


def random_field(rng, d):
    g = PeriodicGrid(d, int(rng.integers(4, 9)))
    return GridField(g, spread(rng, g.size))


def random_measure(rng):
    g, vs = PeriodicGrid(1, int(rng.integers(4, 9))), velocity_set(1.0, 5)
    W = rng.random((g.size, 5)) * 10.0 ** rng.integers(-320, 1, size=(g.size, 5))
    W[rng.random(W.shape) < 0.3] = 0.0
    W[rng.integers(g.size)] = 0.0                           # an all-zero row
    W[rng.integers(g.size), rng.integers(5)] = 5e-324       # the least subnormal
    W[rng.integers(g.size), rng.integers(5)] = -0.0
    return DiscreteMeasure(g, vs, W)


def random_convergence_rows(rng):
    return [(float(lam), float(err), int(it), float(res))
            for lam, err, it, res in zip(spread(rng, 4), spread(rng, 4),
                                         rng.integers(0, 10**6, size=4), spread(rng, 4))]


CSV_CASES = {
    "field_d1": (write_field_csv, reference_write_field_csv, partial(random_field, d=1)),
    "field_d2": (write_field_csv, reference_write_field_csv, partial(random_field, d=2)),
    "measure": (write_measure_csv, reference_write_measure_csv, random_measure),
    "node_array": (write_node_csv, reference_write_node_csv, lambda rng: spread(rng, 9)),
    "node_list": (write_node_csv, reference_write_node_csv,
                  lambda rng: [*spread(rng, 5).tolist(), 3, np.float64(-0.0)]),
    "convergence": (write_convergence_csv, reference_write_convergence_csv,
                    random_convergence_rows),
    "convergence_empty": (write_convergence_csv, reference_write_convergence_csv,
                          lambda rng: []),
}


@pytest.mark.parametrize("case", sorted(CSV_CASES))
def test_csv_writers_match_the_row_writers(tmp_path, case):
    write, reference, make = CSV_CASES[case]
    for seed in range(5):
        obj = make(np.random.default_rng(seed))
        write(obj, str(tmp_path / "fast.csv"))
        reference(obj, str(tmp_path / "ref.csv"))
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def reference_write_trace_csv(trace, path):
    """The row-at-a-time trace writer: one row per step, then the line
    `# rest,q` for a trace that rests."""
    with open(path, "w", newline="\n") as f:
        f.write("# step,time,coords,velocity,weight,defect\n")
        for k in range(trace.steps):
            cs = ";".join(fmt17(c) for c in trace.points[k])
            vs = ";".join(fmt17(v) for v in trace.velocities[k])
            f.write(f"{k},{fmt17(-k * trace.dt)},{cs},{vs},"
                    f"{fmt17(trace.weights[k])},{fmt17(trace.defects[k])}\n")
        if trace.rests:
            f.write(f"# rest,{fmt17(np.exp(trace.lam * trace.dl0[-1] * trace.dt))}\n")


def expand_trace_csv(path, dt, r):
    """The text of a trace CSV with its rest line `# rest,q` replaced by r
    rows: the last row's point, velocity and defect at time -k*dt, each
    weight the one before times q, from the last row's weight as read back."""
    with open(path) as f:
        header, *rows = f.read().splitlines(keepends=True)
    assert rows[-1].startswith("# rest,")
    _, q = rows.pop().split(",")
    k0, _, point, velocity, w, defect = rows[-1].split(",")
    w, q = float(w), float(q)
    for k in range(int(k0) + 1, int(k0) + 1 + r):
        w *= q
        rows.append(f"{k},{fmt17(-k * dt)},{point},{velocity},{fmt17(w)},{defect}")
    return header + "".join(rows)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("steps", [0, 1, 257])
def test_trace_csv_bytes_match_the_row_writer(tmp_path, d, steps):
    """Moving traces, and traces whose last step is a rest step: one row per
    step, and the rest line after the last row of a trace that rests.  The
    weights are built as the curve builds them, the cumprod of
    exp(lam*dL/du*dt)."""
    for rests in (False, True) if steps else (False,):
        rng = np.random.default_rng(10 * d + steps)
        dt = float(rng.uniform(1e-4, 0.1))
        arcs = Transition(PeriodicGrid(d, 4), velocity_set(2.25, 13, d), dt)
        tr = CurveTrace(lam=0.5, arcs=arcs,
                        points=rng.uniform(size=(steps + 1, d)),
                        velocities=rng.integers(-6, 7, size=(steps, d)) * 0.375,
                        vel_indices=rng.integers(0, 13, size=steps),
                        weights=np.ones(steps + 1),
                        defects=rng.normal(size=steps) * 10.0 ** rng.integers(-17, 1, size=steps),
                        actions=np.zeros(steps), dl0=-rng.uniform(0.5, 2.0, size=steps),
                        on_lattice=False, defect_tol=1e-9, rests=rests)
        if rests:
            tr.points[-1] = tr.points[-2]
            tr.velocities[-1] = 0.0
        np.cumprod(np.exp(tr.lam * tr.dl0 * dt), out=tr.weights[1:])
        write_trace_csv(tr, str(tmp_path / "fast.csv"))
        reference_write_trace_csv(tr, str(tmp_path / "ref.csv"))
        text = (tmp_path / "fast.csv").read_bytes()
        assert text == (tmp_path / "ref.csv").read_bytes()
        assert text.count(b"\n") == 1 + steps + rests


def test_occupation_workload_trace_csv_expands_to_the_row_writer(monkeypatch, tmp_path):
    """The mass-identity trace of the `occupation` benchmark workload
    (bench/run.py, seed 1), as the pipeline exports it: 805 steps, the last
    its rest step.  Its rest line, expanded to the 1,382 rows up to the
    horizon 14/lam, is byte for byte the row writer's file of the lean loop
    run to that horizon."""
    monkeypatch.syspath_prepend(os.path.join(ROOT, "bench"))
    from run import WORKLOADS, write_config
    from test_trace_oracle import lean_backward_calibrated_curve
    cfg = str(tmp_path / "occupation.cfg")
    write_config(WORKLOADS["occupation"](1), cfg)
    exported, calls = {}, []

    def recording(results, outdir):
        exported.update(results)
        return export_all(results, outdir)

    def traced(*args, **kwargs):
        calls.append((args, kwargs))
        return backward_calibrated_curve(*args, **kwargs)

    monkeypatch.setattr(experiments, "export_all", recording)
    monkeypatch.setattr(experiments, "backward_calibrated_curve", traced)
    assert experiments.run_experiment(cfg, output=str(tmp_path / "out")).passed
    trace = exported["trace_mass_identity"]
    assert trace.steps == 805 and trace.rests
    args, kwargs = next(c for c in calls if c[0][1] == trace.lam and c[1]["arcs"] is trace.arcs)
    lean = lean_backward_calibrated_curve(*args, **kwargs)
    assert lean.steps == 2187
    written = tmp_path / "out" / "trace_mass_identity.csv"
    reference_write_trace_csv(lean, str(tmp_path / "ref.csv"))
    assert (expand_trace_csv(str(written), trace.dt, lean.steps - trace.steps).encode()
            == (tmp_path / "ref.csv").read_bytes())


def test_barrier_binary_roundtrip(tmp_path):
    g = PeriodicGrid(1, 8)
    rng = np.random.default_rng(1)
    bm = BarrierMatrix(g, rng.normal(size=(8, 8)))
    bm.values[rng.random((8, 8)) < 0.2] = BIG
    path = tmp_path / "bar.pbar"
    write_barrier_binary(bm, str(path))
    raw = path.read_bytes()
    assert raw[:4] == b"PBAR" and struct.unpack("<IIf", raw[4:16]) == (1, 8, -1.0)
    assert os.path.getsize(path) == 16 + 8 * 8 * 8
    back = read_barrier_binary(str(path))
    assert back.aubry is None
    np.testing.assert_array_equal(back.values, bm.values)


@pytest.mark.parametrize("t", [0.0, 2.5, -0.5])
def test_barrier_binary_refuses_a_header_t_other_than_minus_one(tmp_path, t):
    """-1 marks the Peierls barrier, the one matrix a .pbar file holds; a
    file with any other t is refused."""
    path = tmp_path / "bar.pbar"
    path.write_bytes(b"PBAR" + struct.pack("<IIf", 1, 4, t) + np.zeros(16, "<f8").tobytes())
    with pytest.raises(DomainError, match="marks no Peierls barrier"):
        read_barrier_binary(str(path))


def test_measure_csv_lists_support_only(tmp_path):
    g = PeriodicGrid(1, 4)
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


def test_manifest_hashes_only_the_files_of_its_run(tmp_path):
    """A file an earlier run left in the output directory is not one of this
    run's artifacts, so its hash is not in the manifest."""
    out = tmp_path / "out"
    out.mkdir()
    (out / "old_values.csv").write_text("# left by an earlier run\n")
    cfg = experiments.ExperimentConfig(
        kind="nonexistence_3_4", name="nx", model_name="arctan_discount", n=16, vmax=2.0, m=9,
        extras={"certificate_true": "2.0", "certificate_false": "0.5", "solve_lambdas": "0.5"})
    manifest = experiments.run_experiment(cfg, output=str(out)).manifest
    assert sorted(manifest["hashes"]) == manifest["artifacts"]
    assert "old_values.csv" not in manifest["hashes"]
    assert manifest["hashes"] == hash_directory(str(out), manifest["artifacts"])
