import os
import re

import pytest

from torushj.cli import main
from torushj.errors import ConfigurationError
from torushj.experiments import parse_config

TINY_CFG = """
[experiment]
kind = nonexistence_3_4
name = nx_cli

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


@pytest.fixture
def tiny_cfg(tmp_path):
    p = tmp_path / "tiny.cfg"
    p.write_text(TINY_CFG)
    return str(p)


def test_validate_ok(tiny_cfg, capsys):
    assert main(["validate", tiny_cfg]) == 0
    assert "kind=nonexistence_3_4" in capsys.readouterr().out


def test_validate_rejects_bad_schedule(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(TINY_CFG + "\n[schedule]\nlambdas = 0.1, 0.5\n")
    assert main(["validate", str(bad)]) == 1
    assert "invalid" in capsys.readouterr().out


@pytest.mark.parametrize("text, where", [
    (TINY_CFG.replace("n = 16", "n = abc"), "[grid] n: invalid literal"),
    (TINY_CFG + "\n[thresholds]\nfinal_sup_error = big\n", "[thresholds] final_sup_error"),
    (TINY_CFG + "\n[grid]\nn = 32\n", "section 'grid' already exists"),
    ("kind = nonexistence_3_4\n", "no section headers"),
], ids=["bad_int", "bad_float", "duplicate_section", "no_section_header"])
def test_malformed_config_is_a_configuration_error(tmp_path, capsys, text, where):
    # each escaped as a bare ValueError or a configparser traceback
    bad = tmp_path / "bad.cfg"
    bad.write_text(text)
    with pytest.raises(ConfigurationError, match=re.escape(f"config {bad}: ")) as err:
        parse_config(str(bad))
    assert where in str(err.value)
    assert main(["validate", str(bad)]) == 1
    assert capsys.readouterr().out.startswith(f"invalid: config {bad}: ")


def test_validate_refuses_a_zero_vmax(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(TINY_CFG.replace("vmax = 2.0", "vmax = 0"))
    assert main(["validate", str(bad)]) == 1
    assert "invalid: vmax must be positive" in capsys.readouterr().out


def test_list_models(capsys):
    assert main(["list-models"]) == 0
    out = capsys.readouterr().out
    for name in ("mechanical", "shifted_quadratic", "arctan_discount",
                 "sigma_discounted", "occupation_suite"):
        assert name in out


def test_run_and_diff(tiny_cfg, tmp_path, capsys):
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    assert main(["run", tiny_cfg, "--output", out_a]) == 0
    assert main(["run", tiny_cfg, "--output", out_b]) == 0
    assert main(["diff-artifacts", out_a, out_b]) == 0
    with open(os.path.join(out_b, "final.txt"), "w") as f:
        f.write("extra")
    assert main(["diff-artifacts", out_a, out_b]) == 1


def test_run_respects_output_root_env(tiny_cfg, tmp_path, monkeypatch):
    root = tmp_path / "rootdir"
    monkeypatch.setenv("TORUSHJ_OUTPUT_ROOT", str(root))
    assert main(["run", tiny_cfg]) == 0
    assert (root / "nx_cli" / "manifest.json").exists()


def test_run_failure_exit_code(tmp_path):
    # impossible threshold: certificate expected true at lam = 0.5
    cfg = tmp_path / "fail.cfg"
    cfg.write_text(TINY_CFG.replace("certificate_true = 2.0",
                                    "certificate_true = 0.5"))
    assert main(["run", str(cfg), "--output", str(tmp_path / "out")]) == 1



@pytest.mark.parametrize("dt", ["0", "-1", "nan"])
def test_validate_refuses_a_solver_dt_not_positive_and_finite(tmp_path, capsys, dt):
    # dt = 0 ended a run as ZeroDivisionError, dt = -1 as a MatherLPError
    bad = tmp_path / "bad.cfg"
    bad.write_text(TINY_CFG + f"\n[solver]\ndt = {dt}\n")
    assert main(["validate", str(bad)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("invalid: ") and "dt must be positive and finite" in out


@pytest.mark.parametrize("key, value, reason", [
    ("tol", "nan", "tol must be positive and finite, got nan"),
    ("tol", "-1", "tol must be positive and finite, got -1"),
    ("tol", "0", "tol must be positive and finite, got 0"),
    ("tol", "inf", "tol must be positive and finite, got inf"),
    ("max_iter", "0", "max_iter must be at least 1, got 0"),
])
def test_validate_refuses_solver_settings_no_solve_can_meet(tmp_path, capsys, key, value,
                                                            reason):
    # tol = nan or -1 validated as ok, and the run then failed its solves
    # stage, as no residual is ever <= tol
    bad = tmp_path / "bad.cfg"
    bad.write_text(TINY_CFG + f"\n[solver]\n{key} = {value}\n")
    assert main(["validate", str(bad)]) == 1
    assert capsys.readouterr().out == f"invalid: [solver] {reason}\n"


@pytest.mark.parametrize("vmax", ["nan", "inf"])
def test_validate_refuses_a_vmax_that_is_not_finite(tmp_path, capsys, vmax):
    bad = tmp_path / "bad.cfg"
    bad.write_text(TINY_CFG.replace("vmax = 2.0", f"vmax = {vmax}"))
    assert main(["validate", str(bad)]) == 1
    assert capsys.readouterr().out == f"invalid: vmax must be positive and finite, got {vmax}\n"


KIND_CFG = """
[experiment]
kind = {kind}

[model]
name = {model}
{model_keys}

[grid]
n = 16

[velocities]
vmax = 2.0
m = 9

[extras]
{extras}
"""


@pytest.mark.parametrize("kind, extras, key", [
    ("operator_suite", "lipschitz_pairs = abc", "lipschitz_pairs"),
    ("occupation_suite", "start_node = 1.5", "start_node"),
    ("nonexistence_3_4", "certificate_true = x y", "certificate_true"),
    ("barrier_suite", "alpha = 0.3, 0.5", "alpha"),
])
def test_an_extra_its_parser_refuses_is_refused_at_parse_time(tmp_path, capsys,
                                                               kind, extras, key):
    # each ended its run as a bare ValueError after the critical problem
    bad = tmp_path / "bad.cfg"
    bad.write_text(KIND_CFG.format(kind=kind, model="mechanical", model_keys="",
                                   extras=extras))
    with pytest.raises(ConfigurationError, match=re.escape(f"[extras] {key}: ")):
        parse_config(str(bad))
    assert main(["validate", str(bad)]) == 1
    assert capsys.readouterr().out.startswith(f"invalid: [extras] {key}: ")


@pytest.mark.parametrize("kind, model, model_keys, unread", [
    ("vanishing_discount", "shifted_quadratic",
     "U = cos:amp=5\nsigma = const:value=3", "model 'shifted_quadratic' reads no parameter 'U'"),
    ("example_6_1", "arctan_discount", "alpha = 0.3",
     "model 'arctan_discount' reads no parameter 'alpha'"),
    ("vanishing_discount", "arctan_discount", "potential = const:value=100",
     "model 'arctan_discount' reads no parameter 'potential'"),
    ("example_6_1", "shifted_quadratic", "potential = const:value=100",
     "example_6_1 reads no [model] key 'potential'"),
    ("vanishing_discount", "mechanical", "target = sin:freq=1",
     "vanishing_discount reads no [model] key 'target'"),
])
def test_a_model_key_that_the_run_never_reads_is_refused(tmp_path, capsys, kind, model,
                                                         model_keys, unread):
    # each validated as ok and ran as if the key were absent
    bad = tmp_path / "bad.cfg"
    bad.write_text(KIND_CFG.format(kind=kind, model=model, model_keys=model_keys, extras=""))
    with pytest.raises(ConfigurationError, match=re.escape(unread)):
        parse_config(str(bad))
    assert main(["validate", str(bad)]) == 1
    assert capsys.readouterr().out.startswith("invalid: ")


@pytest.mark.parametrize("text, reason", [
    (TINY_CFG + "\n[grid]\nn = 32\n", "section 'grid' already exists"),
    (KIND_CFG.format(kind="barrier_suite", model="shifted_quadratic", model_keys="",
                     extras=""),
     "barrier_suite checks a mechanical model, not 'shifted_quadratic'"),
], ids=["duplicate_section", "barrier_suite_model"])
def test_run_reports_a_config_that_does_not_parse(tmp_path, capsys, text, reason):
    # run ended in a traceback where validate printed one line
    bad = tmp_path / "bad.cfg"
    bad.write_text(text)
    assert main(["run", str(bad), "--output", str(tmp_path / "out")]) == 1
    out = capsys.readouterr().out
    assert out.startswith("invalid: ") and reason in out and out.count("\n") == 1
    assert not (tmp_path / "out").exists()
