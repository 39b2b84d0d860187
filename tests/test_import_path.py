"""Which runs load scipy's heavy modules.  On the node lattice the critical
problem is solved by policy iteration, the discounted solve by a walk over
the policy's functional graph, the barrier by a numpy Dijkstra and the
closedness defect by a bincount.  So importing the package, the three
critical-value routes, a barrier suite and an occupation suite load neither
`scipy.optimize` nor `scipy.sparse`; only the linear programs, criterion 7
and the test oracles, need them, and the first `solve_mather_lp` loads both.
Other tests import them into this process, so the check runs in a
fresh interpreter."""

import os
import subprocess
import sys

import torushj

SCRIPT = """
import sys

def loaded():
    return [name in sys.modules for name in ("scipy.optimize", "scipy.sparse")]

import torushj.experiments
from torushj.barrier import critical_value
from torushj.experiments import ExperimentConfig, parse_potential, run_experiment
from torushj.grids import build_grid
from torushj.matherlp import build_polytope, solve_mather_lp
from torushj.models import builtin_model, velocity_set

seen = [loaded()]
mech = builtin_model("mechanical", U=parse_potential("cos:amp=1,freq=1"))
grid, vset = build_grid(1, 16), velocity_set(2.0, 9)
cd = critical_value(mech, ("lp", "discount", "longtime"), grid, vset)
seen.append(loaded())
cfg = ExperimentConfig(kind="barrier_suite", name="b", model_name="mechanical",
                       model_params={}, n=16, vmax=2.0, m=9,
                       extras={"m_critical": "9"})
assert run_experiment(cfg, output=sys.argv[1] + "/b").passed
seen.append(loaded())
cfg = ExperimentConfig(kind="occupation_suite", name="o", model_name="mechanical",
                       model_params={"U": parse_potential("cos:amp=1,freq=1")},
                       n=16, vmax=2.0, m=9, dt=1e-2, lambdas=(12.8, 6.4, 3.2),
                       extras={"mass_identity_lambda": "6.4", "start_node": "10"})
assert run_experiment(cfg, output=sys.argv[1] + "/o").passed
seen.append(loaded())
solve_mather_lp(mech, build_polytope(mech, grid, vset))
seen.append(loaded())
print(seen)
"""


def test_lattice_runs_do_not_load_highs(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(torushj.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)],
                         env=env, capture_output=True, text=True, check=True)
    # [scipy.optimize, scipy.sparse] after the import, the three lattice
    # routes, the barrier suite and the occupation suite: neither loaded;
    # after the first LP, on a lattice polytope: both
    assert out.stdout.splitlines()[-1] == str([[False, False]] * 4 + [[True, True]])
