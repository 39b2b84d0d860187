"""Which runs load HiGHS.  On the node lattice the critical problem is
solved by policy iteration, so importing the package, the three
critical-value routes and a barrier suite must not load `scipy.optimize`;
the first off-lattice "lp" solve must.  Other tests import linprog into this
process, so the check runs in a fresh interpreter."""

import os
import subprocess
import sys

import torushj

SCRIPT = """
import sys

def loaded():
    return "scipy.optimize" in sys.modules

import torushj.experiments
from torushj.barrier import critical_value
from torushj.experiments import ExperimentConfig, parse_potential, run_experiment
from torushj.grids import build_grid
from torushj.models import builtin_model, velocity_set

seen = [loaded()]
mech = builtin_model("mechanical", U=parse_potential("cos:amp=1,freq=1"))
grid, vset = build_grid(1, 16), velocity_set(2.0, 9)
cd = critical_value(mech, ("lp", "discount", "longtime"), grid, vset)
seen.append(loaded())
cfg = ExperimentConfig(kind="barrier_suite", name="b", model_name="mechanical",
                       model_params={}, n=16, vmax=2.0, m=9,
                       extras={"m_critical": "9"})
run_experiment(cfg, output=sys.argv[1])
seen.append(loaded())
critical_value(mech, "lp", grid, vset, dt=0.0101)
seen.append(loaded())
print(seen)
"""


def test_lattice_runs_do_not_load_highs(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(torushj.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path / "out")],
                         env=env, capture_output=True, text=True, check=True)
    # after the import, the three lattice routes and the barrier suite: not
    # loaded; after the off-lattice "lp" route: loaded
    assert out.stdout.splitlines()[-1] == "[False, False, False, True]"
