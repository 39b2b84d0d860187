"""Which modules a run loads, and oracles for the paths that keep them out.

On the node lattice the critical problem is solved by policy iteration, the
discounted solve by a walk over the policy's functional graph, the barrier
by a numpy Dijkstra and the closedness defect by a bincount.  So importing
the package, parsing a config, the three critical-value routes and runs of
all six bundled configs load neither `scipy.optimize` nor `scipy.sparse`;
only the linear programs, criterion 7 and the test oracles, need them, and
the first `solve_mather_lp` loads both.  Set-up loads nothing a run does not
execute:
- not the `scipy` package, whose version string the manifest reads from
  scipy's `version.py` (`experiments._SCIPY_VERSION`);
- not `numpy.ma`, which a plain `np.unique` imports (`matherlp._distinct`
  replaces it on the run path);
- `numpy.random` only for the kinds that draw from `cfg.rng()`, which
  `validate` builds for them at parse time.
Other tests import these modules into this process, so the check runs in a
fresh interpreter."""

import json
import os
import subprocess
import sys

import numpy as np
import scipy
from hypothesis import given, settings, strategies as st

import torushj
from torushj import experiments
from torushj.matherlp import _distinct

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "configs")

SCRIPT = """
import glob, json, os, sys

MODULES = ("scipy", "scipy.optimize", "scipy.sparse", "numpy.ma", "numpy.random")

def loaded():
    return [name for name in MODULES if name in sys.modules]

configs, out = sys.argv[1], sys.argv[2]
import torushj.experiments
from torushj.barrier import critical_value
from torushj.experiments import parse_config, parse_potential, run_experiment
from torushj.grids import PeriodicGrid
from torushj.matherlp import build_polytope, solve_mather_lp
from torushj.models import builtin_model, velocity_set
from torushj.solver import Transition

parse_config(os.path.join(configs, "example_6_1.cfg"))
seen = [loaded()]
mech = builtin_model("mechanical", U=parse_potential("cos:amp=1,freq=1"))
arcs = Transition(PeriodicGrid(1, 16), velocity_set(2.0, 9))
cd = critical_value(mech, ("lp", "discount", "longtime"), arcs)
seen.append(loaded())
parse_config(os.path.join(configs, "barrier_suite.cfg"))
seen.append(loaded())
paths = sorted(glob.glob(os.path.join(configs, "*.cfg")))
assert len(paths) == 6
for path in paths:
    assert run_experiment(path, output=os.path.join(out, os.path.basename(path))).passed
seen.append(loaded())
solve_mather_lp(mech, build_polytope(mech, arcs))
seen.append(loaded())
print(json.dumps(seen))
"""


def test_lattice_runs_do_not_load_highs(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(torushj.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", SCRIPT, CONFIGS, str(tmp_path)],
                         env=env, capture_output=True, text=True, check=True)
    seen = json.loads(out.stdout.splitlines()[-1])
    # the import and parse of an unseeded config, then the three lattice
    # routes: none of them loaded
    assert seen[:2] == [[], []]
    # parsing a seeded config builds its generator
    assert seen[2] == ["numpy.random"]
    # the six bundled configs: still no scipy and no numpy.ma
    assert seen[3] == ["numpy.random"]
    # the first LP, on a lattice polytope, loads HiGHS and scipy.sparse
    assert {"scipy", "scipy.optimize", "scipy.sparse"} <= set(seen[4])


@settings(max_examples=60, deadline=None)
@given(values=st.lists(st.integers(0, 40), max_size=50), size=st.integers(0, 48))
def test_distinct_is_np_unique(values, size):
    # a size below the largest value still counts every value
    a = np.array(values, dtype=np.intp)
    got, want = _distinct(a, size), np.unique(a)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


def test_manifest_scipy_version_is_the_package_version():
    assert experiments._SCIPY_VERSION == scipy.__version__
