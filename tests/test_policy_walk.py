"""`solver.policy_walk`, the one walk over a policy's functional graph,
against the three walks it replaced, kept here as oracles: the discounted
policy evaluation (`solver._discounted_walk`), Howard's value determination
for the min-plus spectral problem (`matherlp._policy_values`) and the policy
cycle of a node (`matherlp._policy_cycle`), on random functional graphs with
self-loops, several cycles and long tails.  The evaluations must agree bit
for bit."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from torushj.matherlp import _policy_values
from torushj.solver import _discounted_walk, policy_walk


# ---------------------------------------------------------------------------
# the retired walks
# ---------------------------------------------------------------------------

def retired_discounted_walk(pred, a, r):
    N = pred.size
    pred, a, r = pred.tolist(), a.tolist(), r.tolist()
    z = [0.0] * N
    state = [0] * N
    for start in range(N):
        path, y = [], start
        while state[y] == 0:
            state[y] = 1
            path.append(y)
            y = pred[y]
        closed = state[y] == 1
        for x in path:
            state[x] = 2
        if closed:
            i = path.index(y)
            acc, gain = 0.0, 1.0
            for x in path[i:]:
                acc += gain * r[x]
                gain *= a[x]
            z[y] = acc / (1.0 - gain) if gain != 1.0 else math.nan
            del path[i]
        for x in reversed(path):
            z[x] = r[x] + a[x] * z[pred[x]]
    return np.array(z)


def retired_policy_values(pred, w, d, u_old):
    N = pred.size
    pred, w, d, old = pred.tolist(), w.tolist(), d.tolist(), u_old.tolist()
    eta, u = [0.0] * N, [0.0] * N
    state = [0] * N
    for start in range(N):
        path, y = [], start
        while state[y] == 0:
            state[y] = 1
            path.append(y)
            y = pred[y]
        closed = state[y] == 1
        for z in path:
            state[z] = 2
        if closed:
            i = path.index(y)
            cyc = path[i:]
            j = cyc.index(min(cyc))
            cyc = cyc[j:] + cyc[:j]
            ratio = sum(w[z] for z in cyc) / sum(d[z] for z in cyc)
            eta[cyc[0]], u[cyc[0]] = ratio, old[cyc[0]]
            for z in reversed(cyc[1:]):
                eta[z], u[z] = ratio, (w[z] - ratio * d[z]) + u[pred[z]]
            del path[i:]
        for z in reversed(path):
            p = pred[z]
            eta[z], u[z] = eta[p], (w[z] - eta[p] * d[z]) + u[p]
    return np.array(eta), np.array(u)


def retired_policy_cycle(pred, start, steps):
    y = start
    for _ in range(steps):
        y = pred[y]
    cycle = [y]
    while pred[cycle[-1]] != y:
        cycle.append(pred[cycle[-1]])
    return cycle


# ---------------------------------------------------------------------------
# random functional graphs
# ---------------------------------------------------------------------------

@st.composite
def functional_graphs(draw):
    """pred of a functional graph: one to four cycles of one to six nodes
    (a one-node cycle is a self-loop), then tail nodes that each point 0 to
    3 nodes back in build order (0 builds a chain), relabelled at random."""
    lengths = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    jumps = draw(st.lists(st.integers(0, 3), max_size=40))
    pred = []
    for L in lengths:
        base = len(pred)
        pred += [base + (t + 1) % L for t in range(L)]
    for j in jumps:
        pred.append(max(0, len(pred) - 1 - j))
    perm = draw(st.permutations(range(len(pred))))
    out = np.empty(len(pred), dtype=np.intp)
    out[perm] = np.array(perm)[pred]
    return out


def bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


@settings(max_examples=300, deadline=None)
@given(pred=functional_graphs(), seed=st.integers(0, 2**31 - 1))
def test_policy_walk_is_the_retired_walks(pred, seed):
    N = pred.size
    seen = set()
    for cycle, tree in policy_walk(pred.tolist()):
        for t, y in enumerate(cycle):               # a closed cycle of new nodes
            assert y not in seen and pred[y] == cycle[(t + 1) % len(cycle)]
        seen.update(cycle)
        for y in tree:                              # after its predecessor
            assert y not in seen and pred[y] in seen
            seen.add(y)
    assert seen == set(range(N))

    for start in range(N):
        cycle = next(policy_walk(pred, (start,)))[0]
        assert len(cycle) == len(set(cycle))
        assert set(cycle) == set(retired_policy_cycle(pred, start, N))

    rng = np.random.default_rng(seed)
    a, r = rng.uniform(0.05, 0.999, N), rng.normal(size=N)
    np.testing.assert_array_equal(bits(_discounted_walk(pred, a, r)),
                                  bits(retired_discounted_walk(pred, a, r)))
    w, d, u_old = rng.normal(size=N), rng.uniform(0.1, 2.0, N), rng.normal(size=N)
    for got, want in zip(_policy_values(pred, w, d, u_old),
                         retired_policy_values(pred, w, d, u_old)):
        np.testing.assert_array_equal(bits(got), bits(want))
