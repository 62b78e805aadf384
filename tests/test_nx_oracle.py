"""The d-connection search and ``check_criterion`` against networkx, at
sizes the brute-force oracles cannot reach.

Each graph is rebuilt as its latent-expanded DAG (every bidirected pair
gets a fresh latent parent) straight from its edge lists, and every
answer is decided there with ``networkx.is_d_separator`` (and
``networkx.has_path`` for condition 1), so no search code is shared with
``frontdoor``.
"""

import random

import pytest

nx = pytest.importorskip("networkx")

from frontdoor import check_criterion, is_separated, second_condition_candidates
from frontdoor.separation import blocking_survivors, reachable

from oracle import random_admg
from test_acceptance import _scaling_admg


def _dag(g):
    dag = nx.DiGraph()
    dag.add_nodes_from(g.nodes)
    dag.add_edges_from(g.directed_edges)
    for u, v in g.bidirected_edges:
        dag.add_edges_from([(("L", u, v), u), (("L", u, v), v)])
    return dag


def _connected(dag, a, vs, c):
    """Members of ``vs`` d-connected to ``a`` given ``c``: a set is
    separated iff each member is, so halve the connected ones."""
    if not vs or nx.is_d_separator(dag, a, vs, c):
        return set()
    if len(vs) == 1:
        return set(vs)
    half = sorted(vs)[: len(vs) // 2]
    return _connected(dag, a, set(half), c) | _connected(dag, a, vs - set(half), c)


def _cut(dag, vs):
    cut = dag.copy()
    cut.remove_edges_from([e for v in vs for e in dag.out_edges(v)])
    return cut


def _nx_survivors(dag, x, y, pool):
    # drop the members connected to y given x with the outgoing edges of
    # the rest cut, until none is
    z = set(pool)
    while True:
        hit = _connected(_cut(dag, z), set(y), z, set(x))
        if not hit:
            return frozenset(z)
        z -= hit


def _random_graphs():
    # random_admg stops at 26 nodes; the scaling family goes beyond
    rng = random.Random(2211)
    for n in (20, 21, 22, 23, 24, 25, 26) * 2:
        g = random_admg(rng, n, 0.15, max_bidirected=8)
        xv, yv = rng.sample(sorted(g.nodes), 2)
        yield g, frozenset({xv}), frozenset({yv})


def _scaling(n, seed):
    return _scaling_admg(n, seed), frozenset({1}), frozenset({3 * n // 4})


def _assert_reachable(g, a, c):
    # the rest is separated from a as one set, each reached node alone is not
    dag = _dag(g)
    got = reachable(g, a, c)
    rest = g.nodes - c - got
    assert not rest or nx.is_d_separator(dag, set(a), set(rest), set(c))
    for w in got - a:
        assert not nx.is_d_separator(dag, set(a), {w}, set(c))


def test_reachable_matches_networkx():
    for g, x, y in [*_random_graphs(), _scaling(50, 3), _scaling(100, 1)]:
        _assert_reachable(g, x, frozenset())
        _assert_reachable(g, y, x)
    g, x, _ = _scaling(200, 2)
    _assert_reachable(g, x, frozenset())


def test_blocking_survivors_match_networkx():
    rng = random.Random(4)
    pools = []
    for g, x, y in _random_graphs():
        rest = g.nodes - x - y
        pools += [(g, x, y, second_condition_candidates(g, x, frozenset(), rest)),
                  (g, x, y, frozenset(v for v in rest if rng.random() < 0.5))]
    for n, seed in ((50, 3), (100, 1)):
        g, x, y = _scaling(n, seed)
        pools.append((g, x, y, frozenset(v for v in g.nodes - x - y if rng.random() < 0.5)))
    shrunk = 0
    for g, x, y, pool in pools:
        got = blocking_survivors(g, x, y, pool)
        assert got == _nx_survivors(_dag(g), x, y, pool)
        shrunk += got != pool
    assert shrunk >= 10


def _random_subset(rng, vs, p):
    return frozenset(v for v in sorted(vs) if rng.random() < p)


def _nx_verdicts(dag, x, y, z):
    # condition 1: no directed path from x to y once z is gone; 2: x's
    # out-edges cut, x is separated from z; 3: z's out-edges cut, z is
    # separated from y given x
    rest = dag.subgraph(set(dag) - z)
    cond1 = not any(nx.has_path(rest, a, b) for a in x for b in y)
    cond2 = not z or nx.is_d_separator(_cut(dag, x), set(x), set(z), set())
    cond3 = not z or nx.is_d_separator(_cut(dag, z), set(z), set(y), set(x))
    return cond1, cond2, cond3


def _queries():
    yield from _random_graphs()
    for n, seed in ((50, 3), (100, 1), (200, 2)):
        yield _scaling(n, seed)


def test_is_separated_matches_networkx():
    rng = random.Random(7)
    separated = connected = 0
    for g, _, _ in _queries():
        dag = _dag(g)
        nodes = sorted(g.nodes)
        for _ in range(20):
            a, b = (frozenset(rng.sample(nodes, rng.randint(1, 2))) for _ in range(2))
            b -= a
            c = _random_subset(rng, g.nodes - a - b, rng.choice((0.2, 0.5)))
            if not b:
                continue
            got = is_separated(g, a, b, c)
            assert got == nx.is_d_separator(dag, set(a), set(b), set(c))
            separated += got
            connected += not got
    assert separated >= 20 and connected >= 20


def test_check_criterion_matches_networkx():
    rng = random.Random(8)
    failed = [0, 0, 0]
    for g, x, y in _queries():
        dag = _dag(g)
        rest = g.nodes - x - y
        pool = second_condition_candidates(g, x, frozenset(), rest)
        # the children of x on a causal path intercept every causal path
        # that does not end in one step
        first = frozenset(c for a in x for c in dag.successors(a) if c in rest
                          and any(nx.has_path(dag, c, b) for b in y))
        for z in (pool, _random_subset(rng, pool, 0.5), _random_subset(rng, pool, 0.8),
                  _random_subset(rng, rest, 0.3), _random_subset(rng, rest, 0.6),
                  first, _random_subset(rng, first, 0.7)):
            report = check_criterion(g, x, y, z)
            verdicts = (report.condition1, report.condition2, report.condition3)
            assert verdicts == _nx_verdicts(dag, x, y, z)
            for k, ok in enumerate(verdicts):
                failed[k] += not ok
    assert min(failed) >= 20
