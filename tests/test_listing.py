import random
from collections import Counter
from itertools import combinations, islice

import pytest

from frontdoor import (
    PreconditionError,
    build_graph,
    check_criterion,
    find_adjustment_set,
    list_adjustment_sets,
)
from frontdoor import search
from frontdoor.listing import ListStats
from frontdoor.search import AdjustmentQuery, FrontDoorEngine

from conftest import chain_family, ix
from oracle import enumerate_all_oracle, random_admg
from test_acceptance import _scaling_admg


def test_reference_order(intro):
    got = list(list_adjustment_sets(intro, ix(intro, "X"), ix(intro, "Y")))
    assert got == [ix(intro, "A,B,C"), ix(intro, "A,B"), ix(intro, "A,C"), ix(intro, "A")]


def test_canonical(canon):
    got = list(list_adjustment_sets(canon, ix(canon, "X"), ix(canon, "Y"), r=ix(canon, "Z")))
    assert got == [ix(canon, "Z")]


def test_two_chain_family_product():
    g = chain_family(2)
    x, y = ix(g, "X"), ix(g, "Y")
    got = set(list_adjustment_sets(g, x, y))
    # nonempty slice of each chain, independently
    expect = set()
    for s1 in ({"A1"}, {"B1"}, {"A1", "B1"}):
        for s2 in ({"A2"}, {"B2"}, {"A2", "B2"}):
            expect.add(g.indices(s1 | s2))
    assert got == expect
    assert len(got) == 9


def test_empty_stream_when_constrained_out(intro):
    got = list(list_adjustment_sets(intro, ix(intro, "X"), ix(intro, "Y"), ix(intro, "D")))
    assert got == []


def test_no_duplicates_and_matches_oracle():
    rng = random.Random(4242)
    for _ in range(80):
        g = random_admg(rng, rng.randint(3, 6), rng.choice((0.2, 0.4)))
        nodes = sorted(g.nodes)
        x = frozenset({rng.choice(nodes)})
        y = frozenset({rng.choice(nodes)}) - x
        if not y:
            continue
        rest = frozenset(g.nodes) - x - y
        r = frozenset(v for v in rest if rng.random() < 0.8)
        i = frozenset(v for v in r if rng.random() < 0.25)
        got = list(list_adjustment_sets(g, x, y, i, r))
        assert len(got) == len(set(got))
        key = lambda s: tuple(sorted(s))
        assert sorted(got, key=key) == enumerate_all_oracle(g, x, y, i, r)


def test_prefix_stability(intro):
    x, y = ix(intro, "X"), ix(intro, "Y")
    full = list(list_adjustment_sets(intro, x, y))
    for j in range(len(full) + 1):
        assert list(islice(list_adjustment_sets(intro, x, y), j)) == full[:j]


def test_limit(intro):
    x, y = ix(intro, "X"), ix(intro, "Y")
    assert len(list(list_adjustment_sets(intro, x, y, limit=2))) == 2
    assert list(list_adjustment_sets(intro, x, y, limit=0)) == []
    assert len(list(list_adjustment_sets(intro, x, y, limit=99))) == 4
    # a bad limit is refused when the stream is created, not when it is read
    for bad in (-1, 1.5, "2", True):
        with pytest.raises(PreconditionError):
            list_adjustment_sets(intro, x, y, limit=bad)


def test_stats_counting(intro):
    stats = ListStats()
    got = list(list_adjustment_sets(intro, ix(intro, "X"), ix(intro, "Y"), stats=stats))
    assert stats.emitted == len(got) == 4
    assert stats.find_calls >= 4


def test_validates_eagerly(intro):
    with pytest.raises(PreconditionError):
        list_adjustment_sets(intro, ix(intro, "X"), ix(intro, "X"))


def test_laziness(intro):
    # pulling one item must not have explored the whole tree
    stats = ListStats()
    stream = list_adjustment_sets(intro, ix(intro, "X"), ix(intro, "Y"), stats=stats)
    next(stream)
    partial = stats.find_calls
    list(stream)
    assert partial < stats.find_calls


def test_every_check_emits_on_chain_family():
    # including a pivot keeps the node's largest set, and banning a chain's
    # last member misses that chain's causal path, so no branch that holds
    # no set is ever checked
    g = chain_family(5)
    stats = ListStats()
    got = list(list_adjustment_sets(g, ix(g, "X"), ix(g, "Y"), stats=stats))
    assert len(set(got)) == 3 ** 5
    assert stats.find_calls == stats.emitted == 3 ** 5


def test_first_set_costs_one_stage2_pass(monkeypatch):
    # W passes stage 1 but stage 2 drops it (W <-> Y stays open whatever is
    # cut), and W is indexed below the answer {M}.  The walk narrows to the
    # engine's answer, so the first set needs no second stage-2 pass.  On
    # chain_family(5) the root check is the stream's only fresh stage-2
    # search: each of the other 242 checks resumes its parent's.
    passes = []
    survivors = search.blocking_survivors

    def counted(g, x, y, pool, state=None):
        passes.append((pool, bool(state[0])))  # a resumed state holds a run
        return survivors(g, x, y, pool, state)

    monkeypatch.setattr(search, "blocking_survivors", counted)
    g = build_graph(["W", "X", "M", "Y"], [("X", "M"), ("M", "Y")],
                    [("X", "Y"), ("W", "Y")])
    got = list(list_adjustment_sets(g, ix(g, "X"), ix(g, "Y"), limit=1))
    assert got == [ix(g, "M")]
    assert passes == [(ix(g, "W,M"), False)]
    passes.clear()
    g = chain_family(5)
    assert sum(1 for _ in list_adjustment_sets(g, ix(g, "X"), ix(g, "Y"))) == 243
    assert [resumed for _, resumed in passes] == [False] + [True] * 242


def test_listing_walks_forward_once_per_check(monkeypatch):
    # the root walks forward from x and back from y afresh.  A resumed
    # check grows its parent's walks only when it has an undecided member
    # (161 of the other 242 on chain_family(5)), one walk each way: the
    # pivot that banned a member already proves the rest intercepts every
    # causal path, and here stage 2 never drops more than the pivot.
    walks = []
    reached = search._reached

    def counted(step, start, z, walk=None):
        walks.append((step.__name__, "fresh" if walk is None else "grown"))
        return reached(step, start, z, walk)

    monkeypatch.setattr(search, "_reached", counted)
    g = chain_family(5)
    stats = ListStats()
    assert sum(1 for _ in list_adjustment_sets(g, ix(g, "X"), ix(g, "Y"), stats=stats)) == 243
    assert stats.find_calls == 243
    assert Counter(walks) == {
        ("children_of", "fresh"): 1, ("children_of", "grown"): 161,
        ("parents_of", "fresh"): 1, ("parents_of", "grown"): 161}


def _fresh_walk(g, x, y, i, r, stats):
    """The listing walk as it was before checks resumed their parent's
    work: one fresh ``largest`` and fresh interception walks per check.
    The reference the listing's stream and check count must equal."""
    query = AdjustmentQuery(g, x, y, i, r)
    engine = FrontDoorEngine(query)
    stack = []
    inc, rest = query.i, query.r
    while True:
        stats.find_calls += 1
        found = engine.feasible(inc, rest)
        if found is not None:
            yield found
            pivots = found - inc
            if pivots:
                pivots -= engine.sole_interceptors(found)
            stack.extend((inc, found, v) for v in sorted(pivots))
        if not stack:
            return
        base, largest, v = stack.pop()
        inc = base | {p for p in largest if p < v}
        rest = largest - {v}


def _random_query(rng, n):
    # sparse forward edges over V0..V(n-1), a few bidirected pairs, x in
    # the first third and y a descendant of x in the last third; the
    # nodes are declared in random order, so indices follow no topology
    names = [f"V{k}" for k in range(n)]
    p = rng.choice((2.0, 3.0)) / n
    directed = [(names[a], names[b]) for a in range(n) for b in range(a + 1, n)
                if rng.random() < p]
    bidirected = {tuple(sorted(rng.sample(names, 2))) for _ in range(n // 10)}
    g = build_graph(rng.sample(names, n), directed, sorted(bidirected))
    x = g.indices([names[rng.randrange(n // 3)]])
    below = sorted(g.descendants(x) & g.indices(names[2 * n // 3:]))
    if not below:
        return None
    y = frozenset({rng.choice(below)})
    r = frozenset(v for v in g.nodes - x - y if rng.random() < 0.85)
    i = frozenset(v for v in r if rng.random() < 0.1)
    return g, x, y, i, r


def _side_region(k, length):
    # chain_family(k) plus a path of `length` nodes into Y, off every
    # causal path: the stage-2 search and the walk back from Y reach the
    # whole path, so a check that redoes them costs O(length)
    g = chain_family(k)
    names = list(g.names) + [f"P{j}" for j in range(length)]
    directed = [(g.names[u], g.names[v]) for u, v in g.directed_edges]
    directed += [(f"P{j}", f"P{j + 1}") for j in range(length - 1)] + [(f"P{length - 1}", "Y")]
    g = build_graph(names, directed, [("X", "Y")])
    chains = g.indices([f"{c}{j}" for j in range(1, k + 1) for c in "AB"])
    return g, ix(g, "X"), ix(g, "Y"), frozenset(), chains


def test_resumed_checks_list_what_fresh_checks_do(monkeypatch):
    # the same sets in the same order, after the same number of checks,
    # as the walk that checks afresh, on random queries with random
    # (i, r), the scaling queries, a graph whose reached region lies off
    # the causal paths and a small query whose resumed checks walk
    eager = _random_query(random.Random(218), 14)
    queries = [eager]
    rng = random.Random(2024)
    while len(queries) < 120:
        q = _random_query(rng, rng.randint(20, 40))
        if q is not None:
            queries.append(q)
    for n in (50, 100, 200, 400):
        for seed in (1, 2, 3):
            g = _scaling_admg(n, seed)
            for xv in (0, 1):
                queries.append((g, frozenset({xv}), frozenset({3 * n // 4}), frozenset(), None))
    queries += [_side_region(5, 300), _side_region(9, 50)]
    listed = nonempty = 0
    for g, x, y, i, r in queries:
        stats, fresh = ListStats(), ListStats()
        got = list(list_adjustment_sets(g, x, y, i, r, limit=400, stats=stats))
        assert got == list(islice(_fresh_walk(g, x, y, i, r, fresh), 400))
        assert stats.find_calls == fresh.find_calls
        listed += len(got)
        nonempty += bool(got)
    assert nonempty >= 50 and listed > 15000

    # A resumed check whose stage 2 drops more than its pivot is the only
    # one that walks in ``largest``: the eager query has such checks that
    # pass the walk and such checks that fail it.
    walked, outcomes = [], []
    reached, largest = search._reached, FrontDoorEngine.largest

    def counted(step, start, z, walk=None):
        walked.append(step.__name__)
        return reached(step, start, z, walk)

    def traced(self, i, r, parent=None):
        walked.clear()
        found = largest(self, i, r, parent)
        if parent is not None and walked:
            outcomes.append(found is not None)
        return found

    monkeypatch.setattr(search, "_reached", counted)
    monkeypatch.setattr(FrontDoorEngine, "largest", traced)
    assert len(list(list_adjustment_sets(*eager))) == 88
    assert True in outcomes and False in outcomes


def test_drains_large_query_in_bounded_work():
    # every admissible set lies inside find's answer, so the stream is the
    # family of the answer's subsets that pass the checker
    g = _scaling_admg(200, 5)
    x, y = frozenset({1}), frozenset({150})
    z = find_adjustment_set(g, x, y)
    assert z == g.indices(f"V{k}" for k in range(2, 8))
    got = list(list_adjustment_sets(g, x, y))
    family = {
        frozenset(sub)
        for k in range(len(z) + 1)
        for sub in combinations(sorted(z), k)
        if check_criterion(g, x, y, sub).satisfied
    }
    assert len(got) == len(set(got)) == 6
    assert set(got) == family
