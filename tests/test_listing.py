import random
from itertools import combinations, islice

import pytest

from frontdoor import (
    PreconditionError,
    build_graph,
    check_criterion,
    find_adjustment_set,
    list_adjustment_sets,
)
from frontdoor.listing import ListStats
from frontdoor.oracle import enumerate_all_oracle, random_admg
from frontdoor.search import BlockingSearch

from conftest import chain_family, ix
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
    # engine's answer, so the first set needs no second stage-2 pass.
    g = build_graph(["W", "X", "M", "Y"], [("X", "M"), ("M", "Y")],
                    [("X", "Y"), ("W", "Y")])
    passes = []
    survivors = BlockingSearch.survivors

    def counted(self, pool):
        passes.append(pool)
        return survivors(self, pool)

    monkeypatch.setattr(BlockingSearch, "survivors", counted)
    got = list(list_adjustment_sets(g, ix(g, "X"), ix(g, "Y"), limit=1))
    assert got == [ix(g, "M")]
    assert passes == [ix(g, "W,M")]


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
