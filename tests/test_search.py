import random

import pytest

from frontdoor import (
    OverlappingSetsError,
    PreconditionError,
    UnknownNodeError,
    build_graph,
    check_criterion,
    find_adjustment_set,
    find_blocking_extension,
    is_separated,
    list_adjustment_sets,
    second_condition_candidates,
    third_condition_candidates,
)
from frontdoor.graph import ADMG
from frontdoor.search import AdjustmentQuery, FrontDoorEngine
from frontdoor.separation import blocking_survivors

from conftest import ix
from oracle import (
    d_separated_oracle,
    directed_paths,
    enumerate_all_oracle,
    front_door_oracle,
    random_admg,
    survivors_fixed_point,
)
from test_acceptance import _scaling_admg


# -- criterion checker -------------------------------------------------


def test_check_canonical(canon):
    report = check_criterion(canon, ix(canon, "X"), ix(canon, "Y"), ix(canon, "Z"))
    assert report.condition1 and report.condition2 and report.condition3
    assert report.satisfied
    assert report.witness is None


def test_check_intro_singleton_b(intro):
    report = check_criterion(intro, ix(intro, "X"), ix(intro, "Y"), ix(intro, "B"))
    assert not report.condition3  # B <- A -> Y stays open given X
    assert not report.condition1  # B is a dead end, so X -> A -> Y is missed
    assert report.condition2
    assert not report.satisfied
    # the witness belongs to the first failing condition
    assert report.witness == "X -> A -> Y"


def test_check_intro_backdoor_failure(intro):
    report = check_criterion(intro, ix(intro, "X"), ix(intro, "Y"), ix(intro, "A,D"))
    assert not report.condition2  # open back-door X <-> D
    assert report.condition1
    assert report.witness == "X <-> D"


def test_check_condition1_with_collider_in_causal_path_graph():
    # {A, C} hits every causal path (X -> A -> Y, X -> C -> B -> A -> Y,
    # X -> C -> B -> Y), but in the causal path graph it holds the collider
    # A of X -> A <- B -> Y, so d-separation there misjudges condition 1
    g = build_graph(["X", "A", "B", "C", "Y"],
                    [("X", "A"), ("X", "C"), ("C", "B"), ("B", "A"),
                     ("A", "Y"), ("B", "Y")])
    report = check_criterion(g, ix(g, "X"), ix(g, "Y"), ix(g, "A,C"))
    assert report.condition1 and report.condition2
    assert not report.condition3
    assert not report.satisfied
    assert report.witness == "A <- B -> Y"


def test_check_empty_set(intro, canon):
    # the empty set is valid exactly when no causal path exists
    assert not check_criterion(intro, ix(intro, "X"), ix(intro, "Y"), frozenset()).satisfied
    apart = build_graph(["X", "Y"], [("Y", "X")])
    assert check_criterion(apart, ix(apart, "X"), ix(apart, "Y"), frozenset()).satisfied


def test_check_rejects_overlap(canon):
    with pytest.raises(OverlappingSetsError):
        check_criterion(canon, ix(canon, "X"), ix(canon, "Y"), ix(canon, "X"))


def test_check_witnesses_are_real_paths():
    # whenever a condition fails, the witness names an actual path of the
    # graph; a first-condition witness is a directed path that avoids z
    for rng, g in _random_graphs(817, 60):
        nodes = sorted(g.nodes)
        x = frozenset({rng.choice(nodes)})
        y = frozenset({rng.choice(nodes)}) - x
        if not y:
            continue
        rest = sorted(g.nodes - x - y)
        z = frozenset(v for v in rest if rng.random() < 0.4)
        report = check_criterion(g, x, y, z)
        if report.satisfied:
            assert report.witness is None
            continue
        assert report.witness is not None
        tokens = report.witness.split()
        names = tokens[0::2]
        kinds = tokens[1::2]
        idx = [g.index_of(nm) for nm in names]
        for u, kind, v in zip(idx, kinds, idx[1:]):
            if kind == "->":
                assert v in g.children_of(u)
            elif kind == "<-":
                assert v in g.parents_of(u)
            else:
                assert v in g.spouses_of(u)
        if not report.condition1:
            assert all(k == "->" for k in kinds)
            assert idx[0] in x and idx[-1] in y
            assert not (set(idx) & z)


# -- stage 1: no open back-door path into the candidate ------------------


def test_second_condition_intro(intro):
    x = ix(intro, "X")
    assert second_condition_candidates(intro, x, frozenset(), ix(intro, "A,B,C,D")) == ix(intro, "A,B,C")
    assert second_condition_candidates(intro, x, ix(intro, "D"), ix(intro, "A,B,C,D")) is None
    assert second_condition_candidates(intro, x, frozenset(), frozenset()) == frozenset()


# -- stage 2 walker ------------------------------------------------------


def test_blocking_extension_traces(intro):
    x, y = ix(intro, "X"), ix(intro, "Y")
    assert find_blocking_extension(intro, x, y, ix(intro, "B"), ix(intro, "A,B,C")) == ix(intro, "A")
    assert find_blocking_extension(intro, x, y, ix(intro, "B"), ix(intro, "B,C")) is None
    assert find_blocking_extension(intro, x, y, ix(intro, "A"), ix(intro, "A,B,C")) == frozenset()
    assert find_blocking_extension(intro, x, y, ix(intro, "C"), ix(intro, "A,B,C")) == ix(intro, "A")


def test_blocking_extension_canonical(canon):
    # condition 3 already holds for {Z}: Z <- X <-> Y is blocked by X
    got = find_blocking_extension(canon, ix(canon, "X"), ix(canon, "Y"), ix(canon, "Z"), ix(canon, "Z"))
    assert got == frozenset()


def test_blocking_extension_postcondition(intro):
    x, y = ix(intro, "X"), ix(intro, "Y")
    t = ix(intro, "B")
    ext = find_blocking_extension(intro, x, y, t, ix(intro, "A,B,C"))
    z = t | ext
    assert is_separated(intro.remove_outgoing(z), z, y, x)


def test_blocking_extension_preconditions(intro):
    x, y = ix(intro, "X"), ix(intro, "Y")
    with pytest.raises(PreconditionError):
        find_blocking_extension(intro, x, y, ix(intro, "B"), ix(intro, "C"))
    with pytest.raises(PreconditionError):
        find_blocking_extension(intro, x, y, x, x | ix(intro, "B"))


# -- stage 3 + full finder -----------------------------------------------


def test_third_condition_intro(intro):
    x, y = ix(intro, "X"), ix(intro, "Y")
    assert third_condition_candidates(intro, x, y, frozenset(), ix(intro, "A,B,C")) == ix(intro, "A,B,C")
    assert third_condition_candidates(intro, x, y, ix(intro, "B"), ix(intro, "B,C")) is None


def test_third_condition_canonical(canon):
    got = third_condition_candidates(
        canon, ix(canon, "X"), ix(canon, "Y"), frozenset(), ix(canon, "Z"))
    assert got == ix(canon, "Z")


def test_find_reference_cases(canon, intro):
    x, y = ix(intro, "X"), ix(intro, "Y")
    assert find_adjustment_set(intro, x, y) == ix(intro, "A,B,C")
    assert find_adjustment_set(intro, x, y, ix(intro, "C"), ix(intro, "A,C")) == ix(intro, "A,C")
    assert find_adjustment_set(intro, x, y, ix(intro, "D")) is None
    assert find_adjustment_set(canon, ix(canon, "X"), ix(canon, "Y"), r=ix(canon, "Z")) == ix(canon, "Z")


def test_find_rejects_before_stage2(monkeypatch):
    # the stage-1 pool {W} misses X -> M -> Y (M has the open back-door
    # path X <-> M), so no subset can intercept it and stage 2 never runs
    g = build_graph(["X", "M", "W", "Y"],
                    [("X", "M"), ("M", "Y"), ("X", "W")], [("X", "M")])

    def no_stage2(*args):
        raise AssertionError("stage 2 ran")

    monkeypatch.setattr("frontdoor.search.blocking_survivors", no_stage2)
    assert second_condition_candidates(g, ix(g, "X"), frozenset(), ix(g, "M,W")) == ix(g, "W")
    assert find_adjustment_set(g, ix(g, "X"), ix(g, "Y")) is None


@pytest.mark.parametrize("call, error", [
    (lambda g, x, y: second_condition_candidates(g, frozenset(), frozenset(), ix(g, "A")),
     PreconditionError),
    (lambda g, x, y: second_condition_candidates(g, x, frozenset(), x | ix(g, "A")),
     OverlappingSetsError),
    (lambda g, x, y: second_condition_candidates(g, x, frozenset(), frozenset({99})),
     UnknownNodeError),
    (lambda g, x, y: second_condition_candidates(g, frozenset({99}), frozenset(), ix(g, "A")),
     UnknownNodeError),
    (lambda g, x, y: third_condition_candidates(g, x, y, frozenset(), x | ix(g, "A")),
     PreconditionError),
    (lambda g, x, y: third_condition_candidates(g, x, y, frozenset(), y | ix(g, "A")),
     PreconditionError),
    (lambda g, x, y: third_condition_candidates(g, x, x | y, frozenset(), ix(g, "A")),
     PreconditionError),
    (lambda g, x, y: second_condition_candidates(g, x, frozenset({99}), ix(g, "A,B,C")),
     UnknownNodeError),
    (lambda g, x, y: second_condition_candidates(g, x, ix(g, "D"), ix(g, "A,B,C")),
     PreconditionError),
    (lambda g, x, y: third_condition_candidates(g, x, y, frozenset({99}), ix(g, "A,B,C")),
     UnknownNodeError),
    (lambda g, x, y: third_condition_candidates(g, x, y, frozenset(), frozenset({99})),
     UnknownNodeError),
    (lambda g, x, y: third_condition_candidates(g, frozenset({99}), y, frozenset(), ix(g, "A")),
     UnknownNodeError),
    (lambda g, x, y: third_condition_candidates(g, x, frozenset(), frozenset(), ix(g, "A")),
     PreconditionError),
    (lambda g, x, y: find_blocking_extension(g, x, y, frozenset(), frozenset({99})),
     UnknownNodeError),
], ids=["stage1-empty-x", "stage1-r-meets-x", "stage1-unknown-r", "stage1-unknown-x",
        "stage2-pool-meets-x", "stage2-pool-meets-y", "stage2-x-meets-y",
        "stage1-unknown-i", "stage1-i-outside-r", "stage2-unknown-i",
        "stage2-unknown-pool", "stage2-unknown-x", "stage2-empty-y", "ext-unknown-pool"])
def test_stage_input_errors(intro, call, error):
    with pytest.raises(error):
        call(intro, ix(intro, "X"), ix(intro, "Y"))


def test_find_empty_answer_degenerate():
    g = build_graph(["X", "Y", "W"], [("Y", "X"), ("W", "Y")], [("X", "W")])
    z = find_adjustment_set(g, ix(g, "X"), ix(g, "Y"))
    assert z == frozenset()
    assert check_criterion(g, ix(g, "X"), ix(g, "Y"), z).satisfied


def test_find_validates_query(intro):
    x, y = ix(intro, "X"), ix(intro, "Y")
    with pytest.raises(PreconditionError):
        find_adjustment_set(intro, x, x)
    with pytest.raises(PreconditionError):
        find_adjustment_set(intro, x, y, ix(intro, "A"), ix(intro, "B"))
    with pytest.raises(PreconditionError):
        find_adjustment_set(intro, x, y, r=ix(intro, "X,A"))
    with pytest.raises(PreconditionError):
        find_adjustment_set(intro, frozenset(), y)


# -- randomized properties ------------------------------------------------


def _random_graphs(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        yield rng, random_admg(rng, rng.randint(3, 6), rng.choice((0.2, 0.4)))


def test_find_soundness_random():
    for rng, g in _random_graphs(811, 120):
        nodes = sorted(g.nodes)
        x = frozenset({rng.choice(nodes)})
        y = frozenset({rng.choice(nodes)}) - x
        if not y:
            continue
        rest = frozenset(g.nodes) - x - y
        r = frozenset(v for v in rest if rng.random() < 0.8)
        i = frozenset(v for v in r if rng.random() < 0.25)
        z = find_adjustment_set(g, x, y, i, r)
        if z is not None:
            assert i <= z <= r
            assert check_criterion(g, x, y, z).satisfied
            assert front_door_oracle(g, x, y, z)


def test_find_none_means_none_random():
    for rng, g in _random_graphs(812, 80):
        nodes = sorted(g.nodes)
        x = frozenset({rng.choice(nodes)})
        y = frozenset({rng.choice(nodes)}) - x
        if not y:
            continue
        rest = frozenset(g.nodes) - x - y
        r = frozenset(v for v in rest if rng.random() < 0.8)
        i = frozenset(v for v in r if rng.random() < 0.25)
        family = enumerate_all_oracle(g, x, y, i, r)
        assert (find_adjustment_set(g, x, y, i, r) is None) == (not family)


def test_shrinking_r_never_creates_answers():
    for rng, g in _random_graphs(813, 60):
        nodes = sorted(g.nodes)
        x = frozenset({rng.choice(nodes)})
        y = frozenset({rng.choice(nodes)}) - x
        if not y:
            continue
        r = frozenset(g.nodes) - x - y
        if find_adjustment_set(g, x, y, frozenset(), r) is not None:
            continue
        smaller = frozenset(v for v in r if rng.random() < 0.5)
        assert find_adjustment_set(g, x, y, frozenset(), smaller) is None


def test_sole_interceptors_match_path_enumeration():
    # v is a sole interceptor of z iff some directed path from x to y
    # meets z in v alone
    rng = random.Random(817)
    checked = 0
    for _ in range(200):
        g = random_admg(rng, rng.randint(5, 9), rng.choice((0.3, 0.5)))
        x = frozenset({rng.choice(sorted(g.nodes))})
        below = sorted(g.descendants(x) - x)
        if not below:
            continue
        y = frozenset({rng.choice(below)})
        engine = FrontDoorEngine(AdjustmentQuery(g, x, y))
        paths = [set(p) for p in directed_paths(g, x, y)]
        for _ in range(4):
            z = frozenset(v for v in g.nodes - x - y if rng.random() < 0.5)
            expect = {v for v in z if any(p & z == {v} for p in paths)}
            assert engine.sole_interceptors(z) == expect
            checked += bool(expect)
    assert checked > 60
    # with 1-3-node x and y, on sets that intercept every causal path
    checked = 0
    for _ in range(300):
        g = random_admg(rng, rng.randint(5, 10), rng.choice((0.3, 0.5)))
        x = frozenset(rng.sample(sorted(g.nodes), rng.randint(1, 3)))
        rest = sorted(g.nodes - x)
        y = frozenset(rng.sample(rest, rng.randint(1, min(3, len(rest)))))
        engine = FrontDoorEngine(AdjustmentQuery(g, x, y))
        paths = [set(p) for p in directed_paths(g, x, y)]
        for _ in range(4):
            z = frozenset(v for v in g.nodes - x - y if rng.random() < 0.6)
            if not all(p & z for p in paths):
                continue
            expect = {v for v in z if any(p & z == {v} for p in paths)}
            assert engine.sole_interceptors(z) == expect
            checked += len(x) > 1 or len(y) > 1
    assert checked > 150


def test_interception_builds_no_graph(monkeypatch):
    # interception walks the query graph: find copies it once, for stage
    # 1, and check_criterion twice, for conditions 2 and 3
    g = _scaling_admg(200, 1)
    x, y = ix(g, "V1"), ix(g, "V150")
    built = []
    from_rows = ADMG._from_rows.__func__

    def counted(cls, *rows):
        built.append(rows)
        return from_rows(cls, *rows)

    monkeypatch.setattr(ADMG, "_from_rows", classmethod(counted))
    z = find_adjustment_set(g, x, y)
    assert z is not None
    assert len(built) == 1
    built.clear()
    assert check_criterion(g, x, y, z).satisfied
    assert len(built) == 2


def test_second_condition_pool_exactness():
    # every subset of the stage-1 pool passes condition 2, and every set
    # passing condition 2 lies inside the pool
    from itertools import combinations

    for rng, g in _random_graphs(814, 50):
        nodes = sorted(g.nodes)
        x = frozenset({rng.choice(nodes)})
        y = frozenset({rng.choice(nodes)}) - x
        if not y:
            continue
        r = frozenset(g.nodes) - x - y
        pool = second_condition_candidates(g, x, frozenset(), r)
        gx = g.remove_outgoing(x)
        free = sorted(r)
        for k in range(1, len(free) + 1):
            for sub in combinations(free, k):
                z = frozenset(sub)
                passes = d_separated_oracle(gx, x, z, frozenset())
                assert passes == (z <= pool)


def test_third_condition_pool_blocks_itself():
    # the surviving pool itself satisfies condition 3
    for rng, g in _random_graphs(815, 80):
        nodes = sorted(g.nodes)
        x = frozenset({rng.choice(nodes)})
        y = frozenset({rng.choice(nodes)}) - x
        if not y:
            continue
        r = frozenset(g.nodes) - x - y
        pool = second_condition_candidates(g, x, frozenset(), r)
        survivors = third_condition_candidates(g, x, y, frozenset(), pool)
        if survivors:
            assert d_separated_oracle(g.remove_outgoing(survivors), survivors, y, x)


def test_blocking_extension_matches_subset_enumeration():
    # the search succeeds exactly when some helper set inside the pool
    # makes the seed meet condition 3, and its answer is such a set with no
    # helper to spare: without any one of them, no subset of the rest helps
    from itertools import combinations

    def cond3_holds(g, z, y, x):
        return d_separated_oracle(g.remove_outgoing(z), z, y, x)

    for rng, g in _random_graphs(816, 120):
        nodes = sorted(g.nodes)
        x = frozenset({rng.choice(nodes)})
        y = frozenset({rng.choice(nodes)}) - x
        if not y:
            continue
        rest = sorted(g.nodes - x - y)
        pool = frozenset(v for v in rest if rng.random() < 0.7)
        for v in sorted(pool):
            t = frozenset((v,))
            free = sorted(pool - t)
            attainable = any(
                cond3_holds(g, t | frozenset(sub), y, x)
                for k in range(len(free) + 1)
                for sub in combinations(free, k)
            )
            got = find_blocking_extension(g, x, y, t, pool)
            assert (got is not None) == attainable
            if got is not None:
                assert got <= pool - t
                assert cond3_holds(g, t | got, y, x)
                for h in got:
                    spare = sorted(got - {h})
                    assert not any(
                        cond3_holds(g, t | frozenset(sub), y, x)
                        for k in range(len(spare) + 1)
                        for sub in combinations(spare, k)
                    )


def _cascade(k):
    # X -> M -> Y, Y <-> V1, V1 -> ... -> Vk: with every Vj cut, stage 2
    # reaches V1 only; each drop opens the edge to the next member
    names = ["X", "M", "Y"] + [f"V{j}" for j in range(1, k + 1)]
    directed = [("X", "M"), ("M", "Y")] + [(f"V{j}", f"V{j + 1}") for j in range(1, k)]
    g = build_graph(names, directed, [("Y", "V1")])
    return g, ix(g, "X"), ix(g, "Y")


def test_survivors_match_fixed_point_reference():
    # the one-pass stage 2 against the round-by-round loop it replaces
    rng = random.Random(818)
    shrunk = 0
    for _ in range(300):
        g = random_admg(rng, rng.randint(4, 26), rng.choice((0.1, 0.2, 0.35)),
                        max_bidirected=rng.randint(0, 6))
        xv, yv = rng.sample(sorted(g.nodes), 2)
        x, y = frozenset({xv}), frozenset({yv})
        rest = g.nodes - x - y
        for pool in (frozenset(v for v in rest if rng.random() < 0.5),
                     second_condition_candidates(g, x, frozenset(), rest),
                     rest):
            got = blocking_survivors(g, x, y, pool)
            assert got == survivors_fixed_point(g, x, y, pool)
            shrunk += got != pool
    assert shrunk > 300
    for n in (200, 400, 800):
        for seed in (1, 2, 3):
            g = _scaling_admg(n, seed)
            for xv in (0, 1):
                x, y = frozenset({xv}), frozenset({3 * n // 4})
                pool = second_condition_candidates(g, x, frozenset(), g.nodes - x - y)
                got = blocking_survivors(g, x, y, pool)
                assert got == survivors_fixed_point(g, x, y, pool)
    g, x, y = _cascade(30)
    pool = g.nodes - x - y
    assert blocking_survivors(g, x, y, pool) == survivors_fixed_point(g, x, y, pool)


def test_cascade_stage2_copies_no_graph(monkeypatch):
    # the reference loop copies the graph once per round, k + 1 times here
    g, x, y = _cascade(1000)
    pool = g.nodes - x - y
    want = survivors_fixed_point(g, x, y, pool)
    assert want == ix(g, "M")
    copies = []
    remove_outgoing = ADMG.remove_outgoing

    def counted(self, vs):
        copies.append(vs)
        return remove_outgoing(self, vs)

    monkeypatch.setattr(ADMG, "remove_outgoing", counted)
    assert blocking_survivors(g, x, y, pool) == want
    assert copies == []


def _find_equals_first_listed(g, x, y, i=frozenset(), r=None):
    z = find_adjustment_set(g, x, y, i, r)
    assert z == next(list_adjustment_sets(g, x, y, i, r, limit=1), None)
    if z is not None:
        assert check_criterion(g, x, y, z).satisfied
    return z


def test_find_is_first_listed_beyond_oracle_sizes():
    # past the 12-node oracles: find answers exactly what the include-first
    # enumeration emits first, and what it answers passes the checker
    rng = random.Random(2024)
    answered = 0
    for _ in range(150):
        g = random_admg(rng, rng.randint(15, 26), rng.choice((0.1, 0.15, 0.2)),
                        max_bidirected=4)
        nodes = sorted(g.nodes)
        x = frozenset({rng.choice(nodes[:len(nodes) // 2])})
        y = frozenset({rng.choice(nodes[len(nodes) // 2:])})
        r = frozenset(v for v in g.nodes - x - y if rng.random() < 0.9)
        i = frozenset(v for v in r if rng.random() < 0.05)
        answered += _find_equals_first_listed(g, x, y, i, r) is not None
    assert answered > 50
    for n, seed, x in ((80, 3, 0), (80, 1, 1), (120, 2, 1), (160, 4, 0),
                       (200, 3, 1), (200, 4, 1)):
        g = _scaling_admg(n, seed)
        _find_equals_first_listed(g, frozenset({x}), frozenset({3 * n // 4}))
