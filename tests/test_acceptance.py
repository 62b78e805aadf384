"""Acceptance suite.

One test per acceptance criterion; each prints a ``ACCEPTANCE PASS``
line on success (run with ``pytest tests/test_acceptance.py -v -s``).
Criterion 5's wall-clock bound is asserted at full strength, on each
gap's minimum over five drains; its gaps last tens of microseconds, so
one scheduler stall outweighs any of them, as that test's docstring
records.
"""

import gc
import importlib.util
import math
import pathlib
import random
import statistics
import time
from itertools import combinations, product

from frontdoor import (
    adjustment_formula,
    build_graph,
    check_criterion,
    find_adjustment_set,
    is_separated,
    list_adjustment_sets,
    render_text,
    second_condition_candidates,
    third_condition_candidates,
)
from frontdoor.estimand import Prob, Product as ProductNode, Sum, Sym
from frontdoor.listing import ListStats
from frontdoor.oracle import (
    SeparationTable,
    d_separated_oracle,
    directed_paths,
    enumerate_all_oracle,
    front_door_oracle,
)
from frontdoor.search import find_blocking_extension
from frontdoor.textformat import parse_graph_text

from conftest import chain_family, ix

CORPUS = pathlib.Path(__file__).parent / "corpus"
CORPUS_SIZE = 200


def _load_corpus_module():
    spec = importlib.util.spec_from_file_location(
        "make_corpus", CORPUS / "make_corpus.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _corpus():
    for gid in range(CORPUS_SIZE):
        yield gid, parse_graph_text((CORPUS / f"{gid:03d}.cg").read_text())


def _ordered_pairs(g):
    nodes = sorted(g.nodes)
    for x in nodes:
        for y in nodes:
            if x != y:
                yield frozenset((x,)), frozenset((y,))


def _done(n, text):
    print(f"ACCEPTANCE PASS: criterion {n} — {text}")


# -- 1 ------------------------------------------------------------------


def test_criterion_1_canonical_identification(canon):
    x, y = ix(canon, "X"), ix(canon, "Y")
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        z = find_adjustment_set(canon, x, y)
        text = render_text(adjustment_formula(["X"], ["Y"], canon.names_of(z)))
        best = min(best, time.perf_counter() - t0)
    assert z == ix(canon, "Z")
    assert text == "Σ_z P(z|x) Σ_{x'} P(y|x',z) P(x')"
    assert best < 0.010, f"took {best*1e3:.2f} ms"
    _done(1, f"canonical find + estimand in {best*1e6:.0f} µs")


# -- 2 ------------------------------------------------------------------


def test_criterion_2_intro_behavior(intro):
    x, y = ix(intro, "X"), ix(intro, "Y")
    gx = intro.remove_outgoing(x)

    # gate: the reference oracle certifies the intermediate stage
    # outputs before the fast-path assertions count
    for v in "ABC":
        assert d_separated_oracle(gx, x, ix(intro, v), frozenset())
    assert not d_separated_oracle(gx, x, ix(intro, "D"), frozenset())
    for z_names, ok in [("A", True), ("A,B", True), ("A,C", True),
                        ("B", False), ("B,C", False)]:
        z = ix(intro, z_names)
        assert d_separated_oracle(intro.remove_outgoing(z), z, y, x) == ok
    family = enumerate_all_oracle(intro, x, y, frozenset(), ix(intro, "A,B,C,D"))
    assert family == [ix(intro, "A"), ix(intro, "A,B"), ix(intro, "A,B,C"), ix(intro, "A,C")]

    # intermediate stage outputs
    assert second_condition_candidates(intro, x, frozenset(), ix(intro, "A,B,C,D")) == ix(intro, "A,B,C")
    assert find_blocking_extension(intro, x, y, ix(intro, "B"), ix(intro, "A,B,C")) == ix(intro, "A")
    assert find_blocking_extension(intro, x, y, ix(intro, "B"), ix(intro, "B,C")) is None
    assert third_condition_candidates(intro, x, y, frozenset(), ix(intro, "A,B,C")) == ix(intro, "A,B,C")

    # the find cases
    assert find_adjustment_set(intro, x, y) == ix(intro, "A,B,C")
    assert find_adjustment_set(intro, x, y, ix(intro, "C"), ix(intro, "A,C")) == ix(intro, "A,C")
    assert find_adjustment_set(intro, x, y, ix(intro, "D")) is None

    # the full family, in the fixed pivot order
    got = list(list_adjustment_sets(intro, x, y))
    assert got == [ix(intro, "A,B,C"), ix(intro, "A,B"), ix(intro, "A,C"), ix(intro, "A")]
    assert sorted(got, key=lambda s: tuple(sorted(s))) == family
    _done(2, "worked examples and enumeration order reproduced")


# -- 3 ------------------------------------------------------------------


def test_criterion_3_exponential_family_counts():
    for k in range(1, 7):
        g = chain_family(k)
        n_sets = sum(1 for _ in list_adjustment_sets(g, ix(g, "X"), ix(g, "Y")))
        assert n_sets == 3 ** k, f"k={k}: {n_sets} sets"
    g = chain_family(7)
    t0 = time.perf_counter()
    n_sets = sum(1 for _ in list_adjustment_sets(g, ix(g, "X"), ix(g, "Y")))
    took = time.perf_counter() - t0
    assert n_sets == 3 ** 7
    assert took < 5.0, f"k=7 took {took:.2f} s"
    _done(3, f"3^k counts for k=1..7; k=7 in {took:.2f} s")


# -- 4 ------------------------------------------------------------------


def test_criterion_4_oracle_equivalence():
    make_corpus = _load_corpus_module()
    mismatches = 0

    for gid, g in _corpus():
        # corpus determinism gate: files match regeneration
        built, x0, y0, i0, r0 = make_corpus.build(gid)
        assert built == g, f"graph {gid} drifted from its seed"
        expected_text = (CORPUS / f"{gid:03d}.expected").read_text()
        assert make_corpus.expected_text(g, x0, y0, i0, r0) == expected_text

        nodes = sorted(g.nodes)
        table = SeparationTable(g)

        # (a) separation agrees with the path-enumeration oracle on
        # every disjoint triple
        for assign in product(range(4), repeat=len(nodes)):
            a = frozenset(v for v, k in zip(nodes, assign) if k == 1)
            b = frozenset(v for v, k in zip(nodes, assign) if k == 2)
            c = frozenset(v for v, k in zip(nodes, assign) if k == 3)
            if not a or not b:
                continue
            if is_separated(g, a, b, c) != table.is_separated(a, b, c):
                mismatches += 1

        for x, y in _ordered_pairs(g):
            rest = sorted(g.nodes - x - y)
            # (b) criterion checker agrees with the brute-force check on
            # every candidate set
            for k in range(len(rest) + 1):
                for sub in combinations(rest, k):
                    z = frozenset(sub)
                    if check_criterion(g, x, y, z).satisfied != front_door_oracle(g, x, y, z):
                        mismatches += 1
            # (c, d) enumeration and search agree with subset enumeration
            # under a random constraint interval
            rng = random.Random(f"criterion4-{gid}-{min(x)}-{min(y)}")
            r = frozenset(v for v in rest if rng.random() < 0.8)
            i = frozenset(v for v in r if rng.random() < 0.25)
            family = enumerate_all_oracle(g, x, y, i, r)
            got = sorted(list_adjustment_sets(g, x, y, i, r), key=lambda s: tuple(sorted(s)))
            if got != family:
                mismatches += 1
            if (find_adjustment_set(g, x, y, i, r) is None) != (not family):
                mismatches += 1

    assert mismatches == 0, f"{mismatches} mismatches against the oracle"
    _done(4, f"zero mismatches across {CORPUS_SIZE} seeded graphs")


# -- 5 ------------------------------------------------------------------


def test_criterion_5_poly_delay():
    """Instrumented delay on the k=8 family (6561 sets).

    The feasibility-call bound holds with room to spare: the walk makes
    one check per set here.  The wall-clock bound (max gap <= 5x median
    gap) is asserted as well, on each gap's minimum over five drains: the
    stream is the same on every drain, so gap j is the same work each
    time, and the minimum drops a scheduler stall unless it hits that
    same gap in all five.  Gaps last tens of microseconds, so one stall
    outweighs any gap.
    """
    g = chain_family(8)
    x, y = ix(g, "X"), ix(g, "Y")
    n = len(g.nodes)

    best_ratio = math.inf
    worst_calls = 0
    fastest = None
    for _ in range(5):
        stats = ListStats()
        stream = list_adjustment_sets(g, x, y, stats=stats)
        gaps_t, gaps_c = [], []
        emitted = 0
        gc.disable()
        try:
            t_prev, c_prev = time.perf_counter(), 0
            first = True
            for _z in stream:
                t_now, c_now = time.perf_counter(), stats.find_calls
                if not first:
                    gaps_t.append(t_now - t_prev)
                    gaps_c.append(c_now - c_prev)
                first = False
                t_prev, c_prev = t_now, c_now
                emitted += 1
        finally:
            gc.enable()
        assert emitted == 3 ** 8
        worst_calls = max(worst_calls, max(gaps_c))
        best_ratio = min(best_ratio, max(gaps_t) / statistics.median(gaps_t))
        fastest = gaps_t if fastest is None else list(map(min, fastest, gaps_t))
    ratio = max(fastest) / statistics.median(fastest)

    assert worst_calls <= 2 * n + 1, f"{worst_calls} checks in one gap"
    print(f"criterion 5: max {worst_calls} checks per gap (bound {2*n+1}); "
          f"wall max/median ratio {ratio:.1f} over per-gap minimums "
          f"(best single drain {best_ratio:.1f})")
    assert ratio <= 5.0, (
        f"max inter-emission wall time is {ratio:.1f}x the median, each gap "
        f"its minimum over five drains (stated tolerance 5x); the call-count "
        f"clause passed at {worst_calls} <= {2*n+1}")
    _done(5, f"delay bounded: {worst_calls} checks/gap, wall ratio {ratio:.1f}")


# -- 6 ------------------------------------------------------------------


def _scaling_admg(n, seed):
    rng = random.Random(seed)
    names = [f"V{i}" for i in range(n)]
    directed = {(i, i + 1) for i in range(n - 1)}
    while len(directed) < int(2.6 * n):
        i, j = sorted(rng.sample(range(n), 2))
        directed.add((i, j))
    bidirected = set()
    while len(bidirected) < n // 8:
        i, j = sorted(rng.sample(range(n), 2))
        bidirected.add((i, j))
    return build_graph(
        names,
        [(names[i], names[j]) for i, j in sorted(directed)],
        [(names[i], names[j]) for i, j in sorted(bidirected)],
    )


def test_criterion_6_scaling():
    sizes = (200, 400, 800)
    medians = {}
    for n in sizes:
        times = []
        for seed in (1, 2, 3):
            g = _scaling_admg(n, seed)
            x = frozenset({1})
            y = frozenset({3 * n // 4})
            t0 = time.perf_counter()
            z = find_adjustment_set(g, x, y)
            took = time.perf_counter() - t0
            if z is not None:
                assert check_criterion(g, x, y, z).satisfied
            if n == 800:
                assert took < 60.0, f"n=800 seed={seed} took {took:.1f} s"
            times.append(took)
        medians[n] = sorted(times)[1]
    slope = math.log(medians[800] / medians[200]) / math.log(800 / 200)
    assert slope < 4.5, f"log-log slope {slope:.2f}"
    _done(6, "medians " + ", ".join(f"n={n}: {medians[n]:.2f}s" for n in sizes)
          + f"; slope {slope:.2f}")


# -- 7 ------------------------------------------------------------------


def test_criterion_7_stage_invariants():
    for gid, g in _corpus():
        for x, y in _ordered_pairs(g):
            rest = sorted(g.nodes - x - y)
            r = frozenset(rest)
            gx = g.remove_outgoing(x)
            pool = second_condition_candidates(g, x, frozenset(), r)
            causal = list(directed_paths(g, x, y))
            for k in range(len(rest) + 1):
                for sub in combinations(rest, k):
                    z = frozenset(sub)
                    # stage-1 pool contains exactly the sets passing the
                    # no-back-door condition
                    if z:
                        assert d_separated_oracle(gx, x, z, frozenset()) == (z <= pool)
                    # condition 1 is hitting every causal path
                    hits = all(set(p) & z for p in causal)
                    assert hits == check_criterion(g, x, y, z).condition1
            # the surviving stage-2 pool blocks its own back-door paths
            survivors = third_condition_candidates(g, x, y, frozenset(), pool)
            if survivors:
                assert d_separated_oracle(
                    g.remove_outgoing(survivors), survivors, y, x)
    _done(7, "stage-pool and interception invariants hold on the corpus")


# -- 8 ------------------------------------------------------------------


P_U = (0.7, 0.3)
P_X = ((0.8, 0.2), (0.1, 0.9))            # [u][x]
P_Z = ((0.7, 0.3), (0.25, 0.75))          # [x][z]
P_Y = (                                    # [z][u][y]
    ((0.9, 0.1), (0.5, 0.5)),
    ((0.4, 0.6), (0.05, 0.95)),
)


def _joint():
    joint = {}
    for x, z, y in product((0, 1), repeat=3):
        joint[(x, z, y)] = sum(
            P_U[u] * P_X[u][x] * P_Z[x][z] * P_Y[z][u][y] for u in (0, 1))
    return joint


def _interventional(x, y):
    """P(y | do(x)) by exact evaluation of the mutilated model."""
    return sum(
        P_U[u] * P_Z[x][z] * P_Y[z][u][y] for u in (0, 1) for z in (0, 1))


def _marginal(joint, assign):
    total = 0.0
    for (x, z, y), p in joint.items():
        vals = {"X": x, "Z": z, "Y": y}
        if all(vals[k] == v for k, v in assign.items()):
            total += p
    return total


def _evaluate(node, joint, env):
    if isinstance(node, Sum):
        return sum(
            _evaluate(node.body, joint, {**env, **dict(zip(node.bound, vals))})
            for vals in product((0, 1), repeat=len(node.bound)))
    if isinstance(node, ProductNode):
        out = 1.0
        for f in node.factors:
            out *= _evaluate(f, joint, env)
        return out
    if isinstance(node, Prob):
        target = {s.name: env[s] for s in node.target}
        given = {s.name: env[s] for s in node.given}
        denom = _marginal(joint, given) if given else 1.0
        return _marginal(joint, {**target, **given}) / denom
    raise TypeError(node)


def test_criterion_8_estimand_numerical_oracle():
    joint = _joint()
    assert abs(sum(joint.values()) - 1.0) < 1e-12
    formula = adjustment_formula(["X"], ["Y"], ["Z"])
    worst = 0.0
    for x_val, y_val in product((0, 1), repeat=2):
        env = {Sym("X"): x_val, Sym("Y"): y_val}
        got = _evaluate(formula, joint, env)
        want = _interventional(x_val, y_val)
        worst = max(worst, abs(got - want))
    assert worst < 1e-9, f"worst deviation {worst:.2e}"
    _done(8, f"adjustment formula matches the mutilated model (max dev {worst:.1e})")
