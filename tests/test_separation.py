import random

import pytest

from frontdoor import (
    OverlappingSetsError,
    build_graph,
    causal_path_graph,
    check_criterion,
    connecting_path,
    format_path,
    is_separated,
    proper_causal_path_nodes,
    second_condition_candidates,
)
from frontdoor.graph import ADMG
from frontdoor.search import _reached
from frontdoor.separation import _HEAD, _TAIL, _search, blocking_survivors

from conftest import ix
from oracle import d_separated_oracle, directed_paths, random_admg, survivors_fixed_point
from test_acceptance import _corpus, _scaling_admg


def test_canonical_separations(canon):
    x, y, z = ix(canon, "X"), ix(canon, "Y"), ix(canon, "Z")
    assert not is_separated(canon, x, y, frozenset())  # X <-> Y stays open
    assert not is_separated(canon, x, y, z)
    chain = build_graph(["X", "Z", "Y"], [("X", "Z"), ("Z", "Y")])
    assert is_separated(chain, ix(chain, "X"), ix(chain, "Y"), ix(chain, "Z"))
    assert not is_separated(chain, ix(chain, "X"), ix(chain, "Y"), frozenset())


def test_collider_conditioning():
    g = build_graph(["A", "C", "B"], [("A", "C"), ("B", "C")])
    a, b, c = ix(g, "A"), ix(g, "B"), ix(g, "C")
    assert is_separated(g, a, b, frozenset())
    assert not is_separated(g, a, b, c)  # conditioning opens the collider


def test_descendant_of_collider_opens():
    g = build_graph(["A", "C", "B", "D"], [("A", "C"), ("B", "C"), ("C", "D")])
    assert not is_separated(g, ix(g, "A"), ix(g, "B"), ix(g, "D"))


def test_conditioning_set_outside_graph_is_ignored(canon):
    cpg = causal_path_graph(canon, ix(canon, "X"), ix(canon, "Y"))
    # index 5 does not exist anywhere; harmless in c
    assert not is_separated(cpg, ix(canon, "X"), ix(canon, "Y"), frozenset({5}))


def test_overlap_rejected(canon):
    with pytest.raises(OverlappingSetsError):
        is_separated(canon, ix(canon, "X"), ix(canon, "X,Y"), frozenset())
    with pytest.raises(OverlappingSetsError):
        is_separated(canon, ix(canon, "X"), ix(canon, "Y"), ix(canon, "X"))


def test_connecting_path_witness(canon):
    path = connecting_path(canon, ix(canon, "X"), ix(canon, "Y"), ix(canon, "Z"))
    assert path is not None
    assert format_path(canon, path) == "X <-> Y"
    chain = build_graph(["X", "Z", "Y"], [("X", "Z"), ("Z", "Y")])
    assert connecting_path(chain, ix(chain, "X"), ix(chain, "Y"), ix(chain, "Z")) is None


def test_pcp(canon):
    assert proper_causal_path_nodes(canon, ix(canon, "X"), ix(canon, "Y")) == ix(canon, "Z,Y")
    edge = build_graph(["X", "Y"], [("X", "Y")])
    assert proper_causal_path_nodes(edge, ix(edge, "X"), ix(edge, "Y")) == ix(edge, "Y")
    apart = build_graph(["X", "Y"], [("Y", "X")])
    assert proper_causal_path_nodes(apart, ix(apart, "X"), ix(apart, "Y")) == frozenset()


def test_pcp_intro(intro):
    # frozen from evaluating both closures by hand: B is a dead end
    assert proper_causal_path_nodes(intro, ix(intro, "X"), ix(intro, "Y")) == ix(intro, "A,C,D,Y")


def test_pcp_matches_closure_on_cut_graph():
    # the walk up from y that skips x gives the ancestors of y once the
    # edges out of x are gone, as the copy g.remove_outgoing(x) does
    rng = random.Random(4242)
    graphs = [g for _, g in _corpus()]
    graphs += [random_admg(rng, rng.randint(3, 26), rng.choice((0.1, 0.2, 0.35)),
                           max_bidirected=rng.randint(0, 4)) for _ in range(300)]
    for g in graphs:
        nodes = sorted(g.nodes)
        for _ in range(3):
            k = rng.randint(1, max(1, len(nodes) // 3))
            picked = rng.sample(nodes, min(len(nodes), k + rng.randint(1, 3)))
            x, y = frozenset(picked[:k]), frozenset(picked[k:])
            if not y:
                continue
            old = (g.descendants(x) - x) & g.remove_outgoing(x).ancestors(y)
            assert proper_causal_path_nodes(g, x, y) == old


def test_causal_path_graph_builds_only_its_result(monkeypatch):
    g = _scaling_admg(200, 5)
    x, y = ix(g, "V1"), ix(g, "V150")
    built = []
    from_rows = ADMG._from_rows.__func__

    def counted(cls, *rows):
        built.append(rows)
        return from_rows(cls, *rows)

    monkeypatch.setattr(ADMG, "_from_rows", classmethod(counted))
    assert proper_causal_path_nodes(g, x, y)
    assert built == []
    causal_path_graph(g, x, y)
    assert len(built) == 1


def test_causal_path_graph_canonical(canon):
    cpg = causal_path_graph(canon, ix(canon, "X"), ix(canon, "Y"))
    assert cpg.nodes == canon.nodes
    assert cpg.directed_edges == {(0, 1), (1, 2)}
    assert cpg.bidirected_edges == frozenset()


def test_causal_path_graph_intro(intro):
    cpg = causal_path_graph(intro, ix(intro, "X"), ix(intro, "Y"))
    assert cpg.nodes == ix(intro, "X,A,C,D,Y")
    assert cpg.directed_edges == {
        (intro.index_of(u), intro.index_of(v))
        for u, v in [("X", "A"), ("A", "Y"), ("A", "C"), ("C", "Y"), ("A", "D"), ("D", "Y")]
    }
    assert cpg.bidirected_edges == frozenset()


def test_causal_path_graph_no_path():
    g = build_graph(["X", "Y", "W"], [("Y", "X"), ("W", "X")])
    cpg = causal_path_graph(g, ix(g, "X"), ix(g, "Y"))
    assert cpg.nodes == ix(g, "X,Y")
    assert cpg.directed_edges == frozenset()


def test_causal_path_graph_shape(intro):
    cpg = causal_path_graph(intro, ix(intro, "X"), ix(intro, "Y"))
    x, y = ix(intro, "X"), ix(intro, "Y")
    for v in cpg.nodes:
        if v in x:
            assert not cpg.parents_of(v)
        if v in y:
            assert not cpg.children_of(v)
        # every kept node lies on a directed x-to-y path
        assert v in cpg.descendants(x) | x
        assert v in cpg.ancestors(y) | y


def test_causal_path_graph_definition():
    # the nodes of x, y and the proper causal paths between them, the
    # edges of g among those nodes except those into x and out of y, and
    # no bidirected edge
    rng = random.Random(1995)
    for _ in range(300):
        g = random_admg(rng, rng.randint(4, 16), rng.choice((0.15, 0.3, 0.5)),
                        max_bidirected=4)
        x = frozenset(rng.sample(sorted(g.nodes), rng.randint(1, 3)))
        rest = sorted(g.nodes - x)
        y = frozenset(rng.sample(rest, rng.randint(1, min(3, len(rest)))))
        cpg = causal_path_graph(g, x, y)
        keep = x | y | proper_causal_path_nodes(g, x, y)
        assert cpg.nodes == keep
        assert cpg.directed_edges == {
            (u, v) for u, v in g.directed_edges
            if u in keep - y and v in keep - x
        }
        assert cpg.bidirected_edges == frozenset()
        for v in cpg.nodes:
            assert cpg.children_of(v) == {w for u, w in cpg.directed_edges if u == v}


def test_matches_path_enumeration_oracle():
    rng = random.Random(99)
    for _ in range(150):
        g = random_admg(rng, rng.randint(3, 6), rng.choice((0.2, 0.4)))
        nodes = sorted(g.nodes)
        for _ in range(20):
            picks = [frozenset(v for v in nodes if rng.random() < 0.3) for _ in range(3)]
            a, b, c = picks
            b = b - a
            c = c - a - b
            if not a or not b:
                continue
            assert is_separated(g, a, b, c) == d_separated_oracle(g, a, b, c)


def test_symmetry():
    rng = random.Random(7)
    for _ in range(80):
        g = random_admg(rng, rng.randint(3, 6), 0.4)
        nodes = sorted(g.nodes)
        a = frozenset({nodes[0]})
        b = frozenset({nodes[-1]})
        c = frozenset(v for v in nodes[1:-1] if rng.random() < 0.4)
        assert is_separated(g, a, b, c) == is_separated(g, b, a, c)


def _expanded(g):
    """The DAG of ``g`` with each bidirected pair replaced by a fresh
    parent of both endpoints, numbered after ``g``'s own nodes."""
    pairs = sorted(g.bidirected_edges)
    latents = [f"L{k}" for k in range(len(pairs))]  # random_admg names are letters
    directed = set(g.directed_edges)
    for k, (u, v) in enumerate(pairs, start=len(g.names)):
        directed |= {(k, u), (k, v)}
    return ADMG([*g.names, *latents], directed)


def test_latent_expansion_preserves_separation():
    rng = random.Random(5151)
    for _ in range(80):
        g = random_admg(rng, rng.randint(3, 6), rng.choice((0.2, 0.4)))
        if not g.bidirected_edges:
            continue
        expanded = _expanded(g)
        nodes = sorted(g.nodes)
        for _ in range(15):
            a = frozenset(v for v in nodes if rng.random() < 0.3)
            b = frozenset(v for v in nodes if rng.random() < 0.3) - a
            c = frozenset(v for v in nodes if rng.random() < 0.3) - a - b
            if not a or not b:
                continue
            assert is_separated(g, a, b, c) == is_separated(expanded, a, b, c)


def test_interception_equivalence_oracle():
    # condition 1 holds exactly when the set hits every directed path.
    # Separation in the causal path graph is not the same thing: in the
    # fixed graph below {A, C} hits every path, yet it holds the collider
    # A of X -> A <- B -> Y, which is open there
    fixed = build_graph(["X", "A", "B", "C", "Y"],
                        [("X", "A"), ("X", "C"), ("C", "B"), ("B", "A"),
                         ("A", "Y"), ("B", "Y")])
    x, y, z = ix(fixed, "X"), ix(fixed, "Y"), ix(fixed, "A,C")
    assert all(set(p) & z for p in directed_paths(fixed, x, y))
    assert check_criterion(fixed, x, y, z).condition1
    assert not is_separated(causal_path_graph(fixed, x, y), x, y, z)
    rng = random.Random(314)
    for _ in range(120):
        g = random_admg(rng, rng.randint(3, 6), rng.choice((0.2, 0.4)))
        nodes = sorted(g.nodes)
        x = frozenset({rng.choice(nodes)})
        y = frozenset({rng.choice(nodes)}) - x
        if not y:
            continue
        rest = [v for v in nodes if v not in x | y]
        for _ in range(8):
            z = frozenset(v for v in rest if rng.random() < 0.4)
            hits_all = all(set(p) & z for p in directed_paths(g, x, y))
            assert hits_all == check_criterion(g, x, y, z).condition1


def _pool_searches():
    rng = random.Random(1998)
    for _ in range(200):
        g = random_admg(rng, rng.randint(4, 26), rng.choice((0.1, 0.2, 0.35)),
                        max_bidirected=rng.randint(0, 6))
        xv, yv = rng.sample(sorted(g.nodes), 2)
        x, y = frozenset({xv}), frozenset({yv})
        rest = g.nodes - x - y
        yield g, x, y, frozenset(v for v in rest if rng.random() < 0.5)
        yield g, x, y, rest
    for n in (200, 400):
        for seed in (1, 2, 3):
            g = _scaling_admg(n, seed)
            for xv in (0, 1):
                x, y = frozenset({xv}), frozenset({3 * n // 4})
                yield g, x, y, second_condition_candidates(g, x, frozenset(), g.nodes - x - y)


def test_pool_search_links_are_edges():
    # every predecessor link of a pool search, the pushes a drop makes
    # included, leads back to a state reached earlier, along an uncut
    # edge of g in its recorded direction and out of an exit the
    # d-separation rules leave open; the search reaches exactly the
    # members it drops
    dropped = 0
    for g, x, y, pool in _pool_searches():
        pred, hit, kept = _search(g, y, x, pool)
        assert hit is None and kept <= pool
        anc = g.remove_outgoing(kept).ancestors(x)
        order = {state: k for k, state in enumerate(pred)}
        for (w, mark), link in pred.items():
            if link is None:
                assert w in y and mark == _TAIL
                continue
            (v, entered), kind = link
            assert order[v, entered] < order[w, mark]
            if kind == "->":
                # a tail exit: shut at x, and cut out of a kept member
                assert w in g.children_of(v) and mark == _HEAD
                assert v not in x and v not in kept
                continue
            # a head exit: open at a tail-entered node outside x, and at a
            # head-entered one that is an ancestor of x
            assert (v in anc) if entered == _HEAD else (v not in x)
            if kind == "<-":
                assert w in g.parents_of(v) and mark == _TAIL and w not in kept
            else:
                assert kind == "<->" and w in g.spouses_of(v) and mark == _HEAD
        assert {w for w, _ in pred} & pool == pool - kept
        dropped += len(pool - kept)
    assert dropped > 1000


def _survivor_pools():
    rng = random.Random(2211)
    for _ in range(150):
        g = random_admg(rng, rng.randint(4, 26), rng.choice((0.1, 0.2, 0.35)),
                        max_bidirected=rng.randint(0, 6))
        xv, yv = rng.sample(sorted(g.nodes), 2)
        x, y = frozenset({xv}), frozenset({yv})
        rest = g.nodes - x - y
        yield g, x, y, frozenset(v for v in rest if rng.random() < 0.6)
        yield g, x, y, rest
    for n in (50, 200, 800):
        for seed in (1, 2, 3):
            g = _scaling_admg(n, seed)
            x, y = frozenset({1}), frozenset({3 * n // 4})
            rest = g.nodes - x - y
            yield g, x, y, second_condition_candidates(g, x, frozenset(), rest)
            yield g, x, y, frozenset(v for v in rest if v % 3)


def test_resumed_search_matches_fresh():
    # a copy of a finished stage-2 run over m = blocking_survivors(pool),
    # resumed with one member v freed, keeps what a fresh run over
    # m - {v} keeps; its links are edges of g; and the walks grown from
    # m's by what it leaves out reach what fresh walks do
    resumed = shrunk = 0
    for g, x, y, pool in _survivor_pools():
        state = ({}, set(), set(), set())
        m = _search(g, y, x, pool, state=state)[2]
        before = _reached(g.children_of, x, m)
        after = _reached(g.parents_of, y, m)
        for v in sorted(m):
            fresh = blocking_survivors(g, x, y, m - {v})
            assert fresh == survivors_fixed_point(g, x, y, m - {v})
            pred, hit, kept = _search(g, y, x, m - {v}, state=tuple(s.copy() for s in state))
            assert hit is None and kept == fresh
            order = {s: k for k, s in enumerate(pred)}
            for (w, mark), link in pred.items():
                if link is not None:
                    (u, entered), kind = link
                    edges = {"->": g.children_of, "<-": g.parents_of, "<->": g.spouses_of}[kind]
                    assert w in edges(u) and w not in kept
                    assert order[u, entered] < order[w, mark]
            for step, start, walk in ((g.children_of, x, before), (g.parents_of, y, after)):
                grown = _reached(step, m - kept, kept, walk)
                assert grown.keys() == _reached(step, start, kept).keys()
            resumed += 1
            shrunk += kept != m - {v}
    assert resumed > 1000 and shrunk > 100
