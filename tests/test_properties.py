"""Randomized cross-module invariants on small seeded graphs."""

import random
from collections import deque

from frontdoor import is_separated, observed_neighbors
from frontdoor.graph import CutMoralRows
from frontdoor.oracle import d_separated_oracle, random_admg


def _graphs(seed, count, max_nodes=6):
    rng = random.Random(seed)
    for _ in range(count):
        yield rng, random_admg(rng, rng.randint(3, max_nodes), rng.choice((0.2, 0.4)))


def _random_disjoint(rng, nodes, k=3, p=0.3):
    picked = []
    taken = set()
    for _ in range(k):
        s = frozenset(v for v in nodes if v not in taken and rng.random() < p)
        taken |= s
        picked.append(s)
    return picked


def test_closures_monotone_and_idempotent():
    for rng, g in _graphs(101, 60):
        nodes = sorted(g.nodes)
        s = frozenset(v for v in nodes if rng.random() < 0.4)
        t = s | frozenset(v for v in nodes if rng.random() < 0.3)
        assert g.ancestors(s) <= g.ancestors(t)
        assert g.descendants(s) <= g.descendants(t)
        assert g.ancestors(g.ancestors(s)) == g.ancestors(s)
        assert g.descendants(g.descendants(s)) == g.descendants(s)
        assert s <= g.ancestors(s) and s <= g.descendants(s)


def _is_node_cut(moral, blockers, a, b):
    """Does deleting ``blockers`` disconnect ``a`` from ``b``?"""
    if a & b:
        return False
    seen = set(a)
    queue = deque(a)
    while queue:
        v = queue.popleft()
        for w in moral.neighbors_of(v):
            if w in blockers or w in seen:
                continue
            if w in b:
                return False
            seen.add(w)
            queue.append(w)
    return True


def test_moral_separator_property():
    # separation given x holds exactly when x cuts t from y in the moral
    # graph of the latent-expanded ancestral restriction
    for rng, g in _graphs(202, 120, max_nodes=7):
        nodes = sorted(g.nodes)
        t, y, x = _random_disjoint(rng, nodes)
        if not t or not y:
            continue
        core = g.induced_subgraph(g.ancestors(t | x | y)).expand_latents()
        moral = core.moralize()
        sep = d_separated_oracle(g, t, y, x)
        assert sep == _is_node_cut(moral, x, t, y)


def test_fast_separation_agrees_with_oracle_everywhere():
    for rng, g in _graphs(303, 100):
        nodes = sorted(g.nodes)
        for _ in range(25):
            a, b, c = _random_disjoint(rng, nodes)
            if not a or not b:
                continue
            assert is_separated(g, a, b, c) == d_separated_oracle(g, a, b, c)


def test_fused_cut_moral_matches_composition():
    aside = random.Random(405)
    for rng, g in _graphs(404, 80, max_nodes=7):
        core = g.expand_latents()
        observed = sorted(g.nodes)
        cut = frozenset(v for v in observed if rng.random() < 0.4)
        drop = frozenset(v for v in observed if rng.random() < 0.3) - cut
        fused = core.moral_after_cut(cut, drop)
        composed = core.remove_outgoing(cut).moralize().remove(drop)
        assert fused.edges == composed.edges
        assert fused.nodes == composed.nodes
        assert fused.removed == composed.removed
        # the walk's rows give the same latent-hop neighbours, with no
        # graph rebuilt for the cut, on the whole core and inside a part
        rows = CutMoralRows(core, drop, core.nodes)
        for v in observed:
            if v not in drop:
                assert rows.observed_neighbors(v, cut) == observed_neighbors(fused, v)
        within = frozenset(v for v in core.nodes if aside.random() < 0.8)
        rows = CutMoralRows(core, drop, within)
        part = core.induced_subgraph(within).moral_after_cut(cut, drop)
        for v in within & frozenset(observed) - drop:
            assert rows.observed_neighbors(v, cut) == observed_neighbors(part, v)
