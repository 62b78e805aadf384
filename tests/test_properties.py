"""Randomized cross-module invariants on small seeded graphs."""

import random
from collections import defaultdict, deque
from itertools import combinations

from frontdoor import is_separated

from oracle import d_separated_oracle, random_admg


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


def _moral_graph(g, keep):
    """Adjacency of the moral graph of ``g``'s latent-expanded subgraph
    over the ancestral set ``keep``: each bidirected pair gets a latent
    parent ``("L", u, v)``, and the parents of each node are married."""
    adj = defaultdict(set)
    for v in keep:
        ps = list(g.parents_of(v))
        ps += [("L", min(u, v), max(u, v)) for u in g.spouses_of(v) & keep]
        for p in ps:
            adj[v].add(p)
            adj[p].add(v)
        for p, q in combinations(ps, 2):
            adj[p].add(q)
            adj[q].add(p)
    return adj


def _is_node_cut(moral, blockers, a, b):
    """Does deleting ``blockers`` disconnect ``a`` from ``b``?"""
    if a & b:
        return False
    seen = set(a)
    queue = deque(a)
    while queue:
        v = queue.popleft()
        for w in moral[v]:
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
        moral = _moral_graph(g, g.ancestors(t | x | y))
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
