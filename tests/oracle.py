"""Brute-force reference implementations used to certify the fast paths.

Everything here enumerates simple paths or subsets exhaustively and
applies the textbook definitions verbatim.  It exists for tests on small
graphs; the guards refuse anything bigger.  The one exception is
``survivors_fixed_point``, the round-by-round stage 2 that the one-pass
search replaced, kept as its reference at any size.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Iterable

from frontdoor.errors import GraphError
from frontdoor.graph import ADMG, VarSet, build_graph
from frontdoor.separation import reachable

MAX_ORACLE_NODES = 12
MAX_ORACLE_RANGE = 20


class GraphTooLargeError(GraphError):
    """Brute-force reference code refused a graph it cannot handle."""


class RangeTooLargeError(GraphError):
    """Brute-force subset enumeration refused too wide an interval."""


_HEAD, _TAIL = 1, 0

# Marks an edge kind places at its (source, target) ends.
_MARKS = {"->": (_TAIL, _HEAD), "<-": (_HEAD, _TAIL), "<->": (_HEAD, _HEAD)}


def _check_size(g: ADMG):
    if len(g.nodes) > MAX_ORACLE_NODES:
        raise GraphTooLargeError(
            f"{len(g.nodes)} nodes; reference code handles at most {MAX_ORACLE_NODES}"
        )


def simple_paths(g: ADMG, sources: VarSet, targets: VarSet):
    """Yield every simple path from ``sources`` to ``targets`` as
    ``(nodes, kinds)``, walking edges in any direction."""
    targets = frozenset(targets)

    def steps(v):
        for w in g.children_of(v):
            yield "->", w
        for w in g.parents_of(v):
            yield "<-", w
        for w in g.spouses_of(v):
            yield "<->", w

    for s in sorted(sources):
        stack = [(s, steps(s))]
        nodes = [s]
        kinds: list[str] = []
        on_path = {s}
        while stack:
            v, it = stack[-1]
            advanced = False
            for kind, w in it:
                if w in on_path:
                    continue
                nodes.append(w)
                kinds.append(kind)
                if w in targets:
                    yield list(nodes), list(kinds)
                    nodes.pop()
                    kinds.pop()
                    continue
                on_path.add(w)
                stack.append((w, steps(w)))
                advanced = True
                break
            if not advanced:
                stack.pop()
                on_path.discard(v)
                if nodes:
                    nodes.pop()
                if kinds:
                    kinds.pop()


def path_blocked(g: ADMG, nodes, kinds, c: VarSet) -> bool:
    """Apply the two blocking clauses to one path: a non-collider blocks
    when conditioned on, a collider blocks unless it or a descendant is."""
    for i in range(1, len(nodes) - 1):
        w = nodes[i]
        entry = _MARKS[kinds[i - 1]][1]
        exit_ = _MARKS[kinds[i]][0]
        if entry == _HEAD and exit_ == _HEAD:
            if not (g.descendants((w,)) & c):
                return True
        elif w in c:
            return True
    return False


def d_separated_oracle(g: ADMG, a: Iterable[int], b: Iterable[int], c: Iterable[int]) -> bool:
    """Ground truth for d-separation by exhaustive path enumeration."""
    _check_size(g)
    a = frozenset(a)
    b = frozenset(b)
    c = frozenset(c) & g.nodes
    for nodes, kinds in simple_paths(g, a, b):
        if not path_blocked(g, nodes, kinds, c):
            return False
    return True


def directed_paths(g: ADMG, sources: VarSet, targets: VarSet):
    """Yield every simple directed path from ``sources`` to ``targets``."""
    targets = frozenset(targets)

    def walk(v, nodes, on_path):
        for w in sorted(g.children_of(v)):
            if w in on_path:
                continue
            nodes.append(w)
            if w in targets:
                yield list(nodes)
            else:
                on_path.add(w)
                yield from walk(w, nodes, on_path)
                on_path.discard(w)
            nodes.pop()

    for s in sorted(sources):
        yield from walk(s, [s], {s})


def front_door_oracle(g: ADMG, x: Iterable[int], y: Iterable[int], z: Iterable[int]) -> bool:
    """Ground truth for the front-door criterion: check that ``z`` meets
    all three conditions, each evaluated by brute force."""
    _check_size(g)
    x = frozenset(x)
    y = frozenset(y)
    z = frozenset(z)
    for nodes in directed_paths(g, x, y):
        if not (set(nodes) & z):
            return False
    if z:
        if not d_separated_oracle(g.remove_outgoing(x), x, z, frozenset()):
            return False
        if not d_separated_oracle(g.remove_outgoing(z), z, y, x):
            return False
    return True


def enumerate_all_oracle(g: ADMG, x, y, i, r) -> list[VarSet]:
    """All subsets ``z`` with ``i ⊆ z ⊆ r`` passing the front-door
    criterion, in lexicographic order of their sorted index tuples."""
    i = frozenset(i)
    r = frozenset(r)
    free = sorted(r - i)
    if len(free) > MAX_ORACLE_RANGE:
        raise RangeTooLargeError(f"interval spans {len(free)} free variables")
    found = []
    for k in range(len(free) + 1):
        for extra in combinations(free, k):
            z = i | frozenset(extra)
            if front_door_oracle(g, x, y, z):
                found.append(z)
    return sorted(found, key=lambda s: tuple(sorted(s)))


class SeparationTable:
    """Precomputed path summaries for sweeping many (a, b, c) triples over
    one small graph.  Per path only the non-collider set and the collider
    descendant sets matter, and those do not depend on ``c``."""

    def __init__(self, g: ADMG):
        _check_size(g)
        self.g = g
        desc = {v: g.descendants((v,)) for v in g.nodes}
        self._pair: dict[tuple[int, int], list] = {}
        nodes = sorted(g.nodes)
        for ai in range(len(nodes)):
            for bi in range(ai + 1, len(nodes)):
                a, b = nodes[ai], nodes[bi]
                summaries = []
                for pnodes, kinds in simple_paths(g, frozenset((a,)), frozenset((b,))):
                    non, coll = set(), []
                    for i in range(1, len(pnodes) - 1):
                        w = pnodes[i]
                        entry = _MARKS[kinds[i - 1]][1]
                        exit_ = _MARKS[kinds[i]][0]
                        if entry == _HEAD and exit_ == _HEAD:
                            coll.append(desc[w])
                        else:
                            non.add(w)
                    summaries.append((frozenset(non), tuple(coll)))
                self._pair[(a, b)] = summaries

    def is_separated(self, a: Iterable[int], b: Iterable[int], c: Iterable[int]) -> bool:
        c = frozenset(c)
        for u in a:
            for v in b:
                key = (u, v) if u < v else (v, u)
                for non, coll in self._pair[key]:
                    if non & c:
                        continue
                    if all(d & c for d in coll):
                        return False
        return True


def random_admg(rng: random.Random, n: int, density: float, max_bidirected: int = 2) -> ADMG:
    """Seeded random ADMG over up to 26 single-letter variables: forward
    directed edges with the given density, then a few bidirected pairs."""
    names = [chr(ord("A") + k) for k in range(n)]
    directed = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                directed.append((names[i], names[j]))
    bidirected = []
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for _ in range(rng.randint(0, max_bidirected)):
        i, j = pairs[rng.randrange(len(pairs))]
        if (names[i], names[j]) not in bidirected:
            bidirected.append((names[i], names[j]))
    return build_graph(names, directed, bidirected)


def survivors_fixed_point(g: ADMG, x: VarSet, y: VarSet, pool: VarSet) -> VarSet:
    """Reference stage 2: shrink ``pool`` by dropping every member that
    one d-connection search from ``y`` given ``x`` reaches in ``g`` with
    the remaining pool's outgoing edges cut, until a search reaches none.
    One graph copy and one search per round, at most ``|pool| + 1``
    rounds; no size guard."""
    z = frozenset(pool)
    while z:
        hit = reachable(g.remove_outgoing(z), y, x) & z
        if not hit:
            break
        z -= hit
    return z
