"""Front-door checks that share no code with ``frontdoor``.

Every check runs on the latent-expanded DAG (each bidirected pair becomes
a fresh latent parent of both endpoints), built with networkx straight
from the benchmark's own edge lists, and decides d-separation with
``networkx.is_d_separator``.  Nodes are the integer positions of the
declaration order, the same numbers ``frontdoor`` uses as indices.

For a single treatment ``x`` and outcome ``y`` the three conditions on a
set ``z`` are:

1. ``z`` intercepts every directed path from ``x`` to ``y``;
2. ``x`` and ``z`` are d-separated by the empty set once the edges out of
   ``x`` are cut (no open back-door path from ``x``);
3. ``z`` and ``y`` are d-separated by ``x`` once the edges out of ``z``
   are cut (``x`` blocks every back-door path from ``z``).

:func:`largest_admissible` computes the unique largest admissible set by
a fixed point.  Condition 2 holds for a set iff it holds for each member,
so every admissible set lies in the pool of members passing it.  Inside
that pool, let ``s`` contain a set ``t`` meeting condition 3.  A member
of ``s`` with an open path to ``y`` given ``x`` once the edges out of
``s`` are cut has that path open once only the edges out of ``t`` are
cut (fewer edges cut, no fewer ancestors of ``x``), so it is not in
``t``.  Dropping such members until none is left therefore keeps every
set meeting condition 3 and ends at one that meets it, the largest.  Interception is monotone, so an admissible set
exists iff that largest set intercepts every causal path.
"""

from __future__ import annotations

import networkx as nx


class Dag:
    """The latent-expanded DAG of an ADMG given by raw edge lists."""

    def __init__(self, n: int, directed, bidirected):
        g = nx.DiGraph()
        g.add_nodes_from(range(n))
        g.add_edges_from(directed)
        for k, (u, v) in enumerate(bidirected):
            g.add_edge(("L", k), u)
            g.add_edge(("L", k), v)
        self.g = g
        self._cut_x: dict[int, nx.DiGraph] = {}

    def cut(self, vs) -> nx.DiGraph:
        """Copy with the edges out of ``vs`` removed."""
        h = self.g.copy()
        h.remove_edges_from([e for v in vs for e in self.g.out_edges(v)])
        return h

    def causal_path_avoiding(self, x: int, y: int, z) -> list[int] | None:
        """A directed path from ``x`` to ``y`` through no member of ``z``."""
        h = self.g.subgraph(v for v in self.g if v not in z)
        try:
            return nx.shortest_path(h, x, y)
        except nx.NetworkXNoPath:
            return None

    def pool(self, x: int, candidates) -> frozenset[int]:
        """Members of ``candidates`` with no open back-door path from ``x``.

        With nothing conditioned on, two nodes of a DAG are d-connected
        iff they have a common ancestor, so once the edges out of ``x``
        are cut the connected nodes are the descendants of ``x``'s
        ancestors.  One networkx call confirms that the rest is separated.
        """
        gx = self._gx(x)
        roots = nx.ancestors(gx, x) | {x}
        reached = set(roots)
        for a in roots:
            reached |= nx.descendants(gx, a)
        pool = frozenset(v for v in candidates if v not in reached)
        if pool and not nx.is_d_separator(gx, {x}, set(pool), set()):
            raise AssertionError("pool is not d-separated from x")
        return pool

    def back_door_open(self, x: int, v: int) -> bool:
        return not nx.is_d_separator(self._gx(x), {x}, {v}, set())

    def _gx(self, x: int) -> nx.DiGraph:
        if x not in self._cut_x:
            self._cut_x[x] = self.cut((x,))
        return self._cut_x[x]

    def causal_path_graph_separates(self, x: int, y: int, z) -> bool:
        """Whether ``z`` d-separates ``x`` from ``y`` in the subgraph of
        the nodes on directed paths from ``x`` to ``y``, with the edges
        into ``x`` and out of ``y`` cut.  This equals
        condition 1 for every set meeting condition 3, but not always
        otherwise: an intercepting ``z`` can open a collider there."""
        keep = (nx.descendants(self.g, x) & nx.ancestors(self.g, y)) | {x, y}
        h = nx.DiGraph(self.g.subgraph(keep))
        h.remove_edges_from([*h.in_edges(x), *h.out_edges(y)])
        return nx.is_d_separator(h, {x}, {y}, set(z) & keep)

    def descendants(self, v: int) -> set:
        return nx.descendants(self.g, v)

    def blocks_back_door(self, x: int, y: int, z) -> bool:
        """Condition 3: ``x`` blocks every back-door path from ``z`` to ``y``."""
        z = set(z)
        return not z or nx.is_d_separator(self.cut(z), z, {y}, {x})

    def conditions(self, x: int, y: int, z) -> tuple[bool, bool, bool]:
        z = set(z)
        c1 = self.causal_path_avoiding(x, y, z) is None
        c2 = not z or nx.is_d_separator(self._gx(x), {x}, z, set())
        return c1, c2, self.blocks_back_door(x, y, z)

    def admissible(self, x: int, y: int, z) -> bool:
        return all(self.conditions(x, y, z))

    def largest_admissible(self, x: int, y: int, r) -> tuple[frozenset | None, frozenset]:
        """The largest admissible subset of ``r`` (None when there is
        none) and the stage-1 pool it was carved from."""
        pool = self.pool(x, r)
        if self.causal_path_avoiding(x, y, pool) is not None:
            return None, pool
        z = set(pool)
        while z:
            h = self.cut(z)
            bad = _failing(z, lambda s: nx.is_d_separator(h, s, {y}, {x}))
            if not bad:
                break
            z -= bad
        if self.causal_path_avoiding(x, y, z) is not None:
            return None, pool
        return frozenset(z), pool

    def is_locally_maximal(self, x: int, y: int, z, r) -> bool:
        """No single further member of ``r`` can join ``z`` while the
        three conditions still hold."""
        return not any(self.admissible(x, y, set(z) | {v}) for v in set(r) - set(z))


def _failing(members, passes) -> set:
    """Members failing a test that a set passes iff each member does,
    found by halving: a few calls when few fail."""
    out = set()
    stack = [sorted(members)]
    while stack:
        part = stack.pop()
        if not part or passes(set(part)):
            continue
        if len(part) == 1:
            out.add(part[0])
        else:
            mid = len(part) // 2
            stack += [part[:mid], part[mid:]]
    return out
