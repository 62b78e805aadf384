"""Acyclic directed mixed graphs (ADMGs) and their standard transforms.

An ADMG is a DAG over named variables plus bidirected edges marking latent
confounding.  Nodes are dense integer indices assigned in declaration
order; every algorithm in this package passes node subsets around as
``frozenset`` objects of those indices (the ``VarSet`` alias).

Derived graphs (``remove_outgoing``, ``induced_subgraph`` and
``expand_latents``) keep the index space of the graph they came from, so
a VarSet computed on one graph stays meaningful on its derivatives.  An
induced subgraph shrinks the ``nodes`` set without renumbering; latent
expansion appends fresh indices.
"""

from __future__ import annotations

import re
from collections import deque
from typing import Iterable, Sequence

from .errors import (
    AlreadyExpandedError,
    CyclicGraphError,
    DuplicateNodeError,
    PreconditionError,
    RemovedNodeError,
    SelfLoopError,
    UnexpandedBidirectedError,
    UnknownNodeError,
)

VarSet = frozenset[int]

EMPTY: VarSet = frozenset()

NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class ADMG:
    """Immutable mixed graph: a DAG plus bidirected confounding edges.

    The constructor takes edges as index pairs; :func:`build_graph` is the
    friendlier name-based entry point.  ``latent`` flags mark synthesized
    confounder nodes, which exist only in graphs produced by
    :meth:`expand_latents`.
    """

    __slots__ = ("names", "nodes", "latent", "_index", "_parents", "_children",
                 "_spouses")

    def __init__(
        self,
        names: Sequence[str],
        directed: Iterable[tuple[int, int]] = (),
        bidirected: Iterable[tuple[int, int]] = (),
        latent: Sequence[bool] | None = None,
    ):
        names = tuple(names)
        index: dict[str, int] = {}
        for i, name in enumerate(names):
            if not NAME_RE.match(name):
                raise ValueError(f"invalid node name {name!r}")
            if name in index:
                raise DuplicateNodeError(f"node {name!r} declared twice")
            index[name] = i
        n = len(names)
        parents = [set() for _ in range(n)]
        children = [set() for _ in range(n)]
        spouses = [set() for _ in range(n)]
        for u, v in directed:
            self._check_index(u, n)
            self._check_index(v, n)
            if u == v:
                raise SelfLoopError(f"self-loop on {names[u]!r}")
            parents[v].add(u)
            children[u].add(v)
        for u, v in bidirected:
            self._check_index(u, n)
            self._check_index(v, n)
            if u == v:
                raise SelfLoopError(f"bidirected self-loop on {names[u]!r}")
            spouses[u].add(v)
            spouses[v].add(u)
        self.names = names
        self.nodes = frozenset(range(n))
        self.latent = tuple(latent) if latent is not None else (False,) * n
        if len(self.latent) != n:
            raise ValueError("latent flag list does not match node count")
        self._index = index
        self._parents = tuple(frozenset(s) for s in parents)
        self._children = tuple(frozenset(s) for s in children)
        self._spouses = tuple(frozenset(s) for s in spouses)
        self._check_acyclic()

    @staticmethod
    def _check_index(v, n):
        if not isinstance(v, int) or not 0 <= v < n:
            raise UnknownNodeError(f"node index {v!r} out of range")

    def _check_acyclic(self):
        indeg = {v: len(self._parents[v] & self.nodes) for v in self.nodes}
        queue = deque(v for v in self.nodes if indeg[v] == 0)
        seen = 0
        while queue:
            v = queue.popleft()
            seen += 1
            for c in self._children[v]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    queue.append(c)
        if seen != len(self.nodes):
            raise CyclicGraphError("directed part contains a cycle")

    @classmethod
    def _from_rows(cls, names, nodes, latent, parents, children, spouses) -> "ADMG":
        """Unvalidated constructor for transforms that preserve the invariants."""
        g = object.__new__(cls)
        g.names = names
        g.nodes = nodes
        g.latent = latent
        g._index = None
        g._parents = parents
        g._children = children
        g._spouses = spouses
        return g

    # -- lookups ---------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def observed_nodes(self) -> VarSet:
        return frozenset(v for v in self.nodes if not self.latent[v])

    def index_of(self, name: str) -> int:
        if self._index is None:
            self._index = {nm: i for i, nm in enumerate(self.names)}
        try:
            i = self._index[name]
        except KeyError:
            raise UnknownNodeError(f"unknown node {name!r}") from None
        if i not in self.nodes:
            raise UnknownNodeError(f"node {name!r} is not in this graph")
        return i

    def indices(self, names: Iterable[str]) -> VarSet:
        return frozenset(self.index_of(nm) for nm in names)

    def names_of(self, vs: Iterable[int]) -> list[str]:
        """Names of ``vs`` in declaration (index) order."""
        return [self.names[v] for v in sorted(vs)]

    def parents_of(self, v: int) -> VarSet:
        return self._parents[v]

    def children_of(self, v: int) -> VarSet:
        return self._children[v]

    def spouses_of(self, v: int) -> VarSet:
        return self._spouses[v]

    @property
    def directed_edges(self) -> frozenset[tuple[int, int]]:
        return frozenset((p, v) for v in self.nodes for p in self._parents[v])

    @property
    def bidirected_edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(
            (min(u, v), max(u, v)) for u in self.nodes for v in self._spouses[u]
        )

    def check_vars(self, vs: Iterable[int]) -> VarSet:
        vs = frozenset(vs)
        stray = vs - self.nodes
        if stray:
            raise UnknownNodeError(f"indices {sorted(stray)} are not nodes of this graph")
        return vs

    # -- kinship closures ------------------------------------------------

    def ancestors(self, vs: Iterable[int]) -> VarSet:
        """Reflexive-transitive closure of ``vs`` along directed edges,
        against the arrows.  Bidirected edges are never traversed."""
        seen = set(self.check_vars(vs))
        stack = list(seen)
        while stack:
            v = stack.pop()
            for p in self._parents[v]:
                if p not in seen:
                    seen.add(p)
                    stack.append(p)
        return frozenset(seen)

    def descendants(self, vs: Iterable[int]) -> VarSet:
        seen = set(self.check_vars(vs))
        stack = list(seen)
        while stack:
            v = stack.pop()
            for c in self._children[v]:
                if c not in seen:
                    seen.add(c)
                    stack.append(c)
        return frozenset(seen)

    # -- transforms ------------------------------------------------------

    def remove_outgoing(self, vs: Iterable[int]) -> "ADMG":
        """Delete directed edges leaving members of ``vs``.  Bidirected
        edges point into their endpoints and are retained."""
        vs = self.check_vars(vs)
        parents = list(self._parents)
        children = list(self._children)
        for v in vs:
            for c in children[v]:
                parents[c] = parents[c] - {v}
            children[v] = EMPTY
        return ADMG._from_rows(
            self.names, self.nodes, self.latent,
            tuple(parents), tuple(children), self._spouses,
        )

    def induced_subgraph(self, vs: Iterable[int]) -> "ADMG":
        """Graph over ``vs`` keeping exactly the edges with both endpoints
        inside.  Indices are not renumbered; absent nodes lose all edges."""
        vs = self.check_vars(vs)
        parents = tuple(
            (self._parents[v] & vs) if v in vs else EMPTY for v in range(len(self.names))
        )
        children = tuple(
            (self._children[v] & vs) if v in vs else EMPTY for v in range(len(self.names))
        )
        spouses = tuple(
            (self._spouses[v] & vs) if v in vs else EMPTY for v in range(len(self.names))
        )
        return ADMG._from_rows(self.names, vs, self.latent, parents, children, spouses)

    def expand_latents(self) -> "ADMG":
        """Replace each bidirected pair with a fresh latent parent of both
        endpoints.  The observed subgraph is unchanged."""
        if any(self.latent):
            raise AlreadyExpandedError("graph already contains latent nodes")
        pairs = sorted(self.bidirected_edges)
        if not pairs:
            return self
        names = list(self.names)
        used = set(names)
        parents = list(self._parents)
        children = list(self._children)
        spouses = [EMPTY] * len(names)
        nodes = set(self.nodes)
        latent = list(self.latent)
        for u, v in pairs:
            name = f"L_{self.names[u]}_{self.names[v]}"
            while name in used:
                name += "_"
            used.add(name)
            idx = len(names)
            names.append(name)
            nodes.add(idx)
            latent.append(True)
            parents.append(EMPTY)
            children.append(frozenset((u, v)))
            spouses.append(EMPTY)
            parents[u] = parents[u] | {idx}
            parents[v] = parents[v] | {idx}
        return ADMG._from_rows(
            tuple(names), frozenset(nodes), tuple(latent),
            tuple(parents), tuple(children), tuple(spouses),
        )

    def moralize(self) -> "MoralGraph":
        """Undirected skeleton of the directed edges plus marriage edges
        between co-parents.  Bidirected edges must have been expanded."""
        return self.moral_after_cut(EMPTY, EMPTY)

    # bench/tracing.py also wraps this method
    def moral_after_cut(self, cut: Iterable[int], drop: Iterable[int]) -> "MoralGraph":
        """Moralize with the outgoing edges of ``cut`` removed and ``drop``
        deleted afterwards, in one pass; equivalent to
        ``remove_outgoing(cut).moralize().remove(drop)``."""
        cut = frozenset(cut)
        drop = frozenset(drop)
        adj: list[set] = [set() for _ in range(len(self.names))]
        for v in self.nodes:
            if self._spouses[v]:
                raise UnexpandedBidirectedError(
                    "moralize a latent-expanded graph (call expand_latents first)"
                )
            ps = [p for p in self._parents[v] if p not in drop and p not in cut]
            if v not in drop:
                av = adj[v]
                for p in ps:
                    av.add(p)
                    adj[p].add(v)
            # marriages between surviving co-parents outlive a dropped child
            for a, p in enumerate(ps):
                ap = adj[p]
                for q in ps[a + 1:]:
                    ap.add(q)
                    adj[q].add(p)
        return MoralGraph(
            nodes=self.nodes - drop,
            latent=self.latent,
            adjacency=adj,
            removed=drop,
        )

    # -- misc --------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, ADMG):
            return NotImplemented
        return (
            self.names == other.names
            and self.nodes == other.nodes
            and self.latent == other.latent
            and self._parents == other._parents
            and self._spouses == other._spouses
        )

    def __hash__(self):
        return hash((self.names, self.nodes, self._parents, self._spouses))

    def __repr__(self):
        return (
            f"ADMG({len(self.nodes)} nodes, {len(self.directed_edges)} directed, "
            f"{len(self.bidirected_edges)} bidirected)"
        )


class MoralGraph:
    """Undirected graph produced by :meth:`ADMG.moralize`.

    Node indices are shared with the source graph.  ``removed`` records
    nodes deleted after moralization; no edge touches a removed node.
    Adjacency rows are plain sets for speed and must be treated as
    read-only.
    """

    __slots__ = ("nodes", "latent", "adjacency", "removed")

    def __init__(self, nodes, latent, adjacency, removed):
        self.nodes = nodes
        self.latent = latent
        self.adjacency = adjacency
        self.removed = removed

    def neighbors_of(self, v: int) -> VarSet:
        return self.adjacency[v]

    def observed_neighbors(self, v: int) -> VarSet:
        """Observed nodes adjacent to ``v``, where latent nodes act as
        pass-through hops."""
        if v in self.removed:
            raise RemovedNodeError(f"node {v} was removed from the moral graph")
        if self.latent[v]:
            raise PreconditionError("neighbor expansion starts from an observed node")
        out = set()
        seen = {v}
        stack = [v]
        while stack:
            u = stack.pop()
            for w in self.adjacency[u]:
                if w in seen:
                    continue
                seen.add(w)
                if self.latent[w]:
                    stack.append(w)
                else:
                    out.add(w)
        return frozenset(out)

    def remove(self, vs: Iterable[int]) -> "MoralGraph":
        """Copy of this graph with ``vs`` and their incident edges deleted."""
        vs = frozenset(vs) & self.nodes
        if not vs:
            return self
        adj = list(self.adjacency)
        for v in vs:
            for w in adj[v]:
                adj[w] = adj[w] - vs
            adj[v] = EMPTY
        return MoralGraph(
            nodes=self.nodes - vs,
            latent=self.latent,
            adjacency=tuple(adj),
            removed=self.removed | vs,
        )

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(
            (min(u, v), max(u, v)) for u in self.nodes for v in self.adjacency[u]
        )

    def __repr__(self):
        return f"MoralGraph({len(self.nodes)} nodes, {len(self.edges)} edges)"


def build_graph(
    nodes: Sequence[str],
    directed: Iterable[tuple[str, str]] = (),
    bidirected: Iterable[tuple[str, str]] = (),
    *,
    declare_implicitly: bool = True,
) -> ADMG:
    """Build a validated ADMG from node names and name-pair edge lists.

    Endpoints missing from ``nodes`` are appended in first-mention order
    when ``declare_implicitly`` is on, and rejected otherwise.
    """
    names = list(nodes)
    seen = set(names)
    if len(seen) != len(names):
        raise DuplicateNodeError("duplicate entries in node list")
    directed = [(str(u), str(v)) for u, v in directed]
    bidirected = [(str(u), str(v)) for u, v in bidirected]
    for u, v in [*directed, *bidirected]:
        for name in (u, v):
            if name not in seen:
                if not declare_implicitly:
                    raise UnknownNodeError(f"edge endpoint {name!r} is not declared")
                seen.add(name)
                names.append(name)
    pos = {name: i for i, name in enumerate(names)}
    return ADMG(
        names,
        directed=[(pos[u], pos[v]) for u, v in directed],
        bidirected=[(pos[u], pos[v]) for u, v in bidirected],
    )
