"""Acyclic directed mixed graphs (ADMGs) and their standard transforms.

An ADMG is a DAG over named variables plus bidirected edges marking
unobserved confounding.  Nodes are dense integer indices assigned in
declaration order; every algorithm in this package passes node subsets
around as ``frozenset`` objects of those indices (the ``VarSet`` alias).

A graph is built in one of two ways: ``ADMG(...)`` (and
:func:`build_graph` on top of it) checks every name and index pair it is
given, and :func:`frontdoor.textformat.parse_graph_text` checks each name
once as it reads it and fills the adjacency rows itself.  Both end in one
finisher, ``ADMG._finish``, which freezes the rows and checks that the
directed part is acyclic.

Derived graphs (``remove_outgoing`` here, ``causal_path_graph`` in
:mod:`frontdoor.separation`) keep the index space of the graph they came
from, so a VarSet computed on one graph stays meaningful on them.
"""

from __future__ import annotations

import re
from typing import Iterable, Sequence

from .errors import (
    CyclicGraphError,
    DuplicateNodeError,
    SelfLoopError,
    UnknownNodeError,
)

VarSet = frozenset[int]

EMPTY: VarSet = frozenset()

NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class ADMG:
    """Immutable mixed graph: a DAG plus bidirected confounding edges.

    The constructor takes edges as index pairs; :func:`build_graph` is the
    friendlier name-based entry point.  The constructor and the text
    parser both end in ``_finish``, which freezes the rows and checks
    acyclicity; the transforms build through the unchecked ``_from_rows``.
    """

    __slots__ = ("names", "nodes", "_index", "_parents", "_children", "_spouses")

    def __init__(
        self,
        names: Sequence[str],
        directed: Iterable[tuple[int, int]] = (),
        bidirected: Iterable[tuple[int, int]] = (),
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
        self._finish(names, index, parents, children, spouses)

    @staticmethod
    def _check_index(v, n):
        if type(v) is not int or not 0 <= v < n:
            raise UnknownNodeError(f"node index {v!r} out of range")

    def _finish(self, names, index, parents, children, spouses) -> "ADMG":
        """The last step of both ways of building a graph, ``__init__`` and
        :func:`frontdoor.textformat.parse_graph_text`: freeze the checked
        rows (lists of sets over ``range(len(names))``), keep ``index``
        (name to position) and check that the directed part is acyclic."""
        n = len(names)
        self.names = names
        self.nodes = frozenset(range(n))
        self._index = index
        self._parents = tuple(map(frozenset, parents))
        self._children = tuple(map(frozenset, children))
        self._spouses = tuple(map(frozenset, spouses))
        indeg = [len(p) for p in parents]
        stack = [v for v in range(n) if not indeg[v]]
        seen = 0
        while stack:
            seen += 1
            for c in children[stack.pop()]:
                indeg[c] -= 1
                if not indeg[c]:
                    stack.append(c)
        if seen != n:
            raise CyclicGraphError("directed part contains a cycle")
        return self

    @classmethod
    def _from_rows(cls, names, nodes, parents, children, spouses) -> "ADMG":
        """Unvalidated constructor for transforms that preserve the invariants."""
        g = object.__new__(cls)
        g.names = names
        g.nodes = nodes
        g._index = None
        g._parents = parents
        g._children = children
        g._spouses = spouses
        return g

    # -- lookups ---------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.nodes)

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
        return self._closure(vs, self._parents)

    def descendants(self, vs: Iterable[int]) -> VarSet:
        return self._closure(vs, self._children)

    def _closure(self, vs: Iterable[int], rows: tuple[VarSet, ...]) -> VarSet:
        seen = set(self.check_vars(vs))
        stack = list(seen)
        while stack:
            for w in rows[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
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
            self.names, self.nodes, tuple(parents), tuple(children), self._spouses,
        )

    def expand_latents(self, *args):
        """Not implemented; the name is kept only because bench/tracing.py wraps it."""
        raise NotImplementedError("latent expansion was removed from frontdoor")

    def moral_after_cut(self, *args):
        """Not implemented; the name is kept only because bench/tracing.py wraps it."""
        raise NotImplementedError("the moral graph was removed from frontdoor")

    # -- misc --------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, ADMG):
            return NotImplemented
        return (
            self.names == other.names
            and self.nodes == other.nodes
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
