"""One front-door engine for finding, listing and checking adjustment sets.

:class:`FrontDoorEngine`, bound to a query's graph, ``x``, ``y`` and root
``r``, answers ``feasible(i, r)``: the largest set ``z`` with
``i ⊆ z ⊆ r`` satisfying the front-door criterion, or ``None``.  Every
d-separation question here goes to the one Bayes-ball search of
:mod:`frontdoor.separation`, which can start with a pool's outgoing
edges cut.  Stage 1 keeps the members of ``r`` with no open back-door
path from ``x``: those outside that search from ``x`` with an empty
pool (computed once for the root).  A pool that misses some causal
path is rejected at once: interception is monotone, so no subset can hit
that path.  Stage 2 (:class:`BlockingSearch`) shrinks the pool to the
largest subset meeting the third condition, with the search from ``y``
given ``x`` over that pool, which drops the members it reaches as it
goes (:func:`~frontdoor.separation.blocking_survivors`), and that subset
is the answer iff it intercepts every causal path.

Interception is a walk in the query graph itself: a directed walk from
``x`` to ``y`` avoiding ``z`` exists exactly when a proper causal path
avoiding ``z`` does (cut the walk at its last ``x`` node and its first
``y`` node), so no causal path graph is built.

``find_adjustment_set`` is ``feasible(i, r)`` at the root, and
``list_adjustment_sets`` walks an include/exclude tree of such checks
over one engine.  ``check_criterion`` tests condition 1 with the same
interception walk, whose missed causal path is the witness, and
conditions 2 and 3 with the search and an empty pool.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

from .errors import AlreadyExpandedError, OverlappingSetsError, PreconditionError
from .graph import ADMG, MoralGraph, VarSet
from .separation import (
    blocking_survivors,
    causal_path_graph,  # noqa: F401  (unused; only bench/tracing.py wraps it here)
    connecting_path,
    format_path,
    is_separated,  # noqa: F401  (unused; only bench/tracing.py wraps it here)
    reachable,
)

EMPTY: VarSet = frozenset()


@dataclass(frozen=True)
class AdjustmentQuery:
    """A validated (graph, x, y, i, r) problem instance.

    ``i`` collects variables the answer must include, ``r`` the variables
    it may include.  ``r`` defaults to every observed variable outside
    ``x`` and ``y``.  Each set may be given as any iterable of indices and
    is stored as a frozenset.  A latent-expanded graph is rejected with
    :class:`AlreadyExpandedError`: queries take bidirected edges.
    """

    graph: ADMG
    x: VarSet
    y: VarSet
    i: VarSet = EMPTY
    r: VarSet | None = None

    def __post_init__(self):
        g = self.graph
        if any(g.latent):
            raise AlreadyExpandedError("query the graph before latent expansion")
        x = g.check_vars(self.x)
        y = g.check_vars(self.y)
        i = g.check_vars(self.i)
        r = g.observed_nodes - x - y if self.r is None else g.check_vars(self.r)
        if not x or not y:
            raise PreconditionError("x and y must be nonempty")
        if x & y:
            raise PreconditionError("x and y must be disjoint")
        if r & (x | y):
            raise PreconditionError("r may not overlap x or y")
        if not i <= r:
            raise PreconditionError("i must be a subset of r")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "r", r)


@dataclass(frozen=True)
class CriterionReport:
    """Per-condition verdicts of the front-door criterion for one set.

    ``condition1``: the set intercepts every directed path from x to y.
    ``condition2``: no open back-door path from x to the set.
    ``condition3``: x blocks every back-door path from the set to y.
    ``witness`` describes an offending path for the first failed
    condition.
    """

    condition1: bool
    condition2: bool
    condition3: bool
    witness: str | None = None

    @property
    def satisfied(self) -> bool:
        return self.condition1 and self.condition2 and self.condition3


def _reached(step, start: VarSet, z: VarSet) -> dict[int, int | None]:
    """Breadth-first predecessors of the nodes reached from ``start``
    along ``step`` without entering ``z``, in the order they are reached."""
    pred = dict.fromkeys(start)
    queue = deque(sorted(start))
    while queue:
        v = queue.popleft()
        for w in step(v):
            if w not in pred and w not in z:
                pred[w] = v
                queue.append(w)
    return pred


def _missed_causal_path(g: ADMG, x: VarSet, y: VarSet, z: VarSet) -> list[int] | None:
    """A shortest directed path from ``x`` to ``y`` avoiding ``z`` in
    ``g``, or None when ``z`` intercepts them all.  It leads to the first
    node of ``y`` the walk reaches from all of ``x`` at once, so it is a
    proper causal path: it meets ``x`` and ``y`` only at its ends."""
    pred = _reached(g.children_of, x, z)
    path = [next((w for w in pred if w in y), None)]
    if path[0] is None:
        return None
    while pred[path[-1]] is not None:
        path.append(pred[path[-1]])
    return path[::-1]


def check_criterion(g: ADMG, x: Iterable[int], y: Iterable[int], z: Iterable[int]) -> CriterionReport:
    """Evaluate the three front-door conditions for ``z`` relative to
    ``(x, y)`` and report a witness path for the first failure."""
    x = g.check_vars(x)
    y = g.check_vars(y)
    z = g.check_vars(z)
    if not x or not y:
        raise PreconditionError("x and y must be nonempty")
    if x & y or x & z or y & z:
        raise OverlappingSetsError("x, y and z must be pairwise disjoint")

    missed = _missed_causal_path(g, x, y, z)
    cond1 = missed is None

    gx = g.remove_outgoing(x)
    bad = sorted(z & reachable(gx, x, EMPTY))
    cond2 = not bad

    gz = g.remove_outgoing(z)
    path3 = connecting_path(gz, z, y, x) if z else None
    cond3 = path3 is None

    witness = None
    if not cond1:
        witness = " -> ".join(g.names[v] for v in missed)
    elif not cond2:
        witness = format_path(gx, connecting_path(gx, x, frozenset(bad[:1]), EMPTY))
    elif not cond3:
        witness = format_path(gz, path3)
    return CriterionReport(cond1, cond2, cond3, witness)


def second_condition_candidates(g: ADMG, x: VarSet, i: VarSet, r: VarSet) -> VarSet | None:
    """Members of ``r`` with no open back-door path from ``x``; None when
    a required member of ``i`` has one.

    Every subset of the result meets the second front-door condition, and
    every set within ``[i, r]`` meeting it lies inside the result.  One
    search from ``x`` with its outgoing edges cut finds every member with
    an open back-door path.
    """
    x = g.check_vars(x)
    i = g.check_vars(i)
    r = g.check_vars(r)
    if not x:
        raise PreconditionError("x must be nonempty")
    if r & x:
        raise OverlappingSetsError("r may not overlap x")
    if not i <= r:
        raise PreconditionError("i must be a subset of r")
    open_from_x = reachable(g.remove_outgoing(x), x, EMPTY) & r
    return None if i & open_from_x else r - open_from_x


# a moral graph's neighbour expansion under its public name; nothing here
# calls it, and bench/tracing.py wraps it here
observed_neighbors = MoralGraph.observed_neighbors


class BlockingSearch:
    """Stage 2 bound to one ``(graph, x, y)`` query.

    A set ``z`` meets the third condition when no member of ``z`` is
    d-connected to ``y`` given ``x`` once the outgoing edges of ``z`` are
    cut.  Cutting more edges never opens a path (it removes edges and
    shrinks the ancestors of ``x``), so every set meeting the condition
    inside a pool survives :meth:`survivors`, which drops the members
    connected to ``y`` until none is; what remains is the largest such
    set within the pool.  It does so in linear time, in one run of the
    Bayes-ball search of :mod:`frontdoor.separation` with the pool.
    """

    def __init__(self, g: ADMG, x: VarSet, y: VarSet):
        if x & y:
            raise PreconditionError("x and y must be disjoint")
        self.g = g
        self.x = x
        self.y = y

    def prepare(self, t: VarSet) -> None:
        """Does nothing; kept only because bench/tracing.py wraps it."""

    def survivors(self, pool: VarSet) -> VarSet:
        """The largest subset of ``pool`` meeting the third condition: the
        members that some set within ``pool`` containing them meets it
        with."""
        if pool & (self.x | self.y):
            raise PreconditionError("the pool may not overlap x or y")
        return blocking_survivors(self.g, self.x, self.y, pool)

    def extension(self, t: VarSet, pool: VarSet) -> VarSet | None:
        """An inclusion-minimal set of helpers from ``pool`` with which
        ``t`` meets the third condition, or None when no superset of ``t``
        inside ``pool`` does; see :func:`find_blocking_extension`."""
        if not t <= pool:
            raise PreconditionError("t must be a subset of the candidate pool")
        kept = self.survivors(pool)
        if not t <= kept:
            return None
        for h in sorted(kept - t):
            if h in kept:
                trial = self.survivors(kept - {h})
                if t <= trial:
                    kept = trial
        return kept - t


def find_blocking_extension(
    g: ADMG, x: VarSet, y: VarSet, t: VarSet, pool: VarSet
) -> VarSet | None:
    """Helpers from ``pool`` that make ``t`` meet the third front-door
    condition, or None when no superset of ``t`` inside ``pool`` can.

    The helpers are inclusion-minimal: without any one of them, no set
    inside ``t`` and the others that contains ``t`` meets the condition.
    They are found by starting from the largest such set within ``pool``
    and trying the helpers in index order, dropping each one whose
    removal still leaves a set meeting the condition around ``t`` and
    shrinking to that set.
    """
    return BlockingSearch(g, x, y).extension(frozenset(t), frozenset(pool))


def third_condition_candidates(
    g: ADMG, x: VarSet, y: VarSet, i: VarSet, pool: VarSet
) -> VarSet | None:
    """Members of ``pool`` that some set within ``[i, pool]`` containing
    them can satisfy the third condition with; None when a member of
    ``i`` cannot be accommodated."""
    i = g.check_vars(i)
    kept = BlockingSearch(g, x, y).survivors(frozenset(pool))
    return kept if i <= kept else None


class FrontDoorEngine:
    """Feasibility checks for one validated query, shared by ``find`` and
    ``list``.

    Binds the graph, ``x`` and ``y``, the stage-1 pool of the query's
    ``r`` and one :class:`BlockingSearch`.  It keeps no answers between
    checks, so its memory does not grow with the number of checks a
    listing makes.
    """

    def __init__(self, query: AdjustmentQuery):
        self.g = g = query.graph
        self.x = query.x
        self.y = query.y
        self.pool = second_condition_candidates(g, query.x, EMPTY, query.r)
        self.blocking = BlockingSearch(g, query.x, query.y)

    def forward(self, z: VarSet) -> dict[int, int | None]:
        """The nodes of the graph reached from ``x`` along directed edges
        without entering ``z``; ``z`` intercepts every causal path iff
        none is in ``y``."""
        return _reached(self.g.children_of, self.x, z)

    def sole_interceptors(self, z: VarSet, before: dict[int, int | None] | None = None) -> VarSet:
        """Members ``v`` of ``z`` that some causal path meets in ``z`` only
        at ``v``, running outside ``z`` from ``x`` to a parent of ``v`` and
        from a child of ``v`` to ``y``: ``z - {v}`` misses that path.
        ``before`` is ``forward(z)``, when the caller already has it.

        ``z`` must intercept every causal path, as each set ``largest``
        returns does: then the walk from ``x`` never reaches ``y`` and the
        walk back from ``y`` never reaches ``x``, so a walk through ``v``
        joining the two is a causal path."""
        g = self.g
        if before is None:
            before = self.forward(z)
        after = _reached(g.parents_of, self.y, z)
        return z.intersection(
            {v for u in before for v in g.children_of(u)},
            {v for u in after for v in g.parents_of(u)},
        )

    def largest(self, i: VarSet, r: VarSet) -> tuple[VarSet, dict[int, int | None]] | None:
        """The largest admissible set within ``[i, r]`` for ``r`` inside
        the query's ``r`` together with ``forward`` of that set, or None
        when the interval holds no admissible set."""
        pool = r & self.pool
        if not i <= pool:
            return None
        before = self.forward(pool)
        if not self.y.isdisjoint(before):
            return None
        survivors = self.blocking.survivors(pool)
        if not i <= survivors:
            return None
        # an unshrunk pool was just seen to intercept every causal path
        if survivors != pool:
            before = self.forward(survivors)
            if not self.y.isdisjoint(before):
                return None
        return survivors, before

    def feasible(self, i: VarSet, r: VarSet) -> VarSet | None:
        """The largest admissible set within ``[i, r]`` for ``r`` inside
        the query's ``r``, or None when that interval holds none."""
        found = self.largest(i, r)
        return None if found is None else found[0]


def find_adjustment_set(
    g: ADMG,
    x: Iterable[int],
    y: Iterable[int],
    i: Iterable[int] = EMPTY,
    r: Iterable[int] | None = None,
) -> VarSet | None:
    """One front-door adjustment set ``z`` with ``i ⊆ z ⊆ r`` relative to
    ``(x, y)``, or None when none exists.

    The answer, when one exists, is the full surviving candidate pool: if
    that pool fails to intercept every causal path, no subset of it can.
    Runs in polynomial time; the empty set is a legal answer exactly when
    the graph has no causal path from ``x`` to ``y``.
    """
    query = AdjustmentQuery(g, x, y, i, r)
    return FrontDoorEngine(query).feasible(query.i, query.r)
