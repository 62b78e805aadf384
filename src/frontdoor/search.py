"""One front-door engine for finding, listing and checking adjustment sets.

:class:`FrontDoorEngine`, bound to a query's graph, ``x``, ``y`` and root
``r``, answers ``feasible(i, r)``: the largest set ``z`` with
``i ⊆ z ⊆ r`` satisfying the front-door criterion, or ``None``.  Every
d-separation question here goes to the one Bayes-ball search of
:mod:`frontdoor.separation`, which cuts the edges out of a set in place.
Stage 1 keeps the members of ``r`` with no open back-door path from
``x``: those outside that search from ``x`` with the edges out of ``x``
cut (computed once for the root).  A pool that misses some causal
path is rejected at once: interception is monotone, so no subset can hit
that path.  Stage 2 (:func:`~frontdoor.separation.blocking_survivors`)
shrinks the pool to the largest subset meeting the third condition, with
the search from ``y`` given ``x`` over that pool, which drops the members
it reaches as it goes, and that subset is the answer iff it intercepts
every causal path.

Interception is a walk in the query graph itself: a directed walk from
``x`` to ``y`` avoiding ``z`` exists exactly when a proper causal path
avoiding ``z`` does (cut the walk at its last ``x`` node and its first
``y`` node), so no causal path graph is built.

``find_adjustment_set`` is ``feasible(i, r)`` at the root, and
``list_adjustment_sets`` walks an include/exclude tree of such checks
over one engine.  ``check_criterion`` tests condition 1 with the same
interception walk and conditions 2 and 3 with one search each, with no
graph copied; each witness path is read off its walk or search.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

from .errors import OverlappingSetsError, PreconditionError
from .graph import ADMG, EMPTY, VarSet
from .separation import (
    _first_states,
    _path_to,
    _search,
    blocking_survivors,
    causal_path_graph,  # noqa: F401  (unused; only bench/tracing.py wraps it here)
    connecting_path,  # noqa: F401  (unused; only bench/tracing.py wraps it here)
    format_path,
    is_separated,  # noqa: F401  (unused; only bench/tracing.py wraps it here)
)


@dataclass(frozen=True)
class AdjustmentQuery:
    """A validated (graph, x, y, i, r) problem instance.

    ``i`` collects variables the answer must include, ``r`` the variables
    it may include.  ``r`` defaults to every variable outside ``x`` and
    ``y``.  Each set may be given as any iterable of indices and is stored
    as a frozenset.
    """

    graph: ADMG
    x: VarSet
    y: VarSet
    i: VarSet = EMPTY
    r: VarSet | None = None

    def __post_init__(self):
        g = self.graph
        x = g.check_vars(self.x)
        y = g.check_vars(self.y)
        i = g.check_vars(self.i)
        r = g.nodes - x - y if self.r is None else g.check_vars(self.r)
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


def _reached(step, start, z: VarSet, walk=None) -> dict[int, int | None]:
    """Breadth-first predecessors of the nodes reached from ``start``
    along ``step``, in the order they are reached; the walk enters the
    members of ``z`` it meets but goes no further through them.  Given
    ``walk``, the result of such a walk blocked by ``z | start``, it
    carries a copy of that on through the members of ``start`` it met."""
    pred = dict.fromkeys(start) if walk is None else dict(walk)
    queue = deque(sorted(start if walk is None else walk.keys() & start))
    while queue:
        v = queue.popleft()
        for w in step(v):
            if w not in pred:
                pred[w] = v
                if w not in z:
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
    ``(x, y)`` and report a witness path for the first failure, read off
    the one walk or search of ``g`` (no copy) that tests it: for
    condition 2, the first path found to its lowest-index bad member."""
    x = g.check_vars(x)
    y = g.check_vars(y)
    z = g.check_vars(z)
    if not x or not y:
        raise PreconditionError("x and y must be nonempty")
    if x & y or x & z or y & z:
        raise OverlappingSetsError("x, y and z must be pairwise disjoint")

    missed = _missed_causal_path(g, x, y, z)
    pred2 = _search(g, x, EMPTY, fixed=x)[0]
    first2 = _first_states(pred2)
    bad = z.intersection(first2)
    pred3, hit3, _ = _search(g, z, x, b=y, fixed=z)
    cond1, cond2, cond3 = missed is None, not bad, hit3 is None

    witness = None
    if not cond1:
        witness = " -> ".join(g.names[v] for v in missed)
    elif not cond2:
        witness = format_path(g, _path_to(pred2, first2[min(bad)]))
    elif not cond3:
        witness = format_path(g, _path_to(pred3, hit3))
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
    open_from_x = r.intersection(_first_states(_search(g, x, EMPTY, fixed=x)[0]))
    return None if i & open_from_x else r - open_from_x


def observed_neighbors(*args):
    """Not implemented; the name is kept only because bench/tracing.py wraps it."""
    raise NotImplementedError("the moral graph was removed from frontdoor")


class BlockingSearch:
    """Not implemented; the name and its two methods are kept only because
    bench/tracing.py wraps them."""

    def prepare(self, *args):
        raise NotImplementedError("stage 2 runs blocking_survivors directly")

    def extension(self, *args):
        raise NotImplementedError("stage 2 runs blocking_survivors directly")


def _stage2_sets(g: ADMG, x, y, t, pool) -> tuple[VarSet, VarSet, VarSet, VarSet]:
    """``x``, ``y``, a seed set ``t`` and ``pool`` as frozensets, checked
    as stage 2 needs them: nodes of ``g``, ``x`` and ``y`` nonempty and
    disjoint, and a pool clear of both."""
    x, y, t, pool = (g.check_vars(s) for s in (x, y, t, pool))
    if not x or not y:
        raise PreconditionError("x and y must be nonempty")
    if x & y:
        raise PreconditionError("x and y must be disjoint")
    if pool & (x | y):
        raise PreconditionError("the pool may not overlap x or y")
    return x, y, t, pool


def third_condition_candidates(
    g: ADMG, x: VarSet, y: VarSet, i: VarSet, pool: VarSet
) -> VarSet | None:
    """Members of ``pool`` that some set within ``[i, pool]`` containing
    them can satisfy the third condition with; None when a member of
    ``i`` cannot be accommodated.

    A set ``z`` meets the third condition when no member of ``z`` is
    d-connected to ``y`` given ``x`` once the outgoing edges of ``z`` are
    cut.  Cutting more edges never opens a path (it removes edges and
    shrinks the ancestors of ``x``), so every set meeting the condition
    inside a pool survives :func:`~frontdoor.separation.blocking_survivors`,
    which drops the members connected to ``y`` until none is; what
    remains is the largest such set within the pool.  It does so in
    linear time, in one run of the Bayes-ball search of
    :mod:`frontdoor.separation` with the pool.
    """
    x, y, i, pool = _stage2_sets(g, x, y, i, pool)
    kept = blocking_survivors(g, x, y, pool)
    return kept if i <= kept else None


def find_blocking_extension(
    g: ADMG, x: VarSet, y: VarSet, t: VarSet, pool: VarSet
) -> VarSet | None:
    """Helpers from ``pool`` that make ``t`` meet the third front-door
    condition, or None when no superset of ``t`` inside ``pool`` can.

    The helpers are inclusion-minimal: without any one of them, no set
    inside ``t`` and the others that contains ``t`` meets the condition.
    They are found by starting from the largest such set within ``pool``
    (see :func:`third_condition_candidates`) and trying the helpers in
    index order, dropping each one whose removal still leaves a set
    meeting the condition around ``t`` and shrinking to that set.
    """
    x, y, t, pool = _stage2_sets(g, x, y, t, pool)
    if not t <= pool:
        raise PreconditionError("t must be a subset of the candidate pool")
    kept = blocking_survivors(g, x, y, pool)
    if not t <= kept:
        return None
    for h in sorted(kept - t):
        if h in kept:
            trial = blocking_survivors(g, x, y, kept - {h})
            if t <= trial:
                kept = trial
    return kept - t


class Check:
    """A check's set ``z``, its final stage-2 search state, ``forward(z)``
    and, once :meth:`FrontDoorEngine.pivots` has made it, ``backward(z)``."""

    __slots__ = ("z", "state", "before", "after")

    def __init__(self, z: VarSet, state: tuple, before: dict[int, int | None]):
        self.z, self.state, self.before, self.after = z, state, before, None


class FrontDoorEngine:
    """Feasibility checks for one validated query, shared by ``find`` and
    ``list``.

    Binds the graph, ``x`` and ``y`` and the stage-1 pool of the query's
    ``r``; each check's stage 2 is one run of
    :func:`~frontdoor.separation.blocking_survivors`.  It keeps no answers
    between checks, so its memory does not grow with the number of checks
    a listing makes.

    A check on a parent check's set less one member resumes the parent's
    search from a copy of its state with the member freed and grows
    copies of its walks: freeing only removes cuts and blocks, so all the
    parent reached stays reached, and each ends where a fresh one would.
    """

    def __init__(self, query: AdjustmentQuery):
        self.g = g = query.graph
        self.x = query.x
        self.y = query.y
        self.pool = second_condition_candidates(g, query.x, EMPTY, query.r)

    def forward(self, z: VarSet, parent: Check | None = None) -> dict[int, int | None]:
        """The nodes of the graph reached from ``x`` along directed edges
        without passing through ``z`` (the members met are entered); ``z``
        intercepts every causal path iff none is in ``y``.  Given
        ``parent``, a check whose set holds ``z``, it grows a copy of its walk."""
        if parent is None:
            return _reached(self.g.children_of, self.x, z)
        return _reached(self.g.children_of, parent.z - z, z, parent.before)

    def backward(self, z: VarSet, parent: Check | None = None) -> dict[int, int | None]:
        """:meth:`forward` from ``y`` against the edges' direction; a
        ``parent`` must have had its exclude branches taken by :meth:`pivots`."""
        if parent is None:
            return _reached(self.g.parents_of, self.y, z)
        return _reached(self.g.parents_of, parent.z - z, z, parent.after)

    def sole_interceptors(self, z: VarSet, before=None, after=None) -> VarSet:
        """Members ``v`` of ``z`` that some causal path meets in ``z`` only
        at ``v``, running outside ``z`` from ``x`` to a parent of ``v`` and
        from a child of ``v`` to ``y``: ``z - {v}`` misses that path.
        ``before`` and ``after`` are ``forward(z)`` and ``backward(z)``,
        when the caller already has them.

        ``z`` must intercept every causal path, as each set ``largest``
        returns does: then the walk from ``x`` never reaches ``y`` and the
        walk back from ``y`` never reaches ``x``, so a walk through ``v``
        joining the two is a causal path."""
        if before is None:
            before = self.forward(z)
        if after is None:
            after = self.backward(z)
        return z.intersection(before, after)

    def pivots(self, found: Check, parent: Check | None, i: VarSet) -> VarSet:
        """For ``found = largest(i, r, parent)``, the members ``v`` of
        ``found.z - i`` whose exclude branch ``found.z - {v}`` intercepts
        every causal path; makes the backward walk those branches grow."""
        pivots = found.z - i
        if pivots:
            found.after = self.backward(found.z, parent)
            pivots -= self.sole_interceptors(found.z, found.before, found.after)
        return pivots

    def largest(self, i: VarSet, r: VarSet, parent: Check | None = None) -> Check | None:
        """The largest admissible set within ``[i, r]`` for ``r`` inside
        the query's ``r``, with the work that found it, or None when the
        interval holds no admissible set.

        ``parent``, when given, is a check whose set is ``r`` plus one of
        its ``pivots``: ``r`` intercepts every causal path, so no walk
        tests it, and the check resumes ``parent``'s search and walks."""
        pool = r & self.pool
        if not i <= pool:
            return None
        if parent is None:
            state, before = ({}, set(), set(), set()), self.forward(pool)
            if not self.y.isdisjoint(before):
                return None
        else:
            pred, anc, shut, cut = parent.state
            state = (pred.copy(), anc.copy(), shut.copy(), cut.copy())
        survivors = blocking_survivors(self.g, self.x, self.y, pool, state)
        if not i <= survivors:
            return None
        # an unshrunk root pool was just seen to intercept every causal path
        if parent is not None or survivors != pool:
            before = self.forward(survivors, parent)
            if not self.y.isdisjoint(before):
                return None
        return Check(survivors, state, before)

    def feasible(self, i: VarSet, r: VarSet) -> VarSet | None:
        """The largest admissible set within ``[i, r]`` for ``r`` inside
        the query's ``r``, or None when that interval holds none."""
        found = self.largest(i, r)
        return None if found is None else found.z


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
