"""One front-door engine for finding, listing and checking adjustment sets.

:class:`FrontDoorEngine`, bound to a query's graph, ``x``, ``y`` and root
``r``, answers ``feasible(i, r)``: the largest set ``z`` with
``i ⊆ z ⊆ r`` satisfying the front-door criterion, or ``None``.  Stage 1
keeps the members of ``r`` with no open back-door path from ``x``
(computed once for the root).  A pool that misses some causal path is
rejected at once: interception is monotone, so no subset can hit that
path.  Stage 2 (:class:`BlockingSearch`) drops every candidate that no
admissible set can contain, and the survivors are the answer iff they
intercept every causal path.  Stage 2 rests on a breadth-first walk over
the moral graph of an ancestral graph whose cut grows as the walk
recruits candidates (``find_blocking_extension``); the walk reads that
graph off rows stored once per seed and rebuilds nothing.  It doubles as
a constructive search for the helpers a seed set needs.

``find_adjustment_set`` is ``feasible(i, r)`` at the root, and
``list_adjustment_sets`` walks an include/exclude tree of such checks
over one engine.  ``check_criterion`` tests condition 1 with the same
interception walk, whose missed causal path is the witness.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .errors import OverlappingSetsError, PreconditionError
from .graph import ADMG, CutMoralRows, MoralGraph, VarSet
from .separation import (
    causal_path_graph,
    connecting_path,
    format_path,
    is_separated,
)

EMPTY: VarSet = frozenset()


@dataclass(frozen=True)
class AdjustmentQuery:
    """A validated (graph, x, y, i, r) problem instance.

    ``i`` collects variables the answer must include, ``r`` the variables
    it may include.  ``r`` defaults to every observed variable outside
    ``x`` and ``y``.  Each set may be given as any iterable of indices and
    is stored as a frozenset.
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


def _missed_causal_path(cpg: ADMG, x: VarSet, y: VarSet, z: VarSet) -> list[int] | None:
    """A shortest directed path from ``x`` to ``y`` avoiding ``z`` in the
    causal path graph ``cpg``, or None when ``z`` intercepts them all."""
    pred = dict.fromkeys(x)
    queue = deque(sorted(x))
    while queue:
        v = queue.popleft()
        for w in cpg.children_of(v):
            if w in pred or w in z:
                continue
            pred[w] = v
            if w in y:
                path = [w]
                while pred[path[-1]] is not None:
                    path.append(pred[path[-1]])
                path.reverse()
                return path
            queue.append(w)
    return None


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

    missed = _missed_causal_path(causal_path_graph(g, x, y), x, y, z)
    cond1 = missed is None

    cond2 = True
    witness2 = None
    gx = g.remove_outgoing(x)
    for v in sorted(z):
        path = connecting_path(gx, x, frozenset((v,)), EMPTY)
        if path is not None:
            cond2 = False
            witness2 = format_path(gx, path)
            break

    if z:
        gz = g.remove_outgoing(z)
        path3 = connecting_path(gz, z, y, x)
        cond3 = path3 is None
        witness3 = None if cond3 else format_path(gz, path3)
    else:
        cond3 = True
        witness3 = None

    if not cond1:
        witness = " -> ".join(g.names[v] for v in missed)
    elif not cond2:
        witness = witness2
    elif not cond3:
        witness = witness3
    else:
        witness = None
    return CriterionReport(cond1, cond2, cond3, witness)


def second_condition_candidates(g: ADMG, x: VarSet, i: VarSet, r: VarSet) -> VarSet | None:
    """Members of ``r`` with no open back-door path from ``x``; None as
    soon as a required member of ``i`` has one.

    Every subset of the result meets the second front-door condition, and
    every set within ``[i, r]`` meeting it lies inside the result.
    """
    gx = g.remove_outgoing(x)
    kept = set()
    for v in sorted(r):
        if is_separated(gx, x, frozenset((v,)), EMPTY):
            kept.add(v)
        elif v in i:
            return None
    return frozenset(kept)


# a moral graph's neighbour expansion, under its public name
observed_neighbors = MoralGraph.observed_neighbors


class BlockingSearch:
    """The stage-2 walker bound to one ``(graph, x, y)`` query.

    A walk from seed set ``t`` runs on the moral graph of the seed's
    ancestral, latent-expanded core with ``x`` deleted, under a cut that
    grows as the walk recruits pool members.  The core stores that moral
    graph's rows once (:class:`CutMoralRows`), and each step reads a
    node's neighbours under the current cut off them.  Cores are kept
    across walks for prepared seeds only, which the enumerator walks over
    many candidate pools; a single pool walks each seed once.
    """

    def __init__(self, g: ADMG, x: VarSet, y: VarSet):
        self.g = g
        self.x = x
        self.y = y
        self.arrowheads = frozenset(v for v in g.nodes if g.has_incoming_arrow(v))
        self._kept: dict[VarSet, CutMoralRows] = {}

    @cached_property
    def _expanded(self) -> ADMG:
        return self.g.expand_latents()

    @cached_property
    def _confounders(self) -> list[tuple[int, VarSet]]:
        """The expanded graph's latent nodes, each with its two children."""
        ex = self._expanded
        return [(v, ex.children_of(v)) for v in ex.nodes - self.g.nodes]

    def _core(self, t: VarSet) -> CutMoralRows:
        """Rows of the seed's core: its ancestral subgraph with a latent
        parent for each bidirected edge inside it, and ``x`` deleted."""
        within = self.g.ancestors(t | self.x | self.y)
        within |= {v for v, pair in self._confounders if pair <= within}
        return CutMoralRows(self._expanded, self.x, within)

    def prepare(self, t: VarSet) -> None:
        """Keep the seed set's core across walks, building it now."""
        self._kept[t] = self._core(t)

    def extension(self, t: VarSet, pool: VarSet) -> VarSet | None:
        if not t <= pool:
            raise PreconditionError("t must be a subset of the candidate pool")
        if t & self.x or t & self.y or self.x & self.y:
            raise PreconditionError("x, y and t must be pairwise disjoint")
        y = self.y
        arrowheads = self.arrowheads
        core = self._kept.get(t)
        if core is None:
            core = self._core(t)
        hop = core.observed_neighbors
        cut = set(t)
        visited = set(t)
        queue = deque(sorted(t))
        while queue:
            u = queue.popleft()
            if u in y:
                return None
            near = hop(u, cut)
            fresh = (near & pool) - visited
            if fresh:
                cut |= fresh
                near = hop(u, cut)
            step = (near - visited) | (fresh & arrowheads)
            visited |= step
            queue.extend(sorted(step))
        return frozenset(cut - t)

    def survivors(self, pool: VarSet) -> VarSet:
        """Members of ``pool`` that some set within ``pool`` containing
        them can satisfy the third condition with."""
        return frozenset(
            v for v in sorted(pool)
            if self.extension(frozenset((v,)), pool) is not None
        )


def find_blocking_extension(
    g: ADMG, x: VarSet, y: VarSet, t: VarSet, pool: VarSet
) -> VarSet | None:
    """Helpers from ``pool`` that make ``t`` meet the third front-door
    condition, or None when no superset of ``t`` inside ``pool`` can.

    The moral graph of the ancestral, latent-expanded subgraph is wired so
    that its paths from ``t`` to ``y`` are exactly the back-door paths
    that ``x`` fails to block.  The walk cuts the outgoing edges of every
    pool member it meets (recruiting it) and goes on in the moral graph
    under the grown cut; reaching ``y`` anyway means some offending path
    survives all available cuts.
    """
    return BlockingSearch(g, x, y).extension(frozenset(t), frozenset(pool))


def third_condition_candidates(
    g: ADMG, x: VarSet, y: VarSet, i: VarSet, pool: VarSet
) -> VarSet | None:
    """Members of ``pool`` that some set within ``[i, pool]`` containing
    them can satisfy the third condition with; None when a member of
    ``i`` cannot be accommodated."""
    kept = BlockingSearch(g, x, y).survivors(frozenset(pool))
    return kept if i <= kept else None


class FrontDoorEngine:
    """Feasibility checks for one validated query, shared by ``find`` and
    ``list``.

    Binds the graph, ``x`` and ``y``, the causal path graph, the stage-1
    pool of the query's ``r`` and one :class:`BlockingSearch`.  Answers
    are memoized per candidate pool: they depend on a check's include set
    only through a final membership test.  An answer is also memoized
    under its own pool, because the largest admissible set within it is
    itself.
    """

    def __init__(self, query: AdjustmentQuery):
        g = query.graph
        self.x = query.x
        self.y = query.y
        self.cpg = causal_path_graph(g, query.x, query.y)
        self.pool = second_condition_candidates(g, query.x, EMPTY, query.r)
        self.blocking = BlockingSearch(g, query.x, query.y)
        self._answers: dict[VarSet, VarSet | None] = {}

    def intercepts(self, z: VarSet) -> bool:
        return _missed_causal_path(self.cpg, self.x, self.y, z) is None

    def feasible(self, i: VarSet, r: VarSet) -> VarSet | None:
        """The largest admissible set within ``[i, r]`` for ``r`` inside
        the query's ``r``, or None when that interval holds none."""
        pool = r & self.pool
        if not i <= pool:
            return None
        if pool in self._answers:
            answer = self._answers[pool]
        elif not self.intercepts(pool):
            answer = self._answers[pool] = None
        else:
            survivors = self.blocking.survivors(pool)
            answer = survivors if self.intercepts(survivors) else None
            self._answers[pool] = answer
            if answer is not None:
                self._answers[answer] = answer
        return answer if answer is not None and i <= answer else None


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
