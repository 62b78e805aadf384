"""d-separation testing and causal path graphs.

``is_separated`` runs a linear-time reachability search over states
``(node, direction of entry)`` instead of enumerating paths: a junction at
a node is a collider exactly when both touching edge ends carry
arrowheads, and the search crosses it only when the d-separation rules
leave it open.  ``connecting_path`` exposes the witness path the same
search finds, and ``reachable`` returns every node the search reaches
when it runs to the end, which answers a d-separation question for each
node at once.  ``blocking_survivors`` runs the same search while cutting
the outgoing edges of a shrinking set, for the front-door criterion's
stage 2.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from .errors import OverlappingSetsError, PreconditionError
from .graph import ADMG, EMPTY, VarSet

_TAIL, _HEAD = 0, 1


def _search(g: ADMG, a: VarSet, b: VarSet, c: VarSet):
    """Breadth-first search for open paths from ``a`` given ``c``.

    Returns ``(pred, hit)``: ``pred`` maps each reached state to the state
    and edge symbol (``->``, ``<-``, ``<->``) it was reached by (None for
    the start states in ``a``), and ``hit`` is the first state reached in
    ``b``, or None once the search has run to the end.
    """
    anc_c = g.ancestors(c)
    pred: dict[tuple[int, int], tuple[tuple[int, int], str] | None] = {}
    queue: deque[tuple[int, int]] = deque()
    for s in sorted(a):
        state = (s, _TAIL)
        pred[state] = None
        queue.append(state)

    def push(state, frm, kind):
        if state in pred:
            return None
        pred[state] = (frm, kind)
        if state[0] in b:
            return state
        queue.append(state)
        return None

    while queue:
        v, mark = queue.popleft()
        frm = (v, mark)
        # Leaving through a tail (v -> w) never makes v a collider;
        # leaving through a head (v <- w, v <-> w) does iff we entered
        # through a head, and open colliders must be ancestors of c.
        tail_open = v not in c
        head_open = (v in anc_c) if mark == _HEAD else (v not in c)
        hit = None
        if tail_open:
            for w in g.children_of(v):
                hit = push((w, _HEAD), frm, "->")
                if hit:
                    break
        if hit is None and head_open:
            for w in g.parents_of(v):
                hit = push((w, _TAIL), frm, "<-")
                if hit:
                    break
            if hit is None:
                for w in g.spouses_of(v):
                    hit = push((w, _HEAD), frm, "<->")
                    if hit:
                        break
        if hit:
            return pred, hit
    return pred, None


def _separation_query(g: ADMG, a, b, c) -> tuple[VarSet, VarSet, VarSet]:
    a = g.check_vars(a)
    b = g.check_vars(b)
    # Conditioning sets may mention nodes outside this graph (a caller can
    # hold one VarSet across derived graphs); absent nodes block nothing.
    c = frozenset(c) & g.nodes
    if not a or not b:
        raise PreconditionError("both endpoint sets must be nonempty")
    if a & b or a & c or b & c:
        raise OverlappingSetsError("endpoint and conditioning sets must be disjoint")
    return a, b, c


def is_separated(g: ADMG, a: Iterable[int], b: Iterable[int], c: Iterable[int]) -> bool:
    """True iff ``c`` d-separates ``a`` from ``b`` in ``g``."""
    a, b, c = _separation_query(g, a, b, c)
    return _search(g, a, b, c)[1] is None


def connecting_path(g: ADMG, a, b, c):
    """One open path from ``a`` to ``b`` given ``c`` as ``(nodes, kinds)``,
    where ``kinds[i]`` is the edge symbol between ``nodes[i]`` and
    ``nodes[i+1]``, or None when the sets are separated."""
    a, b, c = _separation_query(g, a, b, c)
    pred, hit = _search(g, a, b, c)
    if hit is None:
        return None
    nodes, kinds = [hit[0]], []
    link = pred[hit]
    while link is not None:
        state, kind = link
        nodes.append(state[0])
        kinds.append(kind)
        link = pred[state]
    nodes.reverse()
    kinds.reverse()
    return nodes, kinds


def reachable(g: ADMG, a: Iterable[int], c: Iterable[int]) -> VarSet:
    """Every node outside ``c`` joined to ``a`` by a path open given ``c``
    in ``g``, ``a`` itself included (Shachter's Bayes-ball reachable set).

    A node ``w`` outside ``a`` and ``c`` is in the result exactly when
    ``is_separated(g, a, {w}, c)`` is false; one search answers every
    ``w`` at once.
    """
    a = g.check_vars(a)
    c = frozenset(c) & g.nodes
    if a & c:
        raise OverlappingSetsError("endpoint and conditioning sets must be disjoint")
    pred, _ = _search(g, a, EMPTY, c)
    return frozenset(v for v, _ in pred) - c


def blocking_survivors(g: ADMG, x: VarSet, y: VarSet, pool: VarSet) -> VarSet:
    """The largest subset ``z`` of ``pool`` that no path open given ``x``
    joins to ``y`` once the outgoing edges of ``z`` are cut.

    This is the greatest fixed point of dropping the members that
    ``reachable`` from ``y`` given ``x`` finds in the graph cut at the
    remaining pool, computed by one search that carries on instead of
    restarting.  The search runs in ``g`` with the pool's outgoing edges
    cut, with ``_search``'s states and exit rules, and drops a member
    when one of its states is first dequeued.  A drop only adds edges
    (the member's outgoing ones) and only grows the ancestors of ``x``,
    so what has been reached stays reached; the drop expands only the
    exits it opens:

    - the member leaves through its tail to each child;
    - a child's state already seen with its parent exits open now also
      leaves to the member;
    - when a child is an ancestor of ``x``, the member and its uncut
      ancestors become ones too, and every head-entered state of those
      that was expanded with its collider exit shut now leaves through it.

    Each state is expanded once, plus once more through its collider exit,
    so the pass is linear in the size of ``g``; no graph is copied.
    """
    cut = set(pool)
    anc: set[int] = set()
    shut: set[int] = set()  # nodes whose head-entered state left no collider exit
    seen: set[tuple[int, int]] = set()
    queue: deque[tuple[int, int]] = deque()

    def push(state):
        if state not in seen:
            seen.add(state)
            queue.append(state)

    def leave_by_head(v):
        for p in g.parents_of(v):
            if p not in cut:
                push((p, _TAIL))
        for s in g.spouses_of(v):
            push((s, _HEAD))

    def add_ancestors(vs):
        todo = [v for v in vs if v not in anc]
        anc.update(todo)
        while todo:
            v = todo.pop()
            if v in shut:
                leave_by_head(v)
            for p in g.parents_of(v):
                if p not in cut and p not in anc:
                    anc.add(p)
                    todo.append(p)

    add_ancestors(x)
    for s in sorted(y):
        push((s, _TAIL))
    while queue:
        v, mark = queue.popleft()
        children = g.children_of(v)
        if v in cut:
            cut.discard(v)
            if not anc.isdisjoint(children):
                add_ancestors((v,))
            if any(((w, _TAIL) in seen and w not in x) or ((w, _HEAD) in seen and w in anc)
                   for w in children):
                push((v, _TAIL))
        # as in _search: x blocks every exit but a collider's, and a
        # collider exit needs an ancestor of x
        if v in x:
            if mark == _HEAD:
                leave_by_head(v)
            continue
        for w in children:
            push((w, _HEAD))
        if mark == _TAIL or v in anc:
            leave_by_head(v)
        else:
            shut.add(v)
    return frozenset(cut)


def format_path(g: ADMG, path) -> str:
    nodes, kinds = path
    out = [g.names[nodes[0]]]
    for kind, v in zip(kinds, nodes[1:]):
        out.append(kind)
        out.append(g.names[v])
    return " ".join(out)


def proper_causal_path_nodes(g: ADMG, x: Iterable[int], y: Iterable[int]) -> VarSet:
    """Variables lying on proper causal paths from ``x`` to ``y``:
    descendants of ``x`` once edges into ``x`` are gone, intersected with
    ancestors of ``y`` once edges out of ``x`` are gone."""
    x = g.check_vars(x)
    y = g.check_vars(y)
    if x & y:
        raise OverlappingSetsError("x and y must be disjoint")
    downstream = g.remove_incoming(x).descendants(x) - x
    upstream = g.remove_outgoing(x).ancestors(y)
    return downstream & upstream


def causal_path_graph(g: ADMG, x: Iterable[int], y: Iterable[int]) -> ADMG:
    """Graph containing all and only the proper causal paths from ``x`` to
    ``y``: restrict to the path variables, cut edges into ``x`` and out of
    ``y``, and drop what is left of the bidirected part."""
    x = g.check_vars(x)
    y = g.check_vars(y)
    keep = x | y | proper_causal_path_nodes(g, x, y)
    sub = g.induced_subgraph(keep)
    return sub.remove_incoming(x).remove_outgoing(y).drop_bidirected()
