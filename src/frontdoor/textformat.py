"""Plain-text graph documents.

One statement per line: ``node NAME`` declares a variable, ``A -> B`` a
directed edge and ``A <-> B`` a bidirected edge.  Arrows need no spaces
around them (``A->B``), and ``node -> A`` is an edge from a node named
``node``.  ``#`` starts a comment that runs to the end of the line.
Nodes may be declared implicitly by first use; repeating an edge is
harmless.  ``parse_graph_file`` ignores a leading UTF-8 byte-order mark.

A parse is one pass that splits each line, less any comment, on
whitespace.  Three tokens with an arrow in the middle, or two after
``node``, are read straight off; any other line goes to ``_STMT``.  This
is exact: ``\\s`` and ``str.split`` agree on every code point, and
``_STMT``'s groups hold no whitespace, so on such a line its lazy groups
capture exactly those tokens (a shorter first one would leave two tokens
for the last), and an invalid name's column is taken from ``_STMT`` once
the name is rejected.  Each name is checked against ``NAME_RE`` once,
when first seen, and the rows go to the finisher that ends ``ADMG(...)``
(it freezes them and checks acyclicity), so nothing is validated twice.

``parse_graph_text(render_graph_text(g))`` reproduces ``g`` exactly,
node order included, for every graph whose nodes are all the indices of
its names: every parsed or built graph, and ``remove_outgoing`` of one.
``render_graph_text`` refuses a derived graph that keeps fewer nodes.
"""

from __future__ import annotations

import re

from .errors import ParseError, PreconditionError, SelfLoopError
from .graph import ADMG, NAME_RE

_STMT = re.compile(r"\s*(?:node\s+(\S+)|(\S+?)\s*(<->|->)\s*(\S+?))\s*$")


def parse_graph_text(text: str) -> ADMG:
    names: list[str] = []
    seen: dict[str, int] = {}
    parents: list[set[int]] = []
    children: list[set[int]] = []
    spouses: list[set[int]] = []

    def declare(name: str, line: str, group: int, line_no: int) -> int:
        """Index a new name that passes ``NAME_RE``; else raise at its ``_STMT`` group."""
        if not NAME_RE.match(name):
            column = _STMT.match(line).start(group) + 1
            raise ParseError(line_no, column, f"invalid node name {name!r}")
        idx = seen[name] = len(names)
        names.append(name)
        parents.append(set())
        children.append(set())
        spouses.append(set())
        return idx

    for line_no, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line.split("#", 1)[0]
        tokens = line.split()
        if len(tokens) == 3 and tokens[1] in ("->", "<->"):
            name, left, arrow, right = None, *tokens
        elif len(tokens) == 2 and tokens[0] == "node":
            name = tokens[1]
        elif not tokens:
            continue
        else:
            m = _STMT.match(line)
            if m is None:
                column = len(line) - len(line.lstrip()) + 1
                raise ParseError(line_no, column, "expected `node NAME`, `A -> B`, or `A <-> B`")
            name, left, arrow, right = m.groups()
        if name is not None:
            if name not in seen:
                declare(name, line, 1, line_no)
            continue
        u = seen.get(left)
        if u is None:
            u = declare(left, line, 2, line_no)
        v = seen.get(right)
        if v is None:
            v = declare(right, line, 4, line_no)
        if u == v:
            raise SelfLoopError(f"line {line_no}: self-loop on {names[u]!r}")
        if arrow == "->":
            parents[v].add(u)
            children[u].add(v)
        else:
            spouses[u].add(v)
            spouses[v].add(u)
    return ADMG.__new__(ADMG)._finish(tuple(names), seen, parents, children, spouses)


def parse_graph_file(path) -> ADMG:
    with open(path, "r", encoding="utf-8-sig") as fh:
        return parse_graph_text(fh.read())


def render_graph_text(g: ADMG) -> str:
    """Canonical text form: explicit node declarations in index order,
    then directed edges, then bidirected edges.  ``g`` must hold a node
    for every one of its names; a derived graph that keeps fewer (such as
    ``causal_path_graph``'s) raises :class:`PreconditionError`, because
    its text would number the kept nodes afresh from 0."""
    if len(g.nodes) != len(g.names):
        raise PreconditionError(
            f"cannot render a graph that keeps {len(g.nodes)} of its "
            f"{len(g.names)} named nodes: the text would renumber them"
        )
    lines = [f"node {g.names[v]}" for v in sorted(g.nodes)]
    lines += [f"{g.names[u]} -> {g.names[v]}" for u, v in sorted(g.directed_edges)]
    lines += [f"{g.names[u]} <-> {g.names[v]}" for u, v in sorted(g.bidirected_edges)]
    return "\n".join(lines) + "\n"
