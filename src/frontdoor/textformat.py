"""Plain-text graph documents.

One statement per line: ``node NAME`` declares a variable, ``A -> B`` a
directed edge and ``A <-> B`` a bidirected edge.  Arrows need no spaces
around them (``A->B``), and ``node -> A`` is an edge from a node named
``node``.  ``#`` starts a comment that runs to the end of the line.
Nodes may be declared implicitly by first use; repeating an edge is
harmless.  ``parse_graph_file`` ignores a leading UTF-8 byte-order mark.
``parse_graph_text(render_graph_text(g))`` reproduces ``g`` exactly,
node order included.
"""

from __future__ import annotations

import re

from .errors import ParseError, SelfLoopError
from .graph import ADMG, NAME_RE

_STMT = re.compile(r"\s*(?:node\s+(\S+)|(\S+?)\s*(<->|->)\s*(\S+?))\s*$")


def parse_graph_text(text: str) -> ADMG:
    names: list[str] = []
    seen: dict[str, int] = {}
    directed: set[tuple[int, int]] = set()
    bidirected: set[tuple[int, int]] = set()

    def declare(m: re.Match, group: int, line_no: int) -> int:
        """The index of the name in ``group``.  A name is checked against
        ``NAME_RE`` when first seen, and enters ``seen`` only if it passes."""
        name = m.group(group)
        idx = seen.get(name)
        if idx is None:
            if not NAME_RE.match(name):
                raise ParseError(line_no, m.start(group) + 1, f"invalid node name {name!r}")
            idx = seen[name] = len(names)
            names.append(name)
        return idx

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        m = _STMT.match(line)
        if m is None:
            if not line.strip():
                continue
            column = len(line) - len(line.lstrip()) + 1
            raise ParseError(
                line_no, column,
                "expected `node NAME`, `A -> B`, or `A <-> B`",
            )
        if m.group(1) is not None:
            declare(m, 1, line_no)
            continue
        u, v = declare(m, 2, line_no), declare(m, 4, line_no)
        if u == v:
            raise SelfLoopError(f"line {line_no}: self-loop on {names[u]!r}")
        if m.group(3) == "->":
            directed.add((u, v))
        else:
            bidirected.add((min(u, v), max(u, v)))
    return ADMG(names, directed=sorted(directed), bidirected=sorted(bidirected))


def parse_graph_file(path) -> ADMG:
    with open(path, "r", encoding="utf-8-sig") as fh:
        return parse_graph_text(fh.read())


def render_graph_text(g: ADMG) -> str:
    """Canonical text form: explicit node declarations in index order,
    then directed edges, then bidirected edges."""
    lines = [f"node {g.names[v]}" for v in sorted(g.nodes)]
    lines += [f"{g.names[u]} -> {g.names[v]}" for u, v in sorted(g.directed_edges)]
    lines += [f"{g.names[u]} <-> {g.names[v]}" for u, v in sorted(g.bidirected_edges)]
    return "\n".join(lines) + "\n"
