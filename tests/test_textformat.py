import codecs
import random
import re

import pytest

from frontdoor import (
    ADMG,
    CyclicGraphError,
    GraphError,
    ParseError,
    PreconditionError,
    SelfLoopError,
    build_graph,
)
from frontdoor.graph import NAME_RE
from frontdoor.separation import causal_path_graph
from frontdoor.textformat import parse_graph_file, parse_graph_text, render_graph_text

from test_acceptance import _scaling_admg


def test_parse_canonical(canon):
    g = parse_graph_text("X -> Z\nZ -> Y\nX <-> Y\n")
    assert g == canon


def test_parse_empty_and_comments():
    g = parse_graph_text("# empty\n\n   # another\n")
    assert len(g.nodes) == 0
    g = parse_graph_text("A -> B  # trailing comment\nnode C\n")
    assert g.names == ("A", "B", "C")


def test_parse_node_statements_fix_order():
    g = parse_graph_text("node Y\nnode X\nX -> Y\n")
    assert g.names == ("Y", "X")
    assert g.directed_edges == {(1, 0)}


def test_parse_duplicate_edges_idempotent():
    g = parse_graph_text("A -> B\nA -> B\nA <-> C\nC <-> A\n")
    assert g.directed_edges == {(0, 1)}
    assert g.bidirected_edges == {(0, 2)}


def test_parse_self_loop():
    with pytest.raises(SelfLoopError) as err:
        parse_graph_text("X -> X\n")
    assert "line 1" in str(err.value)


def test_parse_cycle():
    with pytest.raises(CyclicGraphError):
        parse_graph_text("A -> B\nB -> C\nC -> A\n")


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_graph_text("A -> B\nwhat is this\n")
    assert err.value.line == 2
    with pytest.raises(ParseError) as err:
        parse_graph_text("node 9lives\n")
    assert err.value.line == 1
    assert err.value.column == 6


def test_round_trip(canon, intro):
    for g in (canon, intro):
        assert parse_graph_text(render_graph_text(g)) == g


def test_round_trip_isolated_nodes():
    g = parse_graph_text("node Only\nnode Other\n")
    assert parse_graph_text(render_graph_text(g)) == g


def test_render_rejects_graph_missing_nodes():
    # a derived graph keeps its parent's names but not every node; its text
    # would number the kept nodes from 0, so rendering it is refused
    g = build_graph(["W", "X", "M", "Y"], [("X", "M"), ("M", "Y"), ("W", "Y")], [("X", "Y")])
    cpg = causal_path_graph(g, g.indices(["X"]), g.indices(["Y"]))
    assert cpg.names == ("W", "X", "M", "Y")
    assert cpg.nodes == {1, 2, 3}
    with pytest.raises(PreconditionError, match="keeps 3 of its 4 named nodes"):
        render_graph_text(cpg)
    kept = g.remove_outgoing(g.indices(["M"]))
    assert parse_graph_text(render_graph_text(kept)) == kept


def test_parse_arrows_need_no_spaces():
    g = parse_graph_text("A->B\nA<->C\n")
    assert g.names == ("A", "B", "C")
    assert g.directed_edges == {(0, 1)}
    assert g.bidirected_edges == {(0, 2)}


def test_parse_node_keyword_as_edge_end():
    g = parse_graph_text("node -> A\n")
    assert g.names == ("node", "A")
    assert g.directed_edges == {(0, 1)}


@pytest.mark.parametrize("text, line, column, message", [
    ("A -> 9b\n", 1, 6, "invalid node name '9b'"),
    ("A- -> B\n", 1, 1, "invalid node name 'A-'"),
    ("A -> B\n9x -> C\n9x -> D\n", 2, 1, "invalid node name '9x'"),
    ("A -> B\nB -> 9x\n9x -> C\n", 2, 6, "invalid node name '9x'"),
])
def test_parse_invalid_name_position(text, line, column, message):
    with pytest.raises(ParseError) as err:
        parse_graph_text(text)
    assert (err.value.line, err.value.column, err.value.message) == (line, column, message)


def test_parse_self_loop_on_new_node():
    with pytest.raises(SelfLoopError) as err:
        parse_graph_text("A -> B\nC <-> C\n")
    assert str(err.value) == "line 2: self-loop on 'C'"


def test_parse_crlf_blank_and_comment_lines():
    text = "# header\r\n\r\n  \t\r\nX -> Z\r\nZ -> Y  # mediated\r\n#\r\nX <-> Y\r\n"
    g = parse_graph_text(text)
    assert g == parse_graph_text("X -> Z\nZ -> Y\nX <-> Y\n")


def test_parse_file_ignores_leading_bom(tmp_path):
    text = b"node A\nA -> B\n"
    plain, bom = tmp_path / "plain.cg", tmp_path / "bom.cg"
    plain.write_bytes(text)
    bom.write_bytes(codecs.BOM_UTF8 + text)
    assert parse_graph_file(bom) == parse_graph_file(plain)


@pytest.mark.parametrize("data, line", [
    (b"node A\n" + codecs.BOM_UTF8 + b"A -> B\n", 2),
    (codecs.BOM_UTF8 * 2 + b"node A\n", 1),
])
def test_parse_file_bom_elsewhere_is_error(tmp_path, data, line):
    path = tmp_path / "g.cg"
    path.write_bytes(data)
    with pytest.raises(ParseError) as err:
        parse_graph_file(path)
    assert (err.value.line, err.value.column) == (line, 1)


# The two-regex parser that the single statement regex replaced, kept as
# the reference for the differential test below.
_REF_NODE = re.compile(r"\s*node\s+(\S+)\s*$")
_REF_EDGE = re.compile(r"\s*(\S+?)\s*(<->|->)\s*(\S+?)\s*$")


def _check_name(name, line_no, column):
    if not NAME_RE.match(name):
        raise ParseError(line_no, column, f"invalid node name {name!r}")
    return name


def _reference_parse(text):
    names, seen = [], {}
    directed, bidirected = set(), set()

    def declare(name):
        idx = seen.get(name)
        if idx is None:
            idx = len(names)
            seen[name] = idx
            names.append(name)
        return idx

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        m = _REF_NODE.match(line)
        if m:
            declare(_check_name(m.group(1), line_no, m.start(1) + 1))
            continue
        m = _REF_EDGE.match(line)
        if m:
            left = _check_name(m.group(1), line_no, m.start(1) + 1)
            right = _check_name(m.group(3), line_no, m.start(3) + 1)
            if left == right:
                raise SelfLoopError(f"line {line_no}: self-loop on {left!r}")
            u, v = declare(left), declare(right)
            if m.group(2) == "->":
                directed.add((u, v))
            else:
                bidirected.add((min(u, v), max(u, v)))
            continue
        column = len(line) - len(line.lstrip()) + 1
        raise ParseError(
            line_no, column,
            "expected `node NAME`, `A -> B`, or `A <-> B`",
        )
    return ADMG(names, directed=sorted(directed), bidirected=sorted(bidirected))


_NAMES = ("A", "B", "C", "D", "A", "B", "node", "9x", "A-")
_ARROWS = ("->", "->", "->", "<->", "<->", "-", "<", ">")
_PADS = ("", "", " ", " ", "  ", "\t")
_ENDS = ("\n", "\n", "\r\n", "\r", "\x0c", "#", " # c\n")


def _random_document(rng, names=_NAMES, arrows=_ARROWS, pads=_PADS, ends=_ENDS):
    """One to four lines: mostly node and edge statements with random
    names, arrows and padding, some loose token soup."""
    lines = []
    for _ in range(rng.randint(1, 4)):
        kind = rng.random()
        if kind < 0.15:
            parts = [rng.choice(pads), "node", rng.choice(pads), rng.choice(names)]
        elif kind < 0.9:
            parts = [rng.choice(pads), rng.choice(names), rng.choice(pads),
                     rng.choice(arrows), rng.choice(pads), rng.choice(names)]
        else:
            soup = names + arrows + pads + ends
            parts = [rng.choice(soup) for _ in range(rng.randint(0, 4))]
        lines.append("".join(parts) + rng.choice(pads) + rng.choice(ends))
    return "".join(lines)


def _outcome(parse, text):
    """The error's type and message, or the graph's names, edges, child
    rows (``==`` on graphs skips them) and the index of every name."""
    try:
        g = parse(text)
    except GraphError as exc:
        return type(exc), str(exc)
    return (g.names, sorted(g.directed_edges), sorted(g.bidirected_edges),
            g._children, [g.index_of(name) for name in g.names])


def test_parse_matches_reference_on_random_documents():
    rng = random.Random(1301)
    parsed = 0
    for _ in range(20000):
        text = _random_document(rng)
        got = _outcome(parse_graph_text, text)
        assert got == _outcome(_reference_parse, text), repr(text)
        if len(got) == 5:  # a graph, not an error
            assert got[4] == list(range(len(got[0]))), repr(text)
            parsed += 1
    assert parsed > 2000


# Whitespace that is not ASCII (no-break space, em space, unit separator)
# inside lines, line ends that are not ASCII, and comments glued to names
# and arrows: the parser splits lines on whitespace, and must agree with
# the regex reference on all of these.
_WIDE_NAMES = _NAMES + ("A#", "B#x", "node#", "#A")
_WIDE_ARROWS = _ARROWS + ("->#B", "-#>", "<-#>", "#->")
_WIDE_PADS = _PADS + ("\xa0", "\u2003", "\x1f", " \xa0\t")
_WIDE_ENDS = _ENDS + ("\x85", "\u2028", "\x1f\n", "#\u2028")


def test_parse_matches_reference_on_documents_with_wide_whitespace():
    rng = random.Random(1602)
    parsed = 0
    for _ in range(20000):
        text = _random_document(rng, _WIDE_NAMES, _WIDE_ARROWS, _WIDE_PADS, _WIDE_ENDS)
        got = _outcome(parse_graph_text, text)
        assert got == _outcome(_reference_parse, text), repr(text)
        parsed += len(got) == 5
    assert parsed > 1000


def test_round_trip_at_scale():
    g = _scaling_admg(3200, 1)
    back = parse_graph_text(render_graph_text(g))
    assert back == g
    assert back._children == g._children
    # the rows also iterate in the same order: searches and walks visit
    # neighbours in row order, which picks among equally short witnesses
    for rows in ("_parents", "_children", "_spouses"):
        assert list(map(list, getattr(back, rows))) == list(map(list, getattr(g, rows)))
