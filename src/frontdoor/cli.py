"""Command-line front end.

Subcommands: ``find`` one adjustment set, ``list`` all of them (streamed),
``check`` a candidate set against the three front-door conditions, and
``estimand`` to print the adjustment formula.  Exit codes: 0 success with
output, 1 valid query without a positive answer, 2 usage or input error.

The parsers are built on the first ``main`` call of a process and reused
by every later one; each parse makes a fresh namespace, and help width and
streams are looked up when help is printed.  A call that starts with a
subcommand goes straight to its parser (the top level would only classify
every argument and pass them on), and the top-level parser reports what is
left over, as ``parse_args`` does.  Every other call (no arguments, ``-h``,
an unknown command, an option first) needs the top-level parser.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .errors import GraphError
from .estimand import adjustment_formula, render_json, render_text
from .graph import ADMG, VarSet
from .listing import list_adjustment_sets
from .search import check_criterion, find_adjustment_set
from .textformat import parse_graph_file


class _UsageError(Exception):
    pass


def _load_graph(path: str) -> ADMG:
    try:
        g = parse_graph_file(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"cannot read graph file: {exc}") from exc
    if len({name.lower() for name in g.names}) < len(g.names):
        lowered: dict[str, str] = {}
        for name in g.names:  # names are unique: report the first clash
            clash = lowered.setdefault(name.lower(), name)
            if clash != name:
                raise _UsageError(
                    f"node names {clash!r} and {name!r} collide after lowercasing"
                )
    return g


def _name_list(g: ADMG, text: str | None, flag: str) -> VarSet:
    if text is None or text.strip() == "":
        return frozenset()
    out = set()
    for token in text.split(","):
        name = token.strip()
        if not name:
            raise _UsageError(f"{flag}: empty name in list {text!r}")
        try:
            out.add(g.index_of(name))
        except GraphError as exc:
            raise _UsageError(f"{flag}: {exc}") from exc
    return frozenset(out)


def _parse_query(args, *flags: str) -> tuple:
    """The graph, then the name lists of ``-x``, ``-y`` and ``flags`` in
    that order; an absent ``-r`` stays None (every candidate)."""
    g = _load_graph(args.graph)
    return g, *(
        None if flag == "r" and args.r is None
        else _name_list(g, getattr(args, flag), f"-{flag}")
        for flag in ("x", "y", *flags)
    )


def _format_set(g: ADMG, vs: VarSet) -> str:
    return ",".join(g.names_of(vs))


def _cmd_find(args) -> int:
    g, x, y, i, r = _parse_query(args, "i", "r")
    z = find_adjustment_set(g, x, y, i, r)
    if z is None:
        if args.format == "json":
            print(json.dumps({"set": None}))
        else:
            print("none")
        return 1
    if not z:
        print("degenerate: no causal path from treatment to outcome; "
              "the empty set is trivially valid", file=sys.stderr)
    if args.format == "json":
        print(json.dumps({"set": g.names_of(z)}))
    else:
        print(_format_set(g, z))
    return 0


def _cmd_list(args) -> int:
    if args.limit < 0:
        raise _UsageError(f"--limit must be 0 (unlimited) or more, not {args.limit}")
    g, x, y, i, r = _parse_query(args, "i", "r")
    limit = None if args.limit == 0 else args.limit
    count = 0
    for idx, z in enumerate(list_adjustment_sets(g, x, y, i, r, limit=limit)):
        if args.format == "json":
            print(json.dumps({"set": g.names_of(z), "index": idx}), flush=True)
        else:
            print(_format_set(g, z), flush=True)
        count += 1
    return 0 if count else 1


def _cmd_check(args) -> int:
    g, x, y, z = _parse_query(args, "z")
    report = check_criterion(g, x, y, z)
    verdict = {True: "PASS", False: "FAIL"}
    print(f"condition 1 (intercepts all causal paths): {verdict[report.condition1]}")
    print(f"condition 2 (no open back-door path into the set): {verdict[report.condition2]}")
    print(f"condition 3 (back-door paths to outcome blocked): {verdict[report.condition3]}")
    if report.witness is not None:
        print(f"witness: {report.witness}")
    print(f"overall: {verdict[report.satisfied]}")
    return 0 if report.satisfied else 1


def _cmd_estimand(args) -> int:
    g, x, y, z = _parse_query(args, "z")
    if not z:
        print("degenerate: empty adjustment set has no adjustment formula",
              file=sys.stderr)
        return 1
    try:
        formula = adjustment_formula(g.names_of(x), g.names_of(y), g.names_of(z))
    except ValueError as exc:  # an empty x or y, or overlapping sets
        raise _UsageError(str(exc)) from exc
    if args.format == "json":
        print(render_json(formula))
    else:
        print(render_text(formula))
    return 0


def _add_common(sub, with_ir=False, with_z=False, with_format=True):
    sub.add_argument("-g", "--graph", required=True, help="graph file")
    sub.add_argument("-x", "--treatment", dest="x", required=True,
                     help="treatment variables, comma separated")
    sub.add_argument("-y", "--outcome", dest="y", required=True,
                     help="outcome variables, comma separated")
    if with_ir:
        sub.add_argument("-i", "--include", dest="i", default=None,
                         help="variables the answer must contain")
        sub.add_argument("-r", "--restrict", dest="r", default=None,
                         help="variables the answer may contain "
                              "(default: all but treatment and outcome)")
    if with_z:
        sub.add_argument("-z", "--set", dest="z", required=True,
                         help="candidate adjustment set, comma separated")
    if with_format:
        sub.add_argument("--format", choices=("text", "json"), default="text")


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser and each subcommand's parser by name."""
    parser = argparse.ArgumentParser(
        prog="frontdoor",
        description="Find and enumerate front-door adjustment sets in a causal diagram.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    find = subs.add_parser("find", help="print one adjustment set, or `none`")
    _add_common(find, with_ir=True)
    find.set_defaults(run=_cmd_find)

    lst = subs.add_parser("list", help="stream every adjustment set, one per line")
    _add_common(lst, with_ir=True)
    lst.add_argument("--limit", type=int, default=0,
                     help="stop after this many sets (0 = unlimited)")
    lst.set_defaults(run=_cmd_list)

    check = subs.add_parser("check", help="report the three front-door conditions for a set")
    _add_common(check, with_z=True, with_format=False)
    check.set_defaults(run=_cmd_check)

    est = subs.add_parser("estimand", help="print the adjustment formula for a set")
    _add_common(est, with_z=True)
    est.set_defaults(run=_cmd_estimand)
    return parser, subs.choices


def main(argv=None) -> int:
    parser, commands = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        if argv and argv[0] in commands:
            args, extra = commands[argv[0]].parse_known_args(argv[1:])
            if extra:
                parser.error(f"unrecognized arguments: {' '.join(extra)}")
        else:
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.run(args)
    except (_UsageError, GraphError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
