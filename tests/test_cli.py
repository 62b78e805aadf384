import json
import os
import pathlib
import subprocess
import sys

import pytest

import frontdoor
from frontdoor.cli import main

INTRO_TEXT = """\
X -> A
A -> B
A -> C
A -> D
A -> Y
C -> Y
D -> Y
X <-> Y
X <-> D
"""

CANON_TEXT = "X -> Z\nZ -> Y\nX <-> Y\n"

INTRO_SETS = "A,B,C\nA,B\nA,C\nA\n"


@pytest.fixture
def intro_file(tmp_path):
    path = tmp_path / "intro.cg"
    path.write_text(INTRO_TEXT)
    return str(path)


@pytest.fixture
def canon_file(tmp_path):
    path = tmp_path / "canon.cg"
    path.write_text(CANON_TEXT)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_find(intro_file, capsys):
    code, out, _ = run(capsys, "find", "-g", intro_file, "-x", "X", "-y", "Y")
    assert code == 0
    assert out == "A,B,C\n"


def test_find_constrained(intro_file, capsys):
    code, out, _ = run(capsys, "find", "-g", intro_file, "-x", "X", "-y", "Y",
                       "-i", "C", "-r", "A,C")
    assert (code, out) == (0, "A,C\n")


def test_find_none(intro_file, capsys):
    code, out, _ = run(capsys, "find", "-g", intro_file, "-x", "X", "-y", "Y", "-i", "D")
    assert (code, out) == (1, "none\n")


def test_find_json(intro_file, capsys):
    code, out, _ = run(capsys, "find", "-g", intro_file, "-x", "X", "-y", "Y",
                       "--format", "json")
    assert code == 0
    assert json.loads(out) == {"set": ["A", "B", "C"]}


def test_find_degenerate_empty(tmp_path, capsys):
    path = tmp_path / "g.cg"
    path.write_text("Y -> X\nW -> Y\nX <-> W\n")
    code, out, err = run(capsys, "find", "-g", str(path), "-x", "X", "-y", "Y")
    assert code == 0
    assert out == "\n"
    assert "degenerate" in err


def test_list(intro_file, capsys):
    code, out, _ = run(capsys, "list", "-g", intro_file, "-x", "X", "-y", "Y")
    assert code == 0
    assert out.splitlines() == ["A,B,C", "A,B", "A,C", "A"]


def test_list_limit_and_json(intro_file, capsys):
    code, out, _ = run(capsys, "list", "-g", intro_file, "-x", "X", "-y", "Y",
                       "--limit", "2", "--format", "json")
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert lines == [
        {"set": ["A", "B", "C"], "index": 0},
        {"set": ["A", "B"], "index": 1},
    ]


def test_list_negative_limit_is_usage_error(intro_file, capsys):
    code, out, err = run(capsys, "list", "-g", intro_file, "-x", "X", "-y", "Y",
                         "--limit", "-1")
    assert (code, out) == (2, "")
    assert "--limit" in err


def test_list_empty_exit(intro_file, capsys):
    code, out, _ = run(capsys, "list", "-g", intro_file, "-x", "X", "-y", "Y", "-i", "D")
    assert (code, out) == (1, "")


def test_check_pass(canon_file, capsys):
    code, out, _ = run(capsys, "check", "-g", canon_file, "-x", "X", "-y", "Y", "-z", "Z")
    assert code == 0
    assert "condition 1 (intercepts all causal paths): PASS" in out
    assert "overall: PASS" in out


def test_check_fail_with_witness(intro_file, capsys):
    code, out, _ = run(capsys, "check", "-g", intro_file, "-x", "X", "-y", "Y", "-z", "B")
    assert code == 1
    assert "overall: FAIL" in out
    assert "witness: X -> A -> Y" in out


def test_check_condition1_pass_with_later_failure(tmp_path, capsys):
    path = tmp_path / "g.cg"
    path.write_text("X -> A\nX -> C\nC -> B\nB -> A\nA -> Y\nB -> Y\n")
    code, out, _ = run(capsys, "check", "-g", str(path), "-x", "X", "-y", "Y", "-z", "A,C")
    assert code == 1
    assert out.splitlines() == [
        "condition 1 (intercepts all causal paths): PASS",
        "condition 2 (no open back-door path into the set): PASS",
        "condition 3 (back-door paths to outcome blocked): FAIL",
        "witness: A <- B -> Y",
        "overall: FAIL",
    ]


def test_estimand(canon_file, capsys):
    code, out, _ = run(capsys, "estimand", "-g", canon_file, "-x", "X", "-y", "Y", "-z", "Z")
    assert code == 0
    assert out == "Σ_z P(z|x) Σ_{x'} P(y|x',z) P(x')\n"


def test_estimand_json(canon_file, capsys):
    code, out, _ = run(capsys, "estimand", "-g", canon_file, "-x", "X", "-y", "Y",
                       "-z", "Z", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert "sum" in obj


def test_estimand_empty_set(canon_file, capsys):
    code, _, err = run(capsys, "estimand", "-g", canon_file, "-x", "X", "-y", "Y", "-z", "")
    assert code == 1
    assert "degenerate" in err


def test_usage_errors(canon_file, intro_file, tmp_path, capsys):
    code, _, _ = run(capsys, "find", "-g", canon_file, "-x", "X")  # missing -y
    assert code == 2
    code, _, err = run(capsys, "find", "-g", canon_file, "-x", "X", "-y", "Nope")
    assert code == 2 and "Nope" in err
    code, _, err = run(capsys, "find", "-g", intro_file, "-x", "X", "-y", "Y", "-r", "X,A")
    assert code == 2 and "error" in err
    bad = tmp_path / "bad.cg"
    bad.write_text("A -> \n")
    code, _, err = run(capsys, "find", "-g", str(bad), "-x", "A", "-y", "B")
    assert code == 2 and "line 1" in err
    code, _, _ = run(capsys, "find", "-g", str(tmp_path / "missing.cg"), "-x", "A", "-y", "B")
    assert code == 2
    # the estimand's own set checks are usage errors too
    for sets in (("-x", "", "-y", "Y", "-z", "Z"),
                 ("-x", "X", "-y", "X", "-z", "Z"),
                 ("-x", "X", "-y", "Y", "-z", "X")):
        code, _, err = run(capsys, "estimand", "-g", canon_file, *sets)
        assert code == 2 and err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ("find",), ("list",), ("check", "-z", "A"), ("estimand", "-z", "A")])
def test_graph_file_not_utf8_is_usage_error(tmp_path, capsys, argv):
    # exit 1 means a valid query without a set, so a file that cannot be
    # decoded is reported as a bad input, not as a traceback
    path = tmp_path / "bad.cg"
    path.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, argv[0], "-g", str(path), "-x", "X", "-y", "Y", *argv[1:])
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot read graph file") and "utf-8" in err


def test_case_collision_rejected(tmp_path, capsys):
    path = tmp_path / "g.cg"
    path.write_text("A -> b\nB -> b2\n")
    code, _, err = run(capsys, "find", "-g", str(path), "-x", "A", "-y", "b")
    assert code == 2
    assert "collide" in err


def test_list_streams_lazily(tmp_path, capsys):
    # with 6561 sets available, a limit of 1 must return almost instantly,
    # which it can only do if lines are emitted before the walk finishes
    import time

    from conftest import chain_family
    from frontdoor.textformat import render_graph_text

    path = tmp_path / "wide.cg"
    path.write_text(render_graph_text(chain_family(8)))
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "list", "-g", str(path), "-x", "X", "-y", "Y",
                       "--limit", "1")
    took = time.perf_counter() - t0
    assert code == 0
    assert len(out.splitlines()) == 1
    assert took < 2.0


def test_default_pool_excludes_endpoints(intro_file, capsys):
    # equivalent to passing -r with everything but X and Y
    code, out, _ = run(capsys, "find", "-g", intro_file, "-x", "X", "-y", "Y",
                       "-r", "A,B,C,D")
    assert (code, out) == (0, "A,B,C\n")


def test_graph_file_with_bom(tmp_path, capsys):
    path = tmp_path / "bom.cg"
    path.write_bytes(b"\xef\xbb\xbf" + CANON_TEXT.encode())
    code, out, _ = run(capsys, "find", "-g", str(path), "-x", "X", "-y", "Y")
    assert (code, out) == (0, "Z\n")


def test_reused_parser_keeps_no_state(intro_file, capsys):
    query = ("-g", intro_file, "-x", "X", "-y", "Y")
    assert run(capsys, "list", *query, "--limit", "1")[:2] == (0, "A,B,C\n")
    assert run(capsys, "list", *query)[:2] == (0, INTRO_SETS)
    code, out, _ = run(capsys, "find", *query, "--format", "json")
    assert (code, json.loads(out)) == (0, {"set": ["A", "B", "C"]})
    assert run(capsys, "find", *query)[:2] == (0, "A,B,C\n")


@pytest.mark.parametrize("argv, code, stream", [
    (("list", "--limit", "1", "-x", "X", "--bogus"), 2, "err"),
    (("list", "--format", "json", "-x", "X"), 2, "err"),
    (("list", "--help"), 0, "out"),
    (("--help",), 0, "out"),
])
def test_reused_parser_after_exit(intro_file, capsys, argv, code, stream):
    got, out, err = run(capsys, *argv)
    assert got == code
    assert "usage: frontdoor" in {"out": out, "err": err}[stream]
    query = ("-g", intro_file, "-x", "X", "-y", "Y")
    assert run(capsys, "list", *query) == (0, INTRO_SETS, "")


def test_module_entry_point_exit_codes(intro_file):
    src = str(pathlib.Path(frontdoor.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    query = ("-g", intro_file, "-x", "X", "-y", "Y")

    def call(*argv):
        return subprocess.run([sys.executable, "-m", "frontdoor.cli", *argv],
                              env=env, capture_output=True, text=True, timeout=60)

    found = call("find", *query)
    assert (found.returncode, found.stdout) == (0, "A,B,C\n")
    none = call("find", *query, "-i", "D")
    assert (none.returncode, none.stdout) == (1, "none\n")
    bad = call("find", *query, "--bogus")
    assert (bad.returncode, bad.stdout) == (2, "")
    assert "unrecognized arguments: --bogus" in bad.stderr
