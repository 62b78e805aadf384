"""Fast self-test of the benchmark's correctness checks.

    python3 bench/selftest.py

Runs one round of every workload on cut-down inputs and requires that
no operation fails other than those marked as a known fault of the
program; then runs it again against a deliberately wrong program (a set
no graph has, streams missing their first set, CLI output swallowed)
and requires that every operation fails.  Exits 0 when both hold for
every workload.  Takes seconds.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import sys
import time

import run
import workloads


def _sabotage(name: str, prog) -> None:
    """Make the program answer wrongly for workload ``name``."""
    if name.startswith("find"):
        prog.search.find_adjustment_set = lambda g, x, y, *a, **k: frozenset({-1})
    elif name.startswith("list"):
        honest = prog.listing.list_adjustment_sets
        prog.listing.list_adjustment_sets = lambda *a, **k: itertools.islice(honest(*a, **k), 1, None)
    else:
        prog.cli.main = lambda argv: 0


def _one_round(name: str, broken: bool) -> run.Tally:
    workload = workloads.make(name, seed=7, root=run.ROOT, small=True)
    try:
        prog = run.load_program(workload.modules)
        if broken:
            _sabotage(name, prog)
        tally = run.Tally()
        with contextlib.redirect_stdout(io.StringIO()):
            run.run_rounds(workload, prog, workload.build(prog), tally, rounds=1)
        return tally
    finally:
        workload.close()


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    ok = True
    for name in workloads.WORKLOADS:
        t0 = time.perf_counter()
        good = _one_round(name, broken=False)
        bad = _one_round(name, broken=True)
        passed = good.unexpected == 0 and bad.failed == bad.attempted > 0
        ok &= passed
        print(f"{'ok  ' if passed else 'FAIL'} {name}: {good.attempted} operations, "
              f"{good.failed} failed ({good.failed - good.unexpected} of them a known "
              f"fault); against a wrong program {bad.failed} of "
              f"{bad.attempted} failed ({time.perf_counter() - t0:.1f} s)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
