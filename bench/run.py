"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; ``frontdoor`` is imported from
its ``src/`` directory and nowhere else.  The run generates the
workload's inputs from the seed, times set-up (importing ``frontdoor``
and building the input graphs) several times, then runs whole rounds of
the workload for about ``S`` seconds, checking every output.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``; ``correct`` is false when an operation
fails that is not marked as a known fault of the program.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the run spends half its time untraced and then repeats as many rounds
traced, and reports the per-layer metrics plus the tracing overhead.  A fuller record goes to
``bench/out/<workload>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import pathlib
import resource
import statistics
import sys
import time
import types
from array import array

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
SETUP_BUDGET_S = 2.0
MIN_ROUNDS = 3

clock = time.perf_counter

END_TO_END = {
    "setup_s": "s",
    "results_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def load_program(modules: tuple[str, ...]) -> types.SimpleNamespace:
    """Import ``frontdoor`` afresh: drop every loaded ``frontdoor`` module
    first, so each call pays the import a new process would pay."""
    for name in [m for m in sys.modules if m == "frontdoor" or m.startswith("frontdoor.")]:
        del sys.modules[name]
    for name in modules:
        importlib.import_module(name)
    pkg = sys.modules["frontdoor"]
    if not pathlib.Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"frontdoor was imported from {pkg.__file__}, not from {SRC}")
    return types.SimpleNamespace(
        graph=sys.modules["frontdoor.graph"],
        search=sys.modules["frontdoor.search"],
        listing=sys.modules["frontdoor.listing"],
        textformat=importlib.import_module("frontdoor.textformat"),
        cli=sys.modules.get("frontdoor.cli"),
    )


def timed_setup(workload) -> tuple[list[float], types.SimpleNamespace, object]:
    """Set-up timed SETUP_REPEATS times, or fewer (at least three) when
    that would take longer than SETUP_BUDGET_S."""
    times = []
    while len(times) < 3 or (len(times) < SETUP_REPEATS and sum(times) < SETUP_BUDGET_S):
        gc.collect()
        t0 = clock()
        prog = load_program(workload.modules)
        built = workload.build(prog)
        times.append(clock() - t0)
    return times, prog, built


class Tally:
    """Counts over all rounds, and per round only a fixed-size summary
    (results per second, median and 90th-percentile delay), so what the
    benchmark holds does not grow with the number of rounds."""

    def __init__(self):
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0  # failed operations not marked as a known fault
        self.busy_s = 0.0
        self.results = 0
        self.per_round: list[tuple[float, float, float]] = []

    def add(self, records) -> None:
        self.rounds += 1
        delays = array("d")
        for rec in records:
            self.attempted += 1
            self.failed += not rec.ok
            self.unexpected += not rec.ok and not rec.known_fault
            delays.extend(rec.delays)
        busy = sum(rec.busy_s for rec in records)
        self.busy_s += busy
        self.results += len(delays)
        self.per_round.append((len(delays) / busy, statistics.median(delays),
                               quantile(delays, 0.90)))

    def typical(self) -> tuple[float, float, float]:
        """The median over the rounds of each per-round figure, so a slow
        spell of the machine during one round moves it little."""
        return tuple(statistics.median(col) for col in zip(*self.per_round))


def run_rounds(workload, prog, built, tally: Tally, *, seconds: float = 0.0,
               rounds: int = MIN_ROUNDS) -> None:
    """At least ``rounds`` whole rounds, and more until ``seconds`` have
    passed; every round after the first runs on freshly built graph
    objects."""
    start = clock()
    done = 0
    while done < rounds or clock() - start < seconds:
        if done and workload.rebuild_each_round:
            built = workload.build(prog)
        tally.add(workload.run_round(prog, built))
        done += 1


def quantile(values: list[float], q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def current_rss_mb() -> float | None:
    """Resident memory now, where the system reports it."""
    try:
        pages = int(pathlib.Path("/proc/self/statm").read_text().split()[1])
    except (OSError, IndexError, ValueError):
        return None
    return pages * resource.getpagesize() / 2**20


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="frontdoor benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "frontdoor" / "__init__.py").is_file():
        print(f"error: no frontdoor sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    rss_start_mb = current_rss_mb()
    t0 = clock()
    workload = workloads.make(args.workload, args.seed, ROOT)
    generate_s = clock() - t0
    try:
        setup_times, prog, built = timed_setup(workload)
        gc.collect()
        untraced = Tally()
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": sys.version.split()[0],
            "generate_s": generate_s, "setup_s_each": setup_times,
            # resident memory with networkx and the benchmark loaded, and
            # again with the inputs generated and the program set up
            "rss_start_mb": rss_start_mb, "rss_before_rounds_mb": current_rss_mb(),
            "inputs": workload.describe(),
        }
        if args.trace:
            import tracing
            run_rounds(workload, prog, built, untraced, seconds=args.seconds / 2, rounds=1)
            tracer = tracing.Tracer(prog)
            tracer.install()
            traced = Tally()
            try:
                run_rounds(workload, prog, workload.build(prog), traced, rounds=untraced.rounds)
            finally:
                tracer.remove()
            overhead = 100.0 * (traced.busy_s / untraced.busy_s - 1.0)
            units = tracing.per_layer_units()
            values = tracer.metrics(traced.rounds, overhead)
            attempted = untraced.attempted + traced.attempted
            failed = untraced.failed + traced.failed
            unexpected = untraced.unexpected + traced.unexpected
            record.update(rounds=untraced.rounds, untraced_busy_s=untraced.busy_s,
                          traced_busy_s=traced.busy_s)
        else:
            run_rounds(workload, prog, built, untraced, seconds=args.seconds)
            per_s, p50, p90 = untraced.typical()
            units = END_TO_END
            values = {
                "setup_s": statistics.median(setup_times),
                "results_per_s": per_s,
                "latency_p50_ms": 1e3 * p50,
                "latency_p90_ms": 1e3 * p90,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            attempted, failed, unexpected = untraced.attempted, untraced.failed, untraced.unexpected
            record.update(rounds=untraced.rounds, results=untraced.results, busy_s=untraced.busy_s)
    finally:
        workload.close()

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    # failures of operations marked as a known fault leave ``correct`` true
    result = {"correct": unexpected == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record["result"] = result
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    (out / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
