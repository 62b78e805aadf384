"""The benchmark's five workloads.

A workload draws its inputs from a seed when it is constructed, and
works out every expected output there with :mod:`nxcheck` or from the
committed brute-force corpus, never with ``frontdoor``.  It then runs in
rounds: ``build`` makes fresh graph objects through the program's public
API, and ``run_round`` times each operation on them and checks its
output.  The first output for an input gets the full check; later rounds
must reproduce it exactly.  List outputs are checked as they stream and
kept only as a count and a hash, so the benchmark holds no output while
the program runs.

Calls into the program go through module attributes looked up at call
time (``prog.search.find_adjustment_set``), so that the traced run's
wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import os
import pathlib
import random
import shutil
import time
from array import array
from dataclasses import dataclass, field

from generators import RawGraph, chain_graph, parse_cg, scaling_graph, sparse_graph

clock = time.perf_counter


@dataclass
class OpRecord:
    """One operation: whether its output passed, the time spent inside
    the program, and the wait for each result it delivered.
    ``known_fault`` marks an operation that a known fault of the program
    makes fail on every run (see :class:`Cli`)."""

    ok: bool
    busy_s: float
    delays: array = field(default_factory=lambda: array("d"))
    known_fault: bool = False


_FAILED = object()


class Workload:
    name = ""
    modules: tuple[str, ...] = ("frontdoor",)
    # whether ``run_round`` uses the graphs ``build`` returns, so that
    # every round needs fresh ones
    rebuild_each_round = True

    def __init__(self):
        # what the first output for each input left to compare later
        # outputs with, or _FAILED when it failed its check
        self._seen: dict[int, object] = {}

    def build(self, prog):
        raise NotImplementedError

    def run_round(self, prog, built) -> list[OpRecord]:
        raise NotImplementedError

    def describe(self) -> dict:
        return {}

    def close(self) -> None:
        pass


def _rank_key(order: list[int]):
    """Sort key of a set by its membership vector along ``order``, most
    significant first; include-first enumeration emits these keys in
    strictly decreasing order."""
    weight = {v: 1 << (len(order) - 1 - k) for k, v in enumerate(order)}
    return lambda z: sum(weight[v] for v in z)


# -- find ------------------------------------------------------------------


@dataclass(frozen=True)
class FindQuery:
    raw: RawGraph
    x: int
    y: int
    expected: frozenset | None
    pool: frozenset


class FindWorkload(Workload):
    """``find_adjustment_set`` on scaling-family graphs, one query each."""

    def __init__(self, seed: int, *, count: int, n: int, x: int, y: int, answer: bool,
                 pool_sizes: list[int] | None = None):
        """``count`` queries; with ``pool_sizes``, one query per listed
        stage-1 pool size, so that every seed gets the same mix."""
        super().__init__()
        rng = random.Random(f"{self.name}-{seed}")
        wanted = list(pool_sizes) if pool_sizes else None
        queries = []
        tries = 0
        while len(queries) < count:
            tries += 1
            if tries > 200 * count:
                raise RuntimeError(f"{self.name}: generator found too few inputs")
            raw = scaling_graph(rng, n)
            dag = raw.dag()
            r = frozenset(range(n)) - {x, y}
            pool = dag.pool(x, r)
            if wanted is not None and len(pool) not in wanted:
                continue
            missed = dag.causal_path_avoiding(x, y, pool)
            if answer:
                if missed is not None:
                    continue
                best, _ = dag.largest_admissible(x, y, r)
                if best is None:
                    continue
                if not (dag.admissible(x, y, best) and dag.is_locally_maximal(x, y, best, r)):
                    raise AssertionError("networkx fixed point is not admissible and maximal")
                queries.append(FindQuery(raw, x, y, best, pool))
            elif missed is not None:
                # certificate for None: a causal path whose every inner
                # node has an open back-door path from x, so no set
                # meeting condition 2 can intercept it
                if not all(dag.back_door_open(x, v) for v in missed[1:-1]):
                    raise AssertionError("networkx certificate does not hold")
                queries.append(FindQuery(raw, x, y, None, pool))
            else:
                continue
            if wanted is not None:
                wanted.remove(len(pool))
        self.queries = queries
        self.tries = tries

    def build(self, prog):
        return [q.raw.build(prog.graph) for q in self.queries]

    def run_round(self, prog, built) -> list[OpRecord]:
        out = []
        for q, g in zip(self.queries, built):
            x, y = frozenset((q.x,)), frozenset((q.y,))
            t0 = clock()
            z = prog.search.find_adjustment_set(g, x, y)
            dt = clock() - t0
            out.append(OpRecord(z == q.expected, dt, array("d", (dt,))))
        return out

    def describe(self) -> dict:
        return {
            "graphs": len(self.queries),
            "generated": self.tries,
            "n": self.queries[0].raw.n,
            "pool_sizes": [len(q.pool) for q in self.queries],
            "answer_sizes": [None if q.expected is None else len(q.expected)
                             for q in self.queries],
        }


class FindStage2(FindWorkload):
    name = "find-stage2"

    def __init__(self, seed: int, small: bool = False):
        n = 40 if small else 80
        super().__init__(seed, count=3 if small else 12, n=n, x=0, y=3 * n // 4,
                         answer=True)


class FindReject(FindWorkload):
    name = "find-reject"

    def __init__(self, seed: int, small: bool = False):
        n = 60 if small else 100
        sizes = list(range(n // 4, n // 4 + 3)) if small else 2 * list(range(n // 4, n // 4 + 16))
        super().__init__(seed, count=len(sizes), n=n, x=1, y=3 * n // 4,
                         answer=False, pool_sizes=sizes)


# -- list ------------------------------------------------------------------


class ListWorkload(Workload):
    """Streams from ``list_adjustment_sets``; one operation is one call,
    drained up to ``limit``.  Each set's delay is the time spent inside
    the stream from the previous set (or from the call, which does the
    stream's set-up) to its arrival; ``busy_s`` also counts the last
    step that ends the stream.

    The first drain of an input gets the full check, set by set as the
    sets arrive: ``set_ok`` on each set, a strictly decreasing ``rank``
    (include-first order, which also makes the sets distinct), and
    ``count_ok`` at the end.  Later drains must give the same count and
    the same hash of the sequence."""

    limit: int | None = None

    def rank(self, key: int):
        raise NotImplementedError

    def set_ok(self, key: int, index: int, z) -> bool:
        raise NotImplementedError

    def count_ok(self, key: int, count: int) -> bool:
        raise NotImplementedError

    def run_round(self, prog, built) -> list[OpRecord]:
        out = []
        for key, (g, x, y) in enumerate(built):
            first = self._seen.get(key)
            rank = self.rank(key) if first is None else None
            ok, count, digest, last = True, 0, 0, None
            delays = array("d")
            t = clock()
            for z in prog.listing.list_adjustment_sets(g, x, y, limit=self.limit):
                delays.append(clock() - t)
                digest = hash((digest, z))
                if rank is not None and ok:
                    r = rank(z)
                    ok = (last is None or r < last) and self.set_ok(key, count, z)
                    last = r
                count += 1
                t = clock()
            busy = sum(delays) + (clock() - t)
            if first is None:
                ok = self.count_ok(key, count) and ok
                self._seen[key] = (count, digest) if ok else _FAILED
            else:
                ok = (count, digest) == first
            out.append(OpRecord(ok, busy, delays))
        return out


class ListChain(ListWorkload):
    name = "list-chain"

    def __init__(self, seed: int, small: bool = False):
        super().__init__()
        self.k = 5 if small else 10
        self.raw = chain_graph(random.Random(f"{self.name}-{seed}"), self.k)
        pos = {name: i for i, name in enumerate(self.raw.names)}
        self.x, self.y = pos["X"], pos["Y"]
        self.pairs = [frozenset((pos[f"A{c}"], pos[f"B{c}"])) for c in range(1, self.k + 1)]
        self.allowed = frozenset().union(*self.pairs)
        self.key = _rank_key(sorted(set(range(self.raw.n)) - {self.x, self.y}))

    def build(self, prog):
        return [(self.raw.build(prog.graph), frozenset((self.x,)), frozenset((self.y,)))]

    def rank(self, key: int):
        return self.key

    def set_ok(self, key: int, index: int, z) -> bool:
        # a set is admissible iff it takes at least one of {Ai, Bi} from
        # every chain and nothing else
        return z <= self.allowed and all(z & p for p in self.pairs)

    def count_ok(self, key: int, count: int) -> bool:
        return count == 3 ** self.k

    def describe(self) -> dict:
        return {"k": self.k, "sets": 3 ** self.k, "declaration": list(self.raw.names)}


@dataclass(frozen=True)
class ListQuery:
    raw: RawGraph
    x: int
    y: int
    best: frozenset
    pool: frozenset


class ListRandom(ListWorkload):
    name = "list-random"

    def __init__(self, seed: int, small: bool = False):
        super().__init__()
        rng = random.Random(f"{self.name}-{seed}")
        n = 30 if small else 40
        count = 3 if small else 200
        self.limit = 10 if small else 20
        self.queries = []
        self.tries = 0
        self._dags = {}
        while len(self.queries) < count:
            self.tries += 1
            if self.tries > 200 * count:
                raise RuntimeError(f"{self.name}: generator found too few inputs")
            raw, order = sparse_graph(rng, n, 1.6, 10)
            x = rng.choice(order[: n // 3])
            dag = raw.dag()
            late = set(order[2 * n // 3:])
            targets = sorted(v for v in dag.descendants(x) if v in late)
            if not targets:
                continue
            y = rng.choice(targets)
            r = frozenset(range(n)) - {x, y}
            best, pool = dag.largest_admissible(x, y, r)
            if best is None or not 2 * n // 3 <= len(best) <= 9 * n // 10:
                continue
            self._dags[len(self.queries)] = dag
            self.queries.append(ListQuery(raw, x, y, best, pool))

    def build(self, prog):
        return [(q.raw.build(prog.graph), frozenset((q.x,)), frozenset((q.y,)))
                for q in self.queries]

    def rank(self, key: int):
        q = self.queries[key]
        return _rank_key(sorted(set(range(q.raw.n)) - {q.x, q.y}))

    def set_ok(self, key: int, index: int, z) -> bool:
        # include-first order starts at the largest admissible set; every
        # set must lie in the networkx pool (which gives condition 2) and
        # meet conditions 1 and 3
        q = self.queries[key]
        dag = self._dags[key]
        return (
            (index > 0 or z == q.best)
            and z <= q.pool
            and dag.causal_path_avoiding(q.x, q.y, z) is None
            and dag.blocks_back_door(q.x, q.y, z)
        )

    def count_ok(self, key: int, count: int) -> bool:
        del self._dags[key]  # only the first drain needs it
        return 0 < count <= self.limit

    def describe(self) -> dict:
        return {
            "graphs": len(self.queries),
            "generated": self.tries,
            "n": self.queries[0].raw.n,
            "limit": self.limit,
            "pool_sizes": [len(q.pool) for q in self.queries],
            "largest_set_sizes": [len(q.best) for q in self.queries],
        }


# -- cli -------------------------------------------------------------------


def _subscript(text: str) -> str:
    return text if len(text) == 1 else "{" + text + "}"


def closed_form(xs: list[str], ys: list[str], zs: list[str]) -> str:
    """``Σ_z P(z|x) Σ_{x'} P(y|x',z) P(x')`` in the documented text syntax:
    lowercased names, primed treatment copies, braces around subscripts
    longer than one character."""
    x = ",".join(v.lower() for v in xs)
    xp = ",".join(v.lower() + "'" for v in xs)
    y = ",".join(v.lower() for v in ys)
    z = ",".join(v.lower() for v in zs)
    return f"Σ_{_subscript(z)} P({z}|{x}) Σ_{_subscript(xp)} P({y}|{xp},{z}) P({xp})"


_CONDITION_LINES = (
    "condition 1 (intercepts all causal paths): ",
    "condition 2 (no open back-door path into the set): ",
    "condition 3 (back-door paths to outcome blocked): ",
)


def _check_lines(conditions) -> tuple[int, list[str]]:
    verdict = {True: "PASS", False: "FAIL"}
    lines = [head + verdict[c] for head, c in zip(_CONDITION_LINES, conditions)]
    if not all(conditions):
        lines.append("witness: *")
    lines.append("overall: " + verdict[all(conditions)])
    return (0 if all(conditions) else 1), lines


@dataclass(frozen=True)
class CliCall:
    argv: tuple[str, ...]
    code: int
    lines: tuple[str, ...]   # expected stdout lines; "witness: *" matches any witness
    known_fault: bool = False


class Cli(Workload):
    """``frontdoor.cli.main`` called in-process on the committed corpus
    and on large graphs written to a scratch directory.

    The large ``check`` calls are the same for every seed: their graphs
    and sets come from a fixed generator and are kept as drawn.  On some
    of them ``check_criterion`` misreports condition 1 (it tests it as
    d-separation in the causal path graph, where an intercepting set can
    open a collider).  Those calls are marked ``known_fault`` when
    generated; they fail on every run, and the same number on every seed.
    """

    name = "cli"
    modules = ("frontdoor", "frontdoor.cli")
    # every call parses its own input, so graphs are fresh on every call
    rebuild_each_round = False

    def __init__(self, seed: int, root: pathlib.Path, small: bool = False):
        super().__init__()
        rng = random.Random(f"{self.name}-{seed}")
        corpus = root / "tests" / "corpus"
        ids = range(20) if small else range(200)
        self.files: list[pathlib.Path] = []
        calls: list[CliCall] = []
        for gid in ids:
            path = corpus / f"{gid:03d}.cg"
            raw = parse_cg(path.read_text())
            calls += self._corpus_calls(rng, raw, str(path),
                                        (corpus / f"{gid:03d}.expected").read_text())
            self.files.append(path)
        sizes = (200, 300) if small else (200, 300, 400, 500, 600, 700, 800)
        large = len(calls) // 19
        self.work = root / "bench" / "out" / f"work-{seed}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        fixed = random.Random(f"{self.name}-large")
        try:
            for k in range(large):
                calls.append(self._large_check(fixed, sizes[k % len(sizes)], k))
        except BaseException:
            self.close()
            raise
        rng.shuffle(calls)
        self.calls = calls
        self.large = large
        self.known_faults = sum(c.known_fault for c in calls)

    def _corpus_calls(self, rng, raw: RawGraph, path: str, expected: str) -> list[CliCall]:
        head, *family_lines = expected.splitlines()
        fields = dict(item.split("=", 1) for item in head.split()[1:])
        index = {name: i for i, name in enumerate(raw.names)}

        def ids(text: str) -> frozenset:
            return frozenset(index[v] for v in text.split(",") if v and v != "-")

        def names(vs) -> str:
            return ",".join(raw.names[v] for v in sorted(vs))

        x, y, i, r = ids(fields["x"]), ids(fields["y"]), ids(fields["i"]), ids(fields["r"])
        family = [ids(line) for line in family_lines]
        query = ("-g", path, "-x", fields["x"], "-y", fields["y"],
                 "-i", fields["i"], "-r", fields["r"])
        order = sorted(r)
        key = _rank_key(order)
        calls = []
        if family:
            union = frozenset().union(*family)
            calls.append(CliCall(("find", *query), 0, (names(union),)))
            listed = sorted(family, key=key, reverse=True)
            calls.append(CliCall(("list", *query), 0, tuple(names(z) for z in listed)))
        else:
            calls.append(CliCall(("find", *query), 1, ("none",)))
            calls.append(CliCall(("list", *query), 1, ()))

        if family and rng.random() < 0.5:
            z = rng.choice(family)
        else:
            z = i | frozenset(v for v in order if rng.random() < 0.5)
        dag = raw.dag()
        (xv,), (yv,) = x, y
        conditions = dag.conditions(xv, yv, z)
        if all(conditions) != (z in family):
            raise AssertionError(f"{path}: networkx and the corpus disagree on {names(z)}")
        code, lines = _check_lines(conditions)
        calls.append(CliCall(("check", "-g", path, "-x", fields["x"], "-y", fields["y"],
                              "-z", names(z)), code, tuple(lines)))

        nonempty = [z for z in family if z]
        others = sorted(set(range(raw.n)) - x - y)
        z = rng.choice(nonempty) if nonempty else frozenset(rng.sample(others, 1 + rng.randrange(len(others))))
        text = closed_form([raw.names[v] for v in sorted(x)], [raw.names[v] for v in sorted(y)],
                           [raw.names[v] for v in sorted(z)])
        calls.append(CliCall(("estimand", "-g", path, "-x", fields["x"], "-y", fields["y"],
                              "-z", names(z)), 0, (text,)))
        return calls

    def _large_check(self, rng, n: int, k: int) -> CliCall:
        raw = scaling_graph(rng, n)
        dag = raw.dag()
        x, y = 1, 3 * n // 4
        z = frozenset(rng.sample(sorted(set(range(n)) - {x, y}), n // 2))
        conditions = dag.conditions(x, y, z)
        path = self.work / f"large-{k:02d}-{n}.cg"
        path.write_text(raw.render())
        self.files.append(path)
        code, lines = _check_lines(conditions)
        zs = ",".join(raw.names[v] for v in sorted(z))
        return CliCall(("check", "-g", str(path), "-x", raw.names[x], "-y", raw.names[y],
                        "-z", zs), code, tuple(lines),
                       known_fault=conditions[0] != dag.causal_path_graph_separates(x, y, z))

    def build(self, prog):
        # set-up parses each file once; the calls parse their own input
        for p in self.files:
            prog.textformat.parse_graph_file(p)

    def run_round(self, prog, built) -> list[OpRecord]:
        out = []
        for key, call in enumerate(self.calls):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                t0 = clock()
                code = prog.cli.main(list(call.argv))
                dt = clock() - t0
            out.append(OpRecord(self.verified(key, (code, stdout.getvalue())), dt,
                                array("d", (dt,)), call.known_fault))
        return out

    def verified(self, key: int, output) -> bool:
        """The full check the first time call ``key`` answers; after
        that, the output must equal the first one."""
        first = self._seen.get(key)
        if first is None:
            ok = self.check(key, output)
            self._seen[key] = output if ok else _FAILED
            return ok
        return output == first

    def check(self, key: int, output: tuple) -> bool:
        call = self.calls[key]
        code, text = output
        got = text.splitlines()
        return code == call.code and len(got) == len(call.lines) and all(
            g.startswith("witness: ") if want == "witness: *" else g == want
            for g, want in zip(got, call.lines))

    def describe(self) -> dict:
        kinds: dict[str, int] = {}
        for c in self.calls:
            kinds[c.argv[0]] = kinds.get(c.argv[0], 0) + 1
        return {"calls": len(self.calls), "by_command": kinds, "large_checks": self.large,
                "known_faults": self.known_faults}

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


WORKLOADS = {
    "find-stage2": FindStage2,
    "find-reject": FindReject,
    "list-chain": ListChain,
    "list-random": ListRandom,
    "cli": Cli,
}


def make(name: str, seed: int, root: pathlib.Path, small: bool = False) -> Workload:
    cls = WORKLOADS[name]
    if cls is Cli:
        return Cli(seed, root, small)
    return cls(seed, small)
