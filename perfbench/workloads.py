"""The benchmark workloads and the closed loop that runs them.

The benchmark process issues one operation at a time and waits for it to
finish: an engine call or a ``top_features`` probe, served by a
``worker.py`` process that holds the index, or one divsearch command-line
process.  A run sets the index up several times, then runs a fixed number
of whole rounds of the workload's operations, so every run attempts the
same mix and takes the same number of timings.  Between operations it
times the fixed reference tasks of ``hostref.py``; every reported time is
scaled by how fast they ran (see ``Runner.scaled_times``).  Outputs are
checked against the oracles the first time each operation runs and
compared byte for byte on every later run of it.  The benchmark process
itself never imports divsearch.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

from corpora import Corpus, longtail_corpus, skewed_corpus
from hostref import REFERENCE_MS, TASKS
from oracles import MiOracle, check_topk
from tracer import ENGINES, Tracer

HERE = Path(__file__).resolve().parent
FEATURES_M = 20
CHILD_TIMEOUT_S = 150
SETUP_REFERENCES = 3  # reference timings after each set-up
NEAREST_REFERENCES = 4  # reference timings that scale each timing


@dataclass(frozen=True)
class Query:
    terms: tuple[str, ...]
    k: int
    m: int

    @property
    def text(self) -> str:
        return " ".join(self.terms)


def _queries(term_sets: list[str], km: list[tuple[int, int]]) -> tuple[Query, ...]:
    return tuple(Query(tuple(t.split()), k, m) for t in term_sets for k, m in km)


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: Callable[[int], Corpus]
    setups: int  # parse+build+save+load set-ups per run; setup_s is their median
    rounds: int  # whole rounds per run; each operation is timed once a round
    engine_queries: tuple[Query, ...]  # each through all three engines
    # top_features(term, 20) probes, taken in turn before every engine call
    # and search process, probe_calls at a time: many short timings spread
    # over the whole run.
    probes: tuple[str, ...]
    probe_calls: int
    cli_queries: tuple[Query, ...]  # `divsearch search --algo baseline` processes
    # The stop-word probe: this query must equal the same query without "the".
    stopword_probe: Query | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="hub",
            corpus=lambda seed: skewed_corpus(seed, sections=120),
            setups=5,
            rounds=4,
            engine_queries=_queries(["hub0 hub1"], [(5, 5), (10, 20)]) + _queries(["hub1 hub4 hub7"], [(5, 5)]),
            probes=("hub0", "hub4", "ctx07", "ctx33"),
            probe_calls=10,
            cli_queries=2 * _queries(["hub0 hub1"], [(5, 5)]),
            stopword_probe=Query(("hub0", "the", "hub1"), 5, 5),
        ),
        Workload(
            name="longtail",
            corpus=lambda seed: longtail_corpus(seed, sections=320),
            setups=3,
            rounds=3,
            engine_queries=_queries(
                [
                    "t05w004 t05w009", "t09w005 t09w010", "t17w006 t17w011", "t23w003 t23w007",
                    "t36w004 t36w011", "t42w003 t42w008", "t48w006 t48w009", "t61w005 t61w008",
                    "t29w004 t29w007 t29w012", "t55w003 t55w006 t55w010",
                ],
                [(5, 5)],
            ),
            probes=("t05w001", "t33w020", "t50w120", "g001"),
            probe_calls=1,
            cli_queries=_queries(["t05w004 t05w009", "t17w006 t17w011"], [(5, 5)]),
        ),
    )
}


class Spawner:
    """Client side of ``spawner.py``: runs one child process at a time."""

    def __init__(self, proc, workdir: Path) -> None:
        self.proc = proc
        self.workdir = workdir

    def run(self, argv: list[str]) -> tuple[dict, str, str]:
        out, err = self.workdir / "child.out", self.workdir / "child.err"
        request = {"argv": argv, "stdout": str(out), "stderr": str(err), "timeout": CHILD_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return reply, out.read_text(encoding="utf-8"), err.read_text(encoding="utf-8")


class HostRef:
    """Client side of ``hostref.py``: times each reference task once a call."""

    def __init__(self, proc) -> None:
        self.proc = proc

    def time_ms(self) -> dict[str, float]:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return dict(zip(TASKS, map(float, self.proc.stdout.readline().split())))


class Worker:
    """Client side of ``worker.py serve``: one request at a time."""

    def __init__(self, argv: list[str], cwd: Path, env: dict) -> None:
        cmd = [sys.executable, str(HERE / "worker.py"), "serve", *argv]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=cwd, env=env)

    def request(self, op: str, **fields) -> dict:
        self.proc.stdin.write(json.dumps({"op": op, **fields}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker.py exited with code {self.proc.wait()} on {op!r}")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class Runner:
    def __init__(
        self, workload: Workload, seed: int, trace: bool, root: Path, spawner: Spawner, hostref: HostRef, env: dict
    ) -> None:
        self.w = workload
        self.seed = seed
        self.trace = trace
        self.root = root
        self.env = env
        self.spawner = spawner
        self.hostref = hostref
        self.work = spawner.workdir
        self.tracer = Tracer()
        self.samples: dict[str, list[float]] = {}
        # Every timing in the order taken: (metric, operation key, value);
        # the reference tasks' timings are filed under "reference.<task>".
        self.timeline: list[tuple[str, object, float]] = []
        self.faults: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.expected: dict[object, str] = {}
        self.overhead: dict[str, list[float]] = {}

    # -- helpers -------------------------------------------------------------

    def sample(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)

    def record(self, metric: str, key: object, value: float) -> None:
        """One timing of operation ``key``, which the run repeats."""
        self.timeline.append((metric, key, value))

    def time_reference(self, times: int = 1) -> None:
        """Time the reference tasks between two operations."""
        for _ in range(times):
            for task, ms in self.hostref.time_ms().items():
                self.record(f"reference.{task}", None, ms)

    def fault(self, message: str) -> None:
        self.faults.append(message)

    def same_as_first(self, key: object, output: str) -> bool:
        """True on the first output for ``key``; later ones must match it."""
        first = self.expected.setdefault(key, output)
        if first != output:
            self.fault(f"{key}: output differs from its first run")
        return first is output

    def child(self, argv: list[str]) -> tuple[dict, str]:
        """Run `divsearch ARGV` in a child process (traced in trace mode)."""
        if self.trace:
            dump = self.work / "child-trace.json"
            cmd = [sys.executable, str(HERE / "tracer.py"), str(dump), *argv]
        else:
            cmd = [sys.executable, "-m", "divsearch", *argv]
        reply, out, err = self.spawner.run(cmd)
        if reply["rc"] != 0:
            self.fault(f"divsearch {argv[0]} exited {reply['rc']}: {err.strip()[-300:]}")
        elif self.trace:
            self.tracer.merge(json.loads(dump.read_text(encoding="utf-8")))
        return reply, out

    # -- phases --------------------------------------------------------------

    def run(self, seconds: float) -> dict:
        w = self.w
        corpus = w.corpus(self.seed)
        xml_path = self.work / "corpus.xml"
        xml_path.write_bytes(corpus.xml)
        self.postings = corpus.postings()
        self.mi = MiOracle(corpus.entities)
        idx = self.work / "idx"

        self.set_up(corpus, xml_path, idx)
        self.index_bytes = sum(p.stat().st_size for p in idx.iterdir())
        self.worker = Worker(["--index", str(idx)] + (["--trace"] if self.trace else []), self.root, self.env)
        try:
            self.prepare_cli_references()
            started = time.perf_counter()
            for _ in range(w.rounds):
                self.round(idx)
                if time.perf_counter() - started >= seconds:
                    break  # an upper limit only: a run normally takes all its rounds
            if self.trace:
                finished = self.worker.request("finish")
                self.tracer.merge(finished["trace"])
                self.overhead = finished["overhead_ms"]
        finally:
            self.worker.close()
        return self.result()

    def set_up(self, corpus: Corpus, xml_path: Path, idx: Path) -> None:
        # One `divsearch index` process: the shell's write path and its peak memory.
        other = self.work / "idx-cli"
        reply, out = self.child(["index", "--input", str(xml_path), "--entity", corpus.entity_label, "--out", str(other)])
        self.sample("index_peak_rss_mb", reply["maxrss_kb"] / 1024)
        if not out.startswith(f"entities={len(corpus.entities)} "):
            self.fault(f"index reported {out.strip()!r}, generator made {len(corpus.entities)}")
        shutil.rmtree(other, ignore_errors=True)

        dump = self.work / "setup-trace.json"
        for _ in range(self.w.setups):
            shutil.rmtree(idx, ignore_errors=True)
            argv = [sys.executable, str(HERE / "worker.py"), "setup", str(xml_path), corpus.entity_label, str(idx)]
            reply, out, err = self.spawner.run(argv + ([str(dump)] if self.trace else []))
            if reply["rc"] != 0:
                raise RuntimeError(f"worker.py setup exited {reply['rc']}: {err.strip()[-300:]}")
            done = json.loads(out)
            self.record("setup_s", None, done["setup_s"])
            self.time_reference(SETUP_REFERENCES)
            if done["entities"] != len(corpus.entities):
                self.fault(f"index holds {done['entities']} entities, generator made {len(corpus.entities)}")
            if self.trace:
                self.tracer.merge(json.loads(dump.read_text(encoding="utf-8")))

    def prepare_cli_references(self) -> None:
        """Library reports that the search processes must reproduce."""
        self.cli_reference = {}
        for q in dict.fromkeys(self.w.cli_queries):
            reply = self.worker.request(
                "engine", engine="baseline", terms=q.terms, k=q.k, m=q.m, label="baseline", tag="reference", check=True
            )
            for message in check_topk(reply["topk"], q.k, self.postings):
                self.fault(f"{q.text} (k={q.k}, m={q.m}): {message}")
            self.cli_reference[q] = reply["report"]

    def round(self, idx: Path) -> None:
        ops = [partial(self.then_reference, partial(self.engine_op, q, e)) for q in self.w.engine_queries for e in ENGINES]
        searches = self.w.cli_queries
        for j, q in reversed(list(enumerate(searches))):  # spread evenly among the engine calls
            ops.insert((j + 1) * len(ops) // len(searches), partial(self.then_reference, partial(self.search_op, q, idx)))
        for i, op in enumerate(ops):
            self.probe_op(self.w.probes[i % len(self.w.probes)])
            op()
        if self.w.stopword_probe is not None:
            self.stopword_op(self.w.stopword_probe, idx)

    def then_reference(self, op: Callable[[], None]) -> None:
        op()
        self.time_reference()

    def engine_op(self, q: Query, engine: str) -> None:
        self.attempted += 1
        # One label for all engines: their reports must be byte-identical.
        check = q not in self.expected
        reply = self.worker.request("engine", engine=engine, terms=q.terms, k=q.k, m=q.m, label="engine", check=check)
        self.record(f"query_ms.{engine}", q, reply["ms"])
        if self.same_as_first(q, reply["report"]):
            for message in check_topk(reply["topk"], q.k, self.postings):
                self.fault(f"{q.text} (k={q.k}, m={q.m}) {engine}: {message}")

    def probe_op(self, term: str) -> None:
        calls = self.w.probe_calls
        self.attempted += calls
        reply = self.worker.request("features", term=term, m=FEATURES_M, calls=calls)
        for ms in reply["ms"]:
            self.record("features_ms", term, ms)
        if self.same_as_first(("features", term), repr(reply["entries"])):
            self.faults.extend(self.mi.check(term, FEATURES_M, reply["entries"]))

    def search_argv(self, q: Query, idx: Path) -> list[str]:
        return [
            "search", "--index", str(idx), "--query", q.text,
            "--k", str(q.k), "--m", str(q.m), "--algo", "baseline",
        ]

    def search_op(self, q: Query, idx: Path) -> None:
        self.attempted += 1
        reply, out = self.child(self.search_argv(q, idx))
        self.record("cli_search_s", q, reply["wall_s"])
        self.sample("search_peak_rss_mb", reply["maxrss_kb"] / 1024)
        if out.rstrip("\n") != self.cli_reference[q]:
            self.fault(f"divsearch search {q.text!r}: report differs from the library report")

    def stopword_op(self, q: Query, idx: Path) -> None:
        """A stop word inside a query must not change intents or phi."""
        self.attempted += 1
        reply, out = self.child(self.search_argv(q, idx))
        plain = Query(tuple(t for t in q.terms if t != "the"), q.k, q.m)
        want = json.loads(self.cli_reference[plain])
        try:
            got = json.loads(out)
        except json.JSONDecodeError:
            got = {}
        if reply["rc"] != 0 or (got.get("intents"), got.get("phi")) != (want["intents"], want["phi"]):
            self.failed += 1

    def scaled_times(self) -> dict[str, float]:
        """Every time metric, scaled to the reference host speed.

        The shared host runs in spells up to ~1.6x slower, lasting from
        seconds to minutes, and hand-offs between threads slow down in
        spells of their own.  The reference tasks slow with them, so each
        timing is scaled by its task's REFERENCE_MS over the median of that
        task's timings nearest to it in the run: the two-thread task for
        the parallel engine, the single-thread task for everything else.
        A metric is the median of each operation's scaled timings, averaged
        over the workload's fixed mix.
        """
        refs = {
            task: [i for i, (metric, _, _) in enumerate(self.timeline) if metric == f"reference.{task}"]
            for task in TASKS
        }
        by_metric: dict[str, dict[object, list[float]]] = {}
        for i, (metric, key, value) in enumerate(self.timeline):
            if not metric.startswith("reference."):
                task = "threads" if metric == "query_ms.parallel" else "single"
                near = sorted(refs[task], key=lambda j: abs(j - i))[:NEAREST_REFERENCES]
                host_ms = statistics.median(self.timeline[j][2] for j in near)
                by_metric.setdefault(metric, {}).setdefault(key, []).append(value * REFERENCE_MS[task] / host_ms)
        for task, positions in refs.items():
            host_ms = statistics.median(self.timeline[j][2] for j in positions)
            print(f"{self.w.name:9} reference task {task}: median {host_ms:.2f} ms over {len(positions)} timings")
        return {name: statistics.fmean(statistics.median(v) for v in by_key.values()) for name, by_key in by_metric.items()}

    def result(self) -> dict:
        metrics = {}
        if self.trace:
            overhead = {e: statistics.median(v) for e, v in self.overhead.items()}
            metrics.update(self.tracer.per_layer(overhead))
        else:
            for name, values in self.samples.items():  # peak memory
                metrics[name] = statistics.median(values)
            metrics.update(self.scaled_times())
            metrics["index_bytes"] = self.index_bytes
        for message in self.faults:
            print(f"FAULT: {message}", file=sys.stderr)
        return {
            "correct": not self.faults,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }
