"""The host-speed references: fixed pure-Python work, timed on request.

    python3 perfbench/hostref.py

Reads one line per request on stdin, runs each reference task once and
prints their wall times in milliseconds on one stdout line, in the order
of ``TASKS``.  The tasks never change and never touch divsearch:

* ``single`` groups 20,000 small int tuples by their first two fields in a
  dict, then sorts them, the kind of work divsearch itself does (tuples,
  dicts, lists, comparisons), on one thread;
* ``threads`` does the same grouping in small batches handed to a pool of
  two threads, two batches at a time, waiting for both before the next
  pair, as the parallel engine hands out the areas of each intent.

The benchmark host is shared, and its speed drifts by up to ~1.6x over
minutes.  Hand-offs between threads slow down in spells of their own.
The benchmark times both tasks between its operations and scales each
timing by the task's ``REFERENCE_MS`` over the median of that task's
timings nearest to it: ``threads`` for the parallel engine, which runs on
two threads, and ``single`` for every other time.  A run in a slow spell
and a run in a fast one then report alike.  The tasks run in this small
process of their own, so nothing the program does to its own heap changes
the reference.
"""

from __future__ import annotations

import random
import sys
import time
from concurrent.futures import ThreadPoolExecutor

# The times the benchmark scales to: roughly each task's median on the
# reference host (2 vCPUs, Python 3.11.7).
REFERENCE_MS = {"single": 30.0, "threads": 35.0}
BATCH = 500  # tuples per batch handed to a thread

_rng = random.Random(0)
DATA = [tuple(_rng.randrange(50) for _ in range(_rng.randint(3, 6))) for _ in range(20_000)]


def group(rows: list[tuple[int, ...]]) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
    groups: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for row in rows:
        groups.setdefault(row[:2], []).append(row)
    return groups


def single() -> None:
    group(DATA)
    sorted(DATA)


def threads() -> None:
    with ThreadPoolExecutor(max_workers=2) as pool:
        for start in range(0, len(DATA), 2 * BATCH):
            pair = [pool.submit(group, DATA[i : i + BATCH]) for i in (start, start + BATCH)]
            for future in pair:
                future.result()
    sorted(DATA)


TASKS = {"single": single, "threads": threads}


def timed_ms(task) -> float:
    t0 = time.perf_counter()
    task()
    return (time.perf_counter() - t0) * 1000


def main() -> int:
    for task in TASKS.values():  # warm-up
        task()
    for _ in sys.stdin:
        print(" ".join(str(timed_ms(task)) for task in TASKS.values()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
