"""divsearch benchmark: one command, every workload, end-to-end metrics.

    python3 perfbench/run.py                       # every workload, once
    python3 perfbench/run.py --workload hub --seed 7 --seconds 60 --trace 0
    python3 perfbench/run.py --workload hub --trace 1   # per-layer metrics
    python3 perfbench/run.py --repeat 5 [--workload longtail]  # median, quartiles

Run from the repository root; divsearch is imported from ./src, nothing is
installed.  A single-workload run prints its metrics, then, as the last
line, one JSON object with the keys correct, attempted, failed and metrics.
See perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("hub", "longtail")

END_TO_END = {
    "setup_s": "s",
    "query_ms.baseline": "ms",
    "query_ms.anchor": "ms",
    "query_ms.parallel": "ms",
    "features_ms": "ms",
    "cli_search_s": "s",
    "index_peak_rss_mb": "MB",
    "search_peak_rss_mb": "MB",
    "index_bytes": "bytes",
}


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, help="default: every workload")
    parser.add_argument("--seed", type=int, default=20250804)
    parser.add_argument("--seconds", type=float, default=60.0, help="upper limit on the measuring time of a run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, help="runs per workload, seeds seed..seed+N-1")
    return parser.parse_args(argv)


def run_one(args: argparse.Namespace) -> int:
    """One workload in this process; the result is the last stdout line."""
    src = ROOT / "src"
    if not (src / "divsearch" / "__init__.py").is_file():
        print(f"error: no divsearch sources under {src}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(src))
    # Started before this process loads any corpus: see spawner.py.
    launcher, hostref = (
        subprocess.Popen(
            [sys.executable, str(HERE / script)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
        )
        for script in ("spawner.py", "hostref.py")
    )
    try:
        import workloads

        runner = workloads.Runner(
            workloads.WORKLOADS[args.workload], args.seed, bool(args.trace), ROOT,
            workloads.Spawner(launcher, work), workloads.HostRef(hostref), env,
        )
        result = runner.run(args.seconds)
    finally:
        for proc in (launcher, hostref):
            proc.stdin.close()
            proc.wait(timeout=60)
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only once no other run is using it
        except OSError:
            pass
    units = dict(END_TO_END)
    if args.trace:
        from tracer import per_layer_spec

        units = dict(per_layer_spec())
    result["metrics"] = {
        name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()
    }
    for name, metric in result["metrics"].items():
        print(f"{args.workload:9} {name:40} {metric['value']:>16.6g} {metric['unit']}")
    print(f"{args.workload:9} attempted={result['attempted']} failed={result['failed']} correct={result['correct']}")
    print(json.dumps(result))
    return 0


def child_run(workload: str, seed: int, args: argparse.Namespace) -> dict:
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
    for line in proc.stdout.splitlines()[:-1]:
        print(line)
    return json.loads(proc.stdout.splitlines()[-1])


def run_all(args: argparse.Namespace) -> int:
    """Each chosen workload in a fresh process, once or --repeat times."""
    chosen = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    summary = {}
    for workload in chosen:
        runs = [child_run(workload, args.seed + i, args) for i in range(max(1, args.repeat))]
        summary[workload] = runs
        if args.repeat:
            print(f"\n{workload}: {len(runs)} runs, seeds {args.seed}..{args.seed + len(runs) - 1}")
            print(f"{'metric':40} {'q1':>12} {'median':>12} {'q3':>12} {'iqr/median':>10}")
            for name, metric in runs[0]["metrics"].items():
                values = [r["metrics"][name]["value"] for r in runs]
                q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
                spread = (q3 - q1) / med if med else float("nan")
                print(f"{name:40} {q1:12.6g} {med:12.6g} {q3:12.6g} {spread:10.4f} {metric['unit']}")
            shares = {r["failed"] / r["attempted"] for r in runs}
            print(f"failed/attempted shares: {sorted(shares)}; all correct: {all(r['correct'] for r in runs)}")
    print(json.dumps(summary))
    return 0 if all(r["correct"] for runs in summary.values() for r in runs) else 1


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if args.workload and not args.repeat:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
