"""Child-process launcher that reports each child's own peak memory.

On Linux a child's ``ru_maxrss`` starts at the resident size of the
process that forked it, so children forked by the benchmark, which holds
whole corpora and indexes, would inherit its footprint.  The benchmark
starts this small launcher first, while it is still small itself, and has
it run every child.

Protocol: one JSON request per stdin line,
``{"argv": [...], "stdout": path, "stderr": path, "timeout": seconds}``;
one JSON reply per stdout line, ``{"rc", "wall_s", "maxrss_kb"}``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(request["argv"], stdout=out, stderr=err, stdin=subprocess.DEVNULL)
        watchdog = threading.Timer(request["timeout"], proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "wall_s": wall, "maxrss_kb": usage.ru_maxrss}


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
