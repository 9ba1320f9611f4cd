"""Run and time child processes on behalf of run.py.

    python launcher.py

Linux counts the memory high-water mark of the process that spawns a
child into the child's reported peak RSS. run.py holds generated inputs in
memory, so it starts this small process first and has it spawn every
measured invocation; the floor that leaks into each child's peak RSS is
then this process's few megabytes, not the benchmark's.

One JSON request per stdin line:
``{"cmd": [...], "stdout": path, "stderr": path, "timeout": seconds}``;
one JSON reply per stdout line:
``{"wall_s": ..., "peak_rss_mb": ..., "returncode": ...}``. Wall time runs
from spawn to exit. The launcher exits at end of input, and on SIGTERM
after killing the running child.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time


class Launcher:
    """Spawns one request at a time and remembers the running child."""

    def __init__(self) -> None:
        self.running: subprocess.Popen | None = None

    def terminate(self, signum, frame):
        if self.running is not None:
            self.running.kill()
            self.running.wait()
        sys.exit(128 + signum)

    def run(self, request: dict) -> dict:
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = self.running = subprocess.Popen(request["cmd"], stdout=out, stderr=err)
            timer = threading.Timer(request["timeout"], proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.running = None
        return {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0, "returncode": proc.returncode}


def main() -> int:
    launcher = Launcher()
    signal.signal(signal.SIGTERM, launcher.terminate)
    for line in sys.stdin:
        print(json.dumps(launcher.run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
