"""Measured child processes, started from a small long-lived launcher process.

A child's peak RSS (ru_maxrss) starts at the high-water RSS of the process
that spawned it, because exec carries the old address space's mark over. The
benchmark process holds inputs and reference data, so it hands every
measured command to this launcher, started while the benchmark was still
small, and reads the result back.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time

CHILD_TIMEOUT_S = 150


def run_child(argv: list[str], cwd: str, env: dict, stderr_path: str) -> dict:
    """Run one command; its wall time, CPU time and peak RSS, children included."""
    with open(stderr_path, "ab") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=err,
                                start_new_session=True)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        watchdog.start()
        try:
            # wait4 reports the child's usage including its waited-for children.
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"exit": proc.returncode, "wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0}


class Launcher:
    """Client side: one launcher process per benchmark run."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, os.path.abspath(__file__)],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], cwd, env: dict, stderr_path) -> dict:
        request = {"argv": argv, "cwd": str(cwd), "env": env, "stderr_path": str(stderr_path)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("launcher process ended unexpectedly")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait(timeout=CHILD_TIMEOUT_S)


if __name__ == "__main__":
    for request in sys.stdin:
        print(json.dumps(run_child(**json.loads(request))), flush=True)
