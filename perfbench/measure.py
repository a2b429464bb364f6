"""Run one subprocess and measure its wall time and the peak memory of its tree."""

from __future__ import annotations

import glob
import os
import signal
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Measured:
    returncode: int
    wall_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def _children(pid: int) -> list[int]:
    out = []
    for path in glob.glob(f"/proc/{pid}/task/*/children"):
        try:
            out.extend(int(c) for c in Path(path).read_text().split())
        except OSError:
            pass
    return out


def _rss_kb(pid: int) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


class _TreeSampler(threading.Thread):
    """Polls the resident memory (VmRSS) summed over a process tree.

    The peak is the largest sum seen at one instant. Unlike the sum of
    per-process high-water marks it counts only memory held at the same
    time, and unlike a high-water mark it ignores spikes shorter than
    the polling interval (the knn temporaries it is meant to see live
    for hundreds of ms).
    """

    def __init__(self, root: int, interval_s: float = 0.01):
        super().__init__(daemon=True)
        self.root, self.interval_s = root, interval_s
        self.peak_kb = 0
        self.stop = threading.Event()

    def run(self) -> None:
        while not self.stop.is_set():
            total, stack = 0, [self.root]
            while stack:
                pid = stack.pop()
                total += _rss_kb(pid)
                stack.extend(_children(pid))
            self.peak_kb = max(self.peak_kb, total)
            self.stop.wait(self.interval_s)


def run(cmd: list[str], *, env: dict, cwd: Path, timeout_s: float) -> Measured:
    """Run cmd to completion; wall time covers process start to exit."""
    out_path, err_path = cwd / "stdout.txt", cwd / "stderr.txt"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=out, stderr=err, start_new_session=True)
        sampler = _TreeSampler(proc.pid)
        sampler.start()
        killer = threading.Timer(timeout_s, os.killpg, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, _ = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        finally:
            killer.cancel()
            sampler.stop.set()
            sampler.join()
            try:  # nothing the run started may outlive it
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Measured(
        returncode=proc.returncode,
        wall_s=wall,
        peak_rss_mb=sampler.peak_kb / 1024,
        stdout=out_path.read_text(),
        stderr=err_path.read_text(),
    )
