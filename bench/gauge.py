"""Host-speed gauge: scales timings to one reference host speed.

On a shared host, other tenants slow this machine's CPUs by up to about
2x, for a second at a time or for minutes.  A slowdown that lasts a whole run moves
every timing of the run, and no choice among its repeats undoes it.  So each
timed operation is paired with a gauge timed on the same CPU just before
it, and the operation's time is multiplied by ``REF / gauge``: the time the
operation would have taken at the speed at which the gauge takes ``REF``.

The gauges run no symell code, so a change to symell moves the scaled
timings exactly as it moves the raw ones.

* ``cpu_factor`` times a fixed mpmath kernel (``elliprf`` at 15 digits,
  pure Python like most of symell) for in-process operations.
* ``Spawns`` times a bare ``python -c pass`` before and after each child
  process, whose cost is dominated by process start-up and imports.

``pin`` keeps the benchmark and its children on one CPU, because the
tenants slow the two CPUs of a 2-vCPU machine at different times, and a
gauge on one CPU says nothing about the other.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import threading
import time

import mpmath

# the gauges' fastest times on the reference host (2-vCPU x86-64 VM,
# CPython 3.11.7, mpmath 1.3.0)
CPU_REF_NS = 3_250_000
SPAWN_REF_NS = 47_500_000

_rng = random.Random(0)
_ARGS = [tuple(_rng.uniform(0.1, 10.0) for _ in range(3)) for _ in range(12)]


def pin() -> int:
    """Restrict this process and its future children to one CPU; returns it."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def cpu_factor() -> float:
    t0 = time.perf_counter_ns()
    with mpmath.workdps(15):
        for args in _ARGS:
            mpmath.elliprf(*args)
    return CPU_REF_NS / (time.perf_counter_ns() - t0)


def timed_run(cmd, timeout: float, **kwargs) -> tuple[subprocess.CompletedProcess, int]:
    """``subprocess.run(cmd, **kwargs)`` and its wall time in ns.

    A watchdog thread kills the child after ``timeout`` seconds and
    ``TimeoutExpired`` is raised.  ``subprocess.run(timeout=...)`` is not
    used: it polls for the child's exit with sleeps that grow to 50 ms, and
    would round every time measured here up to the next poll.
    """
    fired = []

    def kill():
        fired.append(True)
        proc.kill()

    watchdog = threading.Timer(timeout, kill)
    t0 = time.perf_counter_ns()
    proc = subprocess.Popen(cmd, **kwargs)
    watchdog.start()
    try:
        out, err = proc.communicate()
    finally:
        watchdog.cancel()
        watchdog.join()
    ns = time.perf_counter_ns() - t0
    if fired:
        raise subprocess.TimeoutExpired(cmd, timeout)
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err), ns


class Spawns:
    """Times child processes, each scaled by bare interpreter starts timed
    just before and just after it."""

    def __init__(self, timeout: float):
        self.timeout = timeout
        self.bare_ns: list[int] = []
        self.last = self._bare()

    def _bare(self) -> int:
        proc, ns = timed_run([sys.executable, "-c", "pass"], self.timeout)
        proc.check_returncode()
        self.bare_ns.append(ns)
        return ns

    def run(self, cmd, **kwargs):
        """Run ``cmd`` (``subprocess.Popen`` arguments, output captured as
        text); returns (completed process, raw ns, factor)."""
        proc, ns = timed_run(cmd, self.timeout, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True, **kwargs)
        before, self.last = self.last, self._bare()
        return proc, ns, 2 * SPAWN_REF_NS / (before + self.last)
