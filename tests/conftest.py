import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import symell

_ACCEPTANCE_RESULTS = []

# the directory holding the symell package under test, put first on the
# children's path so they import the same code
_SRC = str(Path(symell.__file__).resolve().parents[1])


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def spawn():
    """Run ``python -c CODE`` or ``python -m MODULE ARGS`` in a fresh process.

    Every child has a wall-clock limit, so a call that never returns fails
    its own test instead of stalling the run.
    """
    path = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path}

    def run(*argv, timeout=60):
        return subprocess.run([sys.executable, *argv], capture_output=True,
                              text=True, timeout=timeout, env=env)

    return run


def pytest_runtest_makereport(item, call):
    if call.when != "call" or "test_acceptance" not in str(item.fspath):
        return
    doc = (item.function.__doc__ or item.name).strip().splitlines()[0]
    _ACCEPTANCE_RESULTS.append((doc, call.excinfo is None))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for label, ok in _ACCEPTANCE_RESULTS:
        terminalreporter.write_line(f"[{'PASS' if ok else 'FAIL'}] {label}")
