"""symell benchmark.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one seeded, single-process, closed-loop workload against the
checkout's ``src/`` and judges every answer.  With ``--trace 0`` it
reports the end-to-end metrics; with ``--trace 1`` it wraps the public
functions of each layer (see ``spans.py``) and reports per-layer metrics.
Human-readable lines come first; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

The in-process workloads repeat one fixed, seeded set of operations in
passes for the whole run, and each operation's time is the median of its
repeats.  ``cli-eval`` spawns each of its requests once.  Every timing is
scaled to one reference host speed by a gauge timed next to it (see
``gauge.py``), because other tenants of a shared host slow it down by up
to about 2x for minutes at a time.  Metric names and units come from
``BENCHMARK.json``; README.md in this directory defines the workloads and
every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

import numpy as np

import gauge
from inputs import SLICES, make_requests
from judge import ASYM, METHOD_CODE, REFERENCE, TYPED_ERROR, UNTYPED_ERROR, Judge
from spans import Summary, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 30.0
# a call still running this long after the measuring window ends is a hang
HANG_GRACE_S = 30.0
# layer self times plus the benchmark's own time must match traced wall time this closely
ACCOUNTING_LIMIT = 0.05

EXIT_REFUSED = 2


class Refused(Exception):
    """The benchmark cannot measure this checkout."""


class Hang(BaseException):
    """A call ran past the workload's wall-clock limit."""


@contextlib.contextmanager
def wall_clock_limit(seconds: float):
    def fire(signum, frame):
        raise Hang()

    old = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, old)


def load_symell():
    """Import symell from this checkout's src/, refusing any other copy."""
    if not (SRC / "symell" / "__init__.py").is_file():
        raise Refused(f"no symell package under {SRC}")
    sys.path.insert(0, str(SRC))
    import symell

    if not in_checkout(symell.__file__):
        raise Refused(f"symell resolves to {symell.__file__}, outside {SRC}")
    return symell


def in_checkout(path: str) -> bool:
    return SRC.resolve() in Path(path).resolve().parents


def child_env() -> dict:
    env = dict(os.environ)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + rest if rest else "")
    return env


def run_probes(workload: str, spec, count: int) -> tuple[list[dict], float]:
    """Fresh processes timing ``import symell`` plus the workload's first call;
    also returns the median time of a bare interpreter start."""
    cmd = [sys.executable, str(ROOT / "bench" / "probe.py"), workload,
           json.dumps(spec), str(OUT)]
    probes = []
    spawns = gauge.Spawns(PROBE_TIMEOUT_S)
    for _ in range(count):
        proc, ns, factor = spawns.run(cmd, env=child_env(), cwd=ROOT)
        if proc.returncode != 0:
            raise Refused(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        if not in_checkout(doc["file"]):
            raise Refused(f"child process imports symell from {doc['file']}")
        doc["wall_s"] = ns * 1e-9
        doc["factor"] = factor
        probes.append(doc)
    return probes, statistics.median(spawns.bare_ns) * 1e-9


def median_by(op: np.ndarray, ns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ids seen and the median time of each over its repeats, in id order."""
    order = np.lexsort((ns, op))
    op, ns = op[order], ns[order]
    ids, start, count = np.unique(op, return_index=True, return_counts=True)
    return ids, (ns[start + (count - 1) // 2] + ns[start + count // 2]) / 2


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------


class Workload:
    """One seeded workload, measured in passes over a fixed set of operations."""

    name = ""
    tail = 75   # latency percentile reported as latency_tail_us
    # human-readable names: throughput metric, its unit, latency prefix, latency unit
    names = ("", "", "", "")
    in_process = True

    def __init__(self, seed: int):
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.hung = False
        self.hung_at = None   # index of the operation that hung
        self.notes: list[str] = []

    def probe_spec(self):
        """Arguments of the first call the set-up probe makes (see probe.py)."""
        raise NotImplementedError

    def measure(self, seconds: float, tracer: Tracer | None,
                whole: bool = False) -> tuple[int, float, float, int]:
        """Run for ``seconds``; returns (work units, wall seconds, seconds
        inside operations by the benchmark's own clock, whole passes).

        Traced or ``whole``, only whole passes run, so per-pass counts repeat
        exactly; ``seconds=0`` then runs one pass.
        """
        raise NotImplementedError

    def timing(self, traced: bool = False) -> tuple[float, np.ndarray, int]:
        """Scaled throughput in work units/s, scaled latency per operation
        (ns) and the number of timed repeats they come from, for one phase."""
        raise NotImplementedError

    def factors(self, traced: bool = False) -> list[float]:
        """Gauge factors of one phase (see ``gauge.py``)."""
        raise NotImplementedError

    def finish(self) -> bool:
        """Judge everything done; False when a consistency check fails."""
        return True

    def lines(self, summary: Summary | None = None) -> list[str]:
        """Extra human-readable lines; ``summary`` is given for a traced run."""
        return []

    def layer_extra(self, summary: Summary, passes: int) -> dict:
        return {}

    def _hang(self, left: int, where: str, index: int | None = None):
        self.hung = True
        self.hung_at = index
        self.attempted += left
        self.failed += left
        self.notes.append(f"hang in {where}; the operations left count as failed")


class Answers:
    """Per-answer columns; ``index`` points into the request list."""

    COLUMNS = (("index", "i"), ("code", "b"), ("value", "d"), ("guar", "d"),
               ("lo", "d"), ("hi", "d"))

    def __init__(self):
        for col, typecode in self.COLUMNS:
            setattr(self, col, array(typecode))

    def add(self, j, code, value=math.nan, guar=math.nan, lo=math.nan, hi=math.nan):
        self.index.append(j)
        self.code.append(code)
        self.value.append(value)
        self.guar.append(guar)
        self.lo.append(lo)
        self.hi.append(hi)

    def columns(self) -> list[np.ndarray]:
        # an answer cut short by a hang may have filled only some columns
        n = min(len(getattr(self, col)) for col, _ in self.COLUMNS)
        return [np.array(getattr(self, col))[:n] for col, _ in self.COLUMNS]


class _Judged(Workload):
    """Workloads whose answers are judged against scipy/mpmath truth.

    ``attempted`` and ``failed`` count distinct requests of the seeded set,
    not repeats, so they depend on the seed alone and not on how many passes
    the host's speed allowed.  A request fails if its answer fails, or if it
    hung or was never answered.
    """

    def __init__(self, seed, requests):
        super().__init__(seed)
        self.requests = requests
        self.answers = Answers()
        self.judge = Judge(requests)

    def finish(self):
        cols = self.answers.columns()
        index = cols[0]
        failed = set(index[self.judge.verdicts(*cols)].tolist())
        failed |= set(range(len(self.requests))) - set(index.tolist())
        if self.hung_at is not None:
            failed.add(self.hung_at)
        self.attempted = len(self.requests)
        self.failed = len(failed)
        self.notes += self.judge.report()
        if self.judge.repeat_mismatches:
            self.notes.append(f"{self.judge.repeat_mismatches} answers differ from an "
                              "earlier answer to the same request")
        return self.judge.repeat_mismatches == 0


class DispatchMixed(_Judged):
    name = "dispatch-mixed"
    tail = 99
    names = ("eval_per_s", "req/s", "eval", "us")
    POOL = 10000
    BLOCK = 1000   # requests per throughput block; divides POOL

    def __init__(self, seed):
        super().__init__(seed, make_requests(seed, self.POOL, "dispatch-mixed"))
        # per phase (traced or not): the running number of each answer (its
        # request is number % POOL), the answer's time, and the gauge factor
        # of each block by block number (number // BLOCK)
        self.number = {False: array("q"), True: array("q")}
        self.latency_ns = {False: array("q"), True: array("q")}
        self.block_factor: dict[bool, dict[int, float]] = {False: {}, True: {}}
        self.cursor = 0

    def probe_spec(self):
        _, kind, args, tol = self.requests[0]
        return [kind, list(args), tol]

    def measure(self, seconds, tracer, whole=False):
        from symell import dispatch
        from symell.errors import (ConvergenceError, DomainError, RegimeError,
                                   ToleranceError)

        typed = (DomainError, RegimeError, ToleranceError, ConvergenceError)
        traced = tracer is not None
        whole = whole or traced
        make = (tracer.wrap("validate.request", dispatch.EvalRequest) if traced
                else dispatch.EvalRequest)

        reqs, n, ans = self.requests, len(self.requests), self.answers
        lat, num = self.latency_ns[traced], self.number[traced]
        factors = self.block_factor[traced]
        clock = time.perf_counter_ns
        start = clock()
        end = start + int(seconds * 1e9)
        # whole passes start at request 0
        i = -(-self.cursor // n) * n if whole else self.cursor
        first, op = i, 0
        try:
            with wall_clock_limit(seconds + HANG_GRACE_S):
                while True:
                    j = i % n
                    _, kind, args, tol = reqs[j]
                    if traced:
                        tracer.current_request = i
                    if i % self.BLOCK == 0:
                        factors[i // self.BLOCK] = gauge.cpu_factor()
                    rep = None
                    t0 = clock()
                    try:
                        rep = dispatch.evaluate(make(kind, args, tol))
                        code = METHOD_CODE[rep.method]
                    except typed:
                        code = TYPED_ERROR
                    except Exception:
                        code = UNTYPED_ERROR
                    t1 = clock()
                    if rep is None:
                        ans.add(j, code)
                    elif code == ASYM:
                        ans.add(j, code, rep.value, rep.guaranteed_rel_err,
                                rep.enclosure.lo, rep.enclosure.hi)
                    else:
                        ans.add(j, code, rep.value, rep.guaranteed_rel_err)
                    num.append(i)
                    lat.append(t1 - t0)
                    op += t1 - t0
                    i += 1
                    if t1 >= end and (not whole or i % n == 0):
                        break
        except Hang:
            self._hang(n - i % n, f"request {i % n}: {reqs[i % n]}", i % n)
        self.cursor = i
        return i - first, (clock() - start) * 1e-9, op * 1e-9, (i - first) // n

    def _phase(self, traced):
        """Running number and scaled time (ns) of every answer of one phase."""
        lat = np.frombuffer(self.latency_ns[traced], dtype=np.int64)
        num = np.frombuffer(self.number[traced], dtype=np.int64)
        m = min(len(lat), len(num))   # a hang may cut the last answer short
        num, lat = num[:m], lat[:m]
        bf = self.block_factor[traced]
        factor = np.full(int(num.max()) // self.BLOCK + 1 if m else 0, np.nan)
        factor[list(bf)] = list(bf.values())
        scaled = lat * factor[num // self.BLOCK]
        keep = np.isfinite(scaled)    # a block entered mid-way has no gauge
        return num[keep], scaled[keep]

    def timing(self, traced=False):
        num, lat = self._phase(traced)
        blocks = self.POOL // self.BLOCK
        key = num // self.BLOCK       # pass * blocks + block within the pass
        sums = np.bincount(key, weights=lat)
        full = np.flatnonzero(np.bincount(key) == self.BLOCK)
        if not len(full):
            return 0.0, np.zeros(1), len(lat)
        per_block = median_by(full % blocks, sums[full])[1]
        rate = self.BLOCK * len(per_block) / per_block.sum() * 1e9
        return rate, median_by(num % self.POOL, lat)[1], len(lat)

    def factors(self, traced=False):
        return list(self.block_factor[traced].values())

    def _distinct_codes(self) -> np.ndarray:
        """Method code of each request answered, once per request."""
        index, code = self.answers.columns()[:2]
        _, first = np.unique(index, return_index=True)
        return code[first]

    def method_mix(self) -> dict:
        code = self._distinct_codes()
        n = max(len(code), 1)
        mix = {m: float((code == c).sum()) / n for m, c in METHOD_CODE.items()}
        mix["typed_error"] = float((code == TYPED_ERROR).sum()) / n
        return mix

    def slice_lines(self) -> list[str]:
        """Rate and p50 of each slice, from each request's median time."""
        num, lat = self._phase(False)
        ids, med = median_by(num % self.POOL, lat)
        of_slice = np.array([r[0] for r in self.requests])[ids]
        lines = []
        for sl in SLICES:
            b = med[of_slice == sl]
            if len(b):
                lines.append(f"slice {sl}: eval_per_s {len(b) / b.sum() * 1e9:.6g} req/s, "
                             f"eval_p50_us {np.median(b) * 1e-3:.6g} us "
                             f"(n={len(b)} requests)")
        return lines

    def lines(self, summary=None):
        mix = "method mix " + " ".join(f"{k}={v:.4f}" for k, v in self.method_mix().items())
        if summary is None:
            return self.slice_lines() + [mix]
        f = summary.frame
        sel = f["name"] == summary.ids.get("dispatch.evaluate", -1)
        means = {}
        for j, dur in zip(f["request"][sel] % self.POOL, f["dur"][sel]):
            sl, kind, _, _ = self.requests[j]
            means.setdefault((sl, kind), []).append(dur)
        return [f"traced evaluate {sl} {kind}: mean {np.mean(d) * 1e-3:.1f} us (n={len(d)})"
                for (sl, kind), d in sorted(means.items())]

    def layer_extra(self, summary, passes):
        code = self._distinct_codes()
        built = summary.child_count("asym.enclose", "dispatch.evaluate")
        mix = self.method_mix()
        return {
            "asym.useful_ratio": float((code == ASYM).sum()) * passes / built if built else 0.0,
            "dispatch.share_closed_form": mix["closed_form"],
            "dispatch.share_asym": mix["asym"],
            "dispatch.share_reference": mix["reference"],
        }


def digest_reports(paths) -> str:
    """sha256 over report files, with every ``wall_time`` removed from the JSON."""
    h = hashlib.sha256()
    for p in paths:
        text = Path(p).read_text()
        if p.endswith(".json"):
            doc = json.loads(text)
            for rep in doc["reports"]:
                rep.pop("wall_time", None)
            text = json.dumps(doc, sort_keys=True)
        h.update(Path(p).name.encode())
        h.update(text.encode())
    return h.hexdigest()


class _Campaigns(Workload):
    """Rounds of seeded verification campaigns; every round repeats the same work.

    A round is a list of ``(label, thunk)`` calls; a call labelled ``None``
    (report writing) counts toward throughput but is no campaign.
    ``attempted`` and ``failed`` are those of one round; every round must
    count the same.
    """

    WORK_MODES: tuple = ()   # report modes whose samples count as throughput

    def __init__(self, seed):
        super().__init__(seed)
        self.calls = self._round_calls()
        # per phase (traced or not): scaled call times of each whole round,
        # and every gauge factor
        self.round_ns: dict[bool, list[list[float]]] = {False: [], True: []}
        self.call_factor: dict[bool, list[float]] = {False: [], True: []}
        self.round_work = 0
        self.round_counts: list[tuple[int, int]] = []   # (attempted, failed) per round
        self.digests: list[str] = []
        self.traced_reports: list[dict] = []

    def _round_calls(self) -> list:
        raise NotImplementedError

    def _files(self) -> list[str]:
        """Report files one round writes, JSON and CSV."""
        raise NotImplementedError

    def _read_round(self) -> list[dict]:
        reports = []
        for path in self._files():
            if path.endswith(".json") and os.path.exists(path):
                reports.extend(json.loads(Path(path).read_text())["reports"])
        return reports

    def measure(self, seconds, tracer, whole=False):
        clock = time.perf_counter_ns
        start = clock()
        end = start + int(seconds * 1e9)
        work = passes = busy = k = 0
        try:
            with wall_clock_limit(seconds + HANG_GRACE_S):
                while True:
                    for p in self._files():
                        with contextlib.suppress(FileNotFoundError):
                            os.unlink(p)
                    times, scaled, errors = [], [], 0
                    for k, (label, thunk) in enumerate(self.calls):
                        if tracer is not None:
                            tracer.current_request = passes * len(self.calls) + k
                        factor = gauge.cpu_factor()
                        t0 = clock()
                        if tracer is None or label is None:
                            status = thunk()
                        else:
                            status = tracer.span("harness.campaign", thunk)
                        times.append(clock() - t0)
                        scaled.append(times[-1] * factor)
                        self.call_factor[tracer is not None].append(factor)
                        if status not in (0, 1, None):
                            # the campaign ended in an error and wrote no report
                            errors += 1
                            self.notes.append(f"{label}: exit status {status}")
                    busy += sum(times)
                    passes += 1
                    reports = self._read_round()
                    self.round_work = self._count(reports, errors)
                    work += self.round_work
                    self.digests.append(digest_reports(
                        [f for f in self._files() if os.path.exists(f)]))
                    self.round_ns[tracer is not None].append(scaled)
                    if tracer is not None:
                        self.traced_reports.extend(reports)
                    if clock() >= end:
                        break
        except Hang:
            self._hang(len(self.calls) - k, str(self.calls[k][0]))
        return work, (clock() - start) * 1e-9, busy * 1e-9, passes

    def _count(self, reports, errors: int) -> int:
        """Record one round's attempted and failed counts; returns its work units.

        Samples evaluated are attempted; violations, failing campaigns and
        campaigns that ended in an error are failed.
        """
        attempted, failed = errors, errors
        for rep in reports:
            attempted += rep["evaluated"]
            failed += rep["violations"]
            if not rep["ok"] and not rep["violations"]:
                failed += 1
        self.round_counts.append((attempted, failed))
        return sum(r["evaluated"] for r in reports if r["mode"] in self.WORK_MODES)

    def timing(self, traced=False):
        rounds = self.round_ns[traced]
        if not rounds:
            return 0.0, np.zeros(1), 0
        med = np.median(np.array(rounds), axis=0)
        campaigns = [i for i, (label, _) in enumerate(self.calls) if label is not None]
        return (self.round_work / med.sum() * 1e9, med[campaigns],
                len(campaigns) * len(rounds))

    def factors(self, traced=False):
        return self.call_factor[traced]

    def finish(self):
        if self.round_counts:
            self.attempted += self.round_counts[0][0]
            self.failed += self.round_counts[0][1]
        if self.digests:
            self.notes.append(f"verify digest {self.digests[0]} ({len(self.digests)} rounds)")
        if len(set(self.digests)) > 1:
            self.notes.append("verify digest differs between rounds of one seed")
            return False
        if len(set(self.round_counts)) > 1:
            self.notes.append("attempted or failed counts differ between rounds of one seed")
            return False
        return True

    def layer_extra(self, summary, passes):
        sampled = [r for r in self.traced_reports if r["mode"] in ("containment", "order")]
        gated = sum(r["gated"] for r in sampled)
        seen = gated + sum(r["evaluated"] for r in sampled)
        return {"harness.gated_share": gated / seen if seen else 0.0}


class VerifyContainment(_Campaigns):
    """``symell verify --cases TAG`` for every case: containment, order fit, reports."""

    name = "verify-containment"
    names = ("verify_samples_per_s", "samples/s", "verify_case", "s")
    tail = 65   # 11 of the 32 cases lie beyond it
    WORK_MODES = ("containment",)   # oracle-checked samples
    SAMPLES = 20

    def probe_spec(self):
        return self.seed

    def _tags(self):
        from symell import asym

        return asym.CASE_TAGS

    def _prefix(self, tag):
        return str(OUT / f"containment-{tag}")

    def _files(self):
        return [self._prefix(t) + ext for t in self._tags() for ext in (".json", ".csv")]

    def _round_calls(self):
        from symell import cli

        def call(tag):
            argv = ["verify", "--cases", tag, "--samples", str(self.SAMPLES),
                    "--seed", str(self.seed), "--out", self._prefix(tag)]

            def thunk():
                sink = io.StringIO()
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    return cli.main(argv)
            return thunk

        return [(tag, call(tag)) for tag in self._tags()]



# identities that call the quadrature oracle; verify-fuzz leaves them out
QUADRATURE_IDENTITIES = ("log-kernel-bracket", "log-derivative-shift")


class VerifyFuzz(_Campaigns):
    """Inequality fuzz for all 14 tags plus the 13 identities without quadrature."""

    name = "verify-fuzz"
    names = ("fuzz_tuples_per_s", "tuples/s", "fuzz_campaign", "s")
    tail = 60   # 10 of the 27 campaigns lie beyond it
    WORK_MODES = ("bounds", "identity")
    BOUNDS_N = 2000
    IDENTITY_N = 200

    def probe_spec(self):
        return self.seed

    def _files(self):
        return [str(OUT / "fuzz.json"), str(OUT / "fuzz.csv")]

    def _round_calls(self):
        from symell import bounds, harness

        self._pending = []

        def fuzz(tag):
            return lambda: self._pending.append(
                harness.run_bounds_fuzz(tag, self.BOUNDS_N, self.seed))

        def identity(tag):
            return lambda: self._pending.append(
                harness.run_identities(self.seed, self.IDENTITY_N, which=(tag,)))

        def write():
            reports, self._pending = self._pending, []
            json_path, csv_path = self._files()
            harness.write_report_json(reports, json_path)
            harness.write_report_csv(reports, csv_path)

        calls = [(tag, fuzz(tag)) for tag in bounds.INEQ_TAGS]
        calls += [(tag, identity(tag)) for tag in harness.IDENTITY_TAGS
                  if tag not in QUADRATURE_IDENTITIES]
        calls.append((None, write))
        return calls



class CliEval(_Judged):
    """Sequential ``python -m symell.cli eval`` spawns, one child at a time.

    Each of the seeded requests is spawned once, and the latency percentiles
    are taken over every spawn, so that ten or more spawns lie beyond p75.
    A run makes at least ``REQUESTS`` spawns, even when that takes longer
    than ``--seconds``.
    """

    name = "cli-eval"
    names = ("cli_spawns_per_s", "spawns/s", "cli", "s")
    in_process = False
    REQUESTS = 40

    def __init__(self, seed):
        super().__init__(seed, make_requests(seed, self.REQUESTS, "cli-eval"))
        rng = random.Random(f"cli-eval-json:{seed}")
        self.as_json = [rng.random() < 0.5 for _ in self.requests]
        self.spawn_ns = array("d")    # scaled
        self.spawn_factor = array("d")

    def argv(self, j):
        _, kind, args, tol = self.requests[j]
        argv = ["eval", kind.lower(), *map(repr, args), "--rel-tol", repr(tol)]
        return argv + (["--json"] if self.as_json[j] else [])

    def probe_spec(self):
        return self.argv(0)

    def measure(self, seconds, tracer, whole=False):
        env = child_env()
        spawns = gauge.Spawns(HANG_GRACE_S)
        clock = time.perf_counter_ns
        start = clock()
        end = start + int(seconds * 1e9)
        i = busy = 0
        while i < self.REQUESTS or clock() < end:
            j = i % self.REQUESTS
            cmd = [sys.executable, "-m", "symell.cli", *self.argv(j)]
            try:
                proc, ns, factor = spawns.run(cmd, env=env, cwd=ROOT)
            except subprocess.TimeoutExpired:
                self._hang(max(self.REQUESTS - i, 1), " ".join(cmd[3:]), j)
                break
            busy += ns
            self.spawn_ns.append(ns * factor)
            self.spawn_factor.append(factor)
            self._record(j, proc)
            i += 1
        return i, (clock() - start) * 1e-9, busy * 1e-9, i // self.REQUESTS

    def _record(self, j, proc):
        if proc.returncode in (2, 3, 4):   # the CLI's typed-error exit codes
            self.answers.add(j, TYPED_ERROR)
            return
        if proc.returncode != 0:
            self.answers.add(j, UNTYPED_ERROR)
            self.notes.append(f"eval {self.argv(j)} exit {proc.returncode}: "
                              f"{proc.stderr.strip()[-200:]}")
            return
        out = proc.stdout.strip()
        if self.as_json[j]:
            doc = json.loads(out)
            value, label, guar = doc["value"], doc["method"], doc["guaranteed_rel_err"]
            enc = doc["enclosure"]
        else:
            v, label, g = out.split()
            value, guar, enc = float(v), float(g), None
        code = METHOD_CODE[label.split("(", 1)[0]]
        if enc is not None:
            self.answers.add(j, code, value, guar, enc["lo"], enc["hi"])
        else:
            # plain output carries no enclosure: judge the value alone
            self.answers.add(j, REFERENCE if code == ASYM else code, value, guar)

    def timing(self, traced=False):
        ns = np.frombuffer(self.spawn_ns)
        if not len(ns):
            return 0.0, np.zeros(1), 0
        return len(ns) / ns.sum() * 1e9, ns, len(ns)

    def factors(self, traced=False):
        return list(self.spawn_factor)


WORKLOADS = {w.name: w for w in (DispatchMixed, VerifyContainment, VerifyFuzz, CliEval)}


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------

_UNIT_PER_NS = {"us": 1e-3, "s": 1e-9}


def end_to_end(w: Workload, probes) -> tuple[dict, list[str]]:
    rate, lat_ns, timed = w.timing()
    setup = statistics.median((p["import_s"] + p["first_call_s"]) * p["factor"]
                              for p in probes)
    p50, tail = np.percentile(lat_ns, 50), np.percentile(lat_ns, w.tail)
    metrics = {
        "setup_s": setup,
        "ops_per_s": rate,
        "latency_p50_us": p50 * 1e-3,
        "latency_tail_us": tail * 1e-3,
    }
    rate_name, rate_unit, lat_name, lat_unit = w.names
    scale = _UNIT_PER_NS[lat_unit]
    n = len(lat_ns)
    each = (f"each the median of its repeats among {timed} timed" if w.in_process
            else "every spawn")
    factors = w.factors() or [math.nan]   # none when the first operation hung
    lines = [
        f"{rate_name} {rate:.6g} {rate_unit}",
        f"{lat_name}_p50_{lat_unit} {p50 * scale:.6g} {lat_unit} (n={n} operations, {each})",
        f"{lat_name}_p{w.tail}_{lat_unit} {tail * scale:.6g} {lat_unit} "
        f"(n={n}, {int(n * (100 - w.tail) / 100)} beyond p{w.tail})",
        f"setup_s {setup:.6g} s (median of n={len(probes)} fresh processes)",
        f"gauge factors (reference time / gauge time; timings above are scaled by them): "
        f"median {statistics.median(factors):.4f}, range {min(factors):.4f}.."
        f"{max(factors):.4f} over n={len(factors)} operations; set-up probes median "
        f"{statistics.median(p['factor'] for p in probes):.4f}",
    ]
    return metrics, lines


# layer -> (end-to-end metric it should move, workloads it runs on, control
# workload where it should not move)
LAYER_MAP = {
    "validate": ("eval_p50_us", "dispatch-mixed", "verify-fuzz"),
    "core": ("eval_per_s, fuzz_tuples_per_s", "dispatch-mixed, verify-fuzz", "cli-eval"),
    "asym": ("eval_p99_us", "dispatch-mixed (deep slice)", "verify-fuzz"),
    "dispatch": ("eval_per_s", "dispatch-mixed", "verify-containment"),
    "quadrature": ("verify_samples_per_s", "verify-containment",
                   "dispatch-mixed, verify-fuzz"),
    "harness": ("fuzz_tuples_per_s, verify_samples_per_s",
                "verify-fuzz, verify-containment", "dispatch-mixed"),
    "bounds": ("fuzz_tuples_per_s", "verify-fuzz", "verify-containment"),
    "cli": ("cli_p50_s, setup_s", "cli-eval", "dispatch-mixed (eval_* metrics only)"),
}


def per_layer(w: Workload, s: Summary, passes: int, probes, floor: float,
              overhead: float, traced_s: float) -> dict:
    """Counts and busy (self) times are per pass of the workload's seeded
    operations; ``*_us`` are means per call."""
    p = max(passes, 1)
    evals = s.count("dispatch.evaluate")
    oracle = s.count("quadrature.oracle_with_error")
    import_s = statistics.median(pr["import_s"] for pr in probes)
    m = {
        "validate.request_us": s.mean_us("validate.request"),
        "core.calls": s.layer_calls("core") / p,
        "core.busy_s": s.layer_self_s("core") / p,
        **{f"core.{f}_us": s.mean_us(f"core.{f}") for f in ("rc", "rf", "rd", "rj", "rg")},
        "asym.enclose_calls": s.count("asym.enclose") / p,
        "asym.ratio_calls": s.count("asym.case_ratio") / p,
        "asym.busy_s": s.layer_self_s("asym") / p,
        "asym.enclose_us": s.mean_us("asym.enclose"),
        "asym.enclosures_per_eval":
            s.child_count("asym.enclose", "dispatch.evaluate") / evals if evals else 0.0,
        "asym.useful_ratio": 0.0,
        "dispatch.self_us": s.self_mean_us("dispatch.evaluate"),
        "dispatch.tolerance_errors": s.errors[("dispatch.evaluate", "ToleranceError")] / p,
        "dispatch.share_closed_form": 0.0,
        "dispatch.share_asym": 0.0,
        "dispatch.share_reference": 0.0,
        "quadrature.oracle_calls": oracle / p,
        "quadrature.busy_s": s.layer_self_s("quadrature") / p,
        "quadrature.oracle_us": s.mean_us("quadrature.oracle_with_error"),
        "quadrature.convergence_errors":
            s.errors[("quadrature.oracle_with_error", "ConvergenceError")] / p,
        "quadrature.quad_per_oracle": s.count("quadrature.quad") / oracle if oracle else 0.0,
        "harness.sample_calls": s.count("harness.sample_args") / p,
        "harness.sample_us": s.mean_us("harness.sample_args"),
        "harness.theta_busy_s": (s.inclusive_s("asym.theta_recover")
                                 + s.inclusive_s("harness.reference_value")) / p,
        "harness.report_s": (s.inclusive_s("harness.write_report_json")
                             + s.inclusive_s("harness.write_report_csv")) / p,
        "harness.gated_share": 0.0,
        "harness.busy_s": s.layer_self_s("harness") / p,
        "bounds.bracket_calls": s.count("bounds.bracket") / p,
        "bounds.bracket_us": s.mean_us("bounds.bracket"),
        "bounds.busy_s": s.layer_self_s("bounds") / p,
        "cli.import_s": import_s,
        "cli.python_floor_s": floor,
        "cli.import_share": import_s / statistics.median(pr["wall_s"] for pr in probes),
        "trace.overhead": overhead,
        "trace.bench_share": (traced_s - s.root_s()) / traced_s if traced_s else 0.0,
    }
    m.update(w.layer_extra(s, passes))
    return m


def traced_run(w: Workload, seconds: float, probes, floor: float) -> tuple[dict, list[str]]:
    """Untraced and traced passes alternate, so host drift reaches both alike;
    per-layer metrics come from the traced passes."""
    tracer = Tracer()
    passes, overhead, wall_s, op_s = 0, 0.0, 0.0, 0.0
    if w.in_process:
        deadline = time.perf_counter() + seconds
        while passes == 0 or time.perf_counter() < deadline:
            w.measure(0, None, whole=True)
            if w.hung:
                break
            with tracer.installed():
                _, wall, op, n = w.measure(0, tracer)
            wall_s, op_s, passes = wall_s + wall, op_s + op, passes + n
            if w.hung:
                break
        # same scaled throughput as the end-to-end metrics
        untraced_rate = w.timing()[0]
        if untraced_rate:
            overhead = 1.0 - w.timing(traced=True)[0] / untraced_rate
    else:
        # the children are separate processes; nothing in this one is wrapped
        w.measure(seconds, None)
    s = Summary(tracer)
    tracer.save(OUT / f"spans-{w.name}.npz")
    lines = []
    if wall_s:
        # the spans and the benchmark's own clock around each operation are
        # read apart, so the sum misses the traced wall time by whatever the
        # spans fail to cover inside the operations
        self_s = {layer: s.layer_self_s(layer) for layer in sorted(
            {name.split(".", 1)[0] for name in s.names})}
        bench = wall_s - op_s
        total = sum(self_s.values()) + bench
        share = total / wall_s
        verdict = "within" if abs(share - 1.0) <= ACCOUNTING_LIMIT else "OUTSIDE"
        lines.append("trace accounting: " + " ".join(f"{k}={v:.4f}s" for k, v in self_s.items())
                     + f" benchmark={bench:.4f}s sum={total:.4f}s traced={wall_s:.4f}s "
                     f"({share:.4f} of traced wall time, {verdict} {ACCOUNTING_LIMIT:.0%}; "
                     f"{passes} passes, {len(s.frame['dur'])} spans)")
    else:
        lines.append("trace accounting: n/a, the work runs in child processes")
    lines += w.lines(s)
    lines += [f"layer {layer}: should move {moves}; on {on}; control {control}"
              for layer, (moves, on, control) in LAYER_MAP.items()]
    return per_layer(w, s, passes, probes, floor, overhead, wall_s), lines


def metric_units(kind: str) -> dict:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise Refused(f"no {path}")
    return {m["name"]: m["unit"] for m in json.loads(path.read_text())[kind]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="symell benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)
    cpus = len(os.sched_getaffinity(0))
    cpu = gauge.pin()
    try:
        symell = load_symell()
        units = metric_units("per_layer" if a.trace else "end_to_end")
        OUT.mkdir(exist_ok=True)
        w = WORKLOADS[a.workload](a.seed)
        probes, floor = run_probes(w.name, w.probe_spec(), SETUP_PROBES)
    except (Refused, subprocess.TimeoutExpired) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    import mpmath
    import scipy

    print(f"workload {w.name} seed {a.seed} seconds {a.seconds:g} trace {a.trace}")
    print(f"env symell={symell.__file__} python={platform.python_version()} "
          f"numpy={np.__version__} scipy={scipy.__version__} mpmath={mpmath.__version__} "
          f"nproc={cpus} pinned to cpu {cpu}")
    if a.trace:
        metrics, lines = traced_run(w, a.seconds, probes, floor)
    else:
        w.measure(a.seconds, None)
        metrics, lines = end_to_end(w, probes)
        lines += w.lines()
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} "
                           "disagree with BENCHMARK.json")
    consistent = w.finish()
    for line in lines + w.notes:
        print(line)
    share = w.failed / w.attempted if w.attempted else 0.0
    print(f"fail_share {share:.6g} ratio (failed={w.failed} attempted={w.attempted})")
    print(json.dumps({
        "correct": bool(consistent and not w.hung and w.attempted > 0),
        "attempted": max(w.attempted, 1),
        "failed": w.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
