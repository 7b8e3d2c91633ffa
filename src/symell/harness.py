"""Verification campaigns: containment fuzzing, order fits, identity suites.

A campaign pins a case's smallness ratio to each grid value, samples the
remaining degrees of freedom with the case's sampler in the ``asym``
registry, and checks that the quadrature oracle lands inside every
enclosure.  Containment is asserted up to the oracle's own uncertainty:
slack = max(4 * quadrature error estimate, 2e-13 * |value|), since the
sharpest enclosures at ratio 1e-7 are narrower than anything float64
quadrature can resolve.

A campaign looks its case row up in ``asym`` once and runs the row's
sampler, enclosure and symbol window on it (``asym._sample``, ``_enclose``
and ``_theta_window``): per sample, the gate and the argument window run,
but no lookup by tag and no check of the sampler's own arguments.

Bracket-realization statistics recover the error symbol from the reference
value per sample; samples whose recovery is ill-conditioned (symbol
uncertainty above 2% of the bracket width) are counted separately instead
of asserted, because inverting a formula whose error coefficient is
~ratio**2 is numerically meaningless at the extreme ratios.

Sample lists are pre-generated from the seed, so reports are reproducible
regardless of evaluation order.  Campaigns draw in seeded blocks, one numpy
call per block, with the arithmetic of one scalar draw per value, so their
reports are those of scalar draws: the containment and order campaigns
through a buffer per (case, ratio) stream (:class:`Draws`), the inequality
fuzz and most identities through :func:`_lu_rows`, the log-kernel bracket
and the AGM chain through a stream over their generator.  The identities
that mix in ``rng.integers`` draw one value per numpy call.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field
from itertools import repeat, starmap

import numpy as np

from . import asym, bounds, core, dispatch
from . import quadrature as quad_oracle
from ._util import equal_within_band
from .errors import DomainError, RegimeError

__all__ = [
    "Campaign",
    "reference_value",
    "CampaignReport",
    "Draws",
    "IDENTITY_TAGS",
    "containment_slack",
    "expected_slope",
    "run_bounds_fuzz",
    "run_containment",
    "run_identities",
    "run_order_fit",
    "sample_args",
    "write_report_csv",
    "write_report_json",
]

_DEFAULT_RATIOS = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7)

# the grid and sample count the rows' expected slopes were fitted at; a fit's
# slope (logarithmic corrections and all) is comparable to them only here
_ORDER_RATIOS = _DEFAULT_RATIOS[1:]
_ORDER_SAMPLES = 100

# ratios where symbol recovery stays well-conditioned for every case
THETA_RATIOS = (1e-2, 1e-3, 1e-4, 1e-5)

_MAX_RECORDED = 10
_BLOCK = 4096   # rows per numpy call of a block draw; bounds its memory
_DRAW_BLOCK = 256   # doubles per rng.random call of a campaign stream


@dataclass(frozen=True)
class Campaign:
    case: str
    ratios: tuple[float, ...] = _DEFAULT_RATIOS
    samples: int = 100
    seed: int = 42

    def __post_init__(self):
        object.__setattr__(self, "ratios", tuple(float(r) for r in self.ratios))
        # a campaign that checks nothing must not report a pass
        if not self.ratios:
            raise DomainError("a campaign needs at least one ratio")
        for r in self.ratios:
            if not 0.0 < r < 1.0:
                raise DomainError(f"ratios must lie in (0, 1), got {r}")
        # the report keeps one width per ratio, so a repeat would hide a stream
        if len(set(self.ratios)) < len(self.ratios):
            raise DomainError(f"ratios must not repeat, got {self.ratios}")
        if self.samples < 1:
            raise DomainError("samples must be >= 1")


@dataclass
class CampaignReport:
    case: str
    mode: str                      # containment | order | identity | bounds
    seed: int
    ratios: tuple[float, ...]
    samples: int
    violations: int = 0
    violation_samples: list = field(default_factory=list)
    max_rel_width: dict = field(default_factory=dict)
    slope: float | None = None
    expected: float | None = None
    theta: dict = field(default_factory=dict)
    gated: int = 0
    evaluated: int = 0
    wall_time: float = 0.0

    def violate(self, sample: dict) -> None:
        """Count one violation; record its sample while fewer than
        _MAX_RECORDED are recorded."""
        self.violations += 1
        if len(self.violation_samples) < _MAX_RECORDED:
            self.violation_samples.append(sample)

    @property
    def ok(self) -> bool:
        if self.violations:
            return False
        if self.slope is not None and self.expected is not None:
            return abs(self.slope - self.expected) <= 0.15
        return True

    def to_dict(self) -> dict:
        return {
            "case": self.case,
            "mode": self.mode,
            "seed": self.seed,
            "ratios": list(self.ratios),
            "samples": self.samples,
            "violations": self.violations,
            "violation_samples": self.violation_samples,
            "max_rel_width": {repr(k): v for k, v in self.max_rel_width.items()},
            "slope": self.slope,
            "expected_slope": self.expected,
            "theta": self.theta,
            "gated": self.gated,
            "evaluated": self.evaluated,
            "wall_time": self.wall_time,
            "ok": self.ok,
        }

    def rows(self) -> list[dict]:
        """Flat rows matching the report CSV schema."""
        if not self.ratios:
            return [{"case": self.case, "ratio": "", "samples": self.samples,
                     "violations": self.violations, "max_rel_width": "",
                     "slope": "", "seed": self.seed}]
        out = []
        for r in self.ratios:
            out.append({
                "case": self.case,
                "ratio": repr(r),
                "samples": self.samples,
                "violations": self.violations,
                "max_rel_width": repr(self.max_rel_width[r]) if r in self.max_rel_width else "",
                "slope": "" if self.slope is None else repr(self.slope),
                "seed": self.seed,
            })
        return out


def containment_slack(err_estimate: float, value: float) -> float:
    return max(4.0 * err_estimate, 2e-13 * abs(value))


# --------------------------------------------------------------------------
# argument draws
# --------------------------------------------------------------------------


def _lu(rng, lo, hi):
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def _block_sizes(count):
    return (min(_BLOCK, count - start) for start in range(0, count, _BLOCK))


def _lu_rows(rng, lo, hi, count, k):
    """``count`` rows of ``k`` values drawn as by :func:`_lu`, one numpy call
    per block.  A block fills row by row with the scalar call's arithmetic,
    so the rows hold the stream of ``count * k`` scalar ``_lu`` calls.  It
    draws no more than the rows need, so ``rng`` may serve further draws."""
    for size in _block_sizes(count):
        yield from np.exp(rng.uniform(np.log(lo), np.log(hi), (size, k))).tolist()


class Draws:
    """A campaign stream: ``coin()`` is the next double of a buffer of
    ``rng.random(_DRAW_BLOCK)``, refilled when used up, and ``lu(lo, hi)``
    the next slot of exp(log lo + (log hi - log lo) * u) over the whole
    buffer u, mapped once per (lo, hi) pair a block meets.  The values are
    those of scalar ``rng.random()`` and :func:`_lu` calls, in order.  A
    block may draw past the stream's last value, so wrap only a generator
    that nothing else reads: each campaign stream has its own SeedSequence."""

    __slots__ = ("_rng", "_u", "_tables", "_next")

    def __init__(self, rng):
        self._rng = rng
        self._u = None
        self._tables = {}
        self._next = _DRAW_BLOCK   # the buffer is used up: the first draw fills it

    def _draw(self, pair):
        i = self._next
        if i == _DRAW_BLOCK:
            self._u = self._rng.random(_DRAW_BLOCK)
            self._tables = {}
            i = 0
        self._next = i + 1
        table = self._tables.get(pair)
        if table is None:
            if pair is None:
                table = self._u.tolist()
            else:
                log_lo = np.log(pair[0])
                table = np.exp(log_lo + (np.log(pair[1]) - log_lo) * self._u).tolist()
            self._tables[pair] = table
        return table[i]

    def lu(self, lo, hi) -> float:
        return self._draw((lo, hi))

    def coin(self) -> float:
        return self._draw(None)


def sample_args(tag: str, ratio: float, draws: Draws) -> tuple:
    """Draw one in-regime argument tuple with the case ratio pinned, from a
    campaign stream: its values are those of scalar draws on the stream's
    generator, which nothing else may read."""
    return asym.sample_case(tag, ratio, draws.lu, draws.coin)


def reference_value(tag: str, args) -> float:
    """Reference evaluator matched to a case's kind (duplication route)."""
    return dispatch.case_reference(asym.case_kind(tag), args)


def _oracle_values(kind: str, rows) -> list[tuple[float, float]]:
    """Oracle (value, error estimate) at each of a case's argument rows, as
    one batch: every row of a case takes its ``kind``'s route."""
    routes = [asym.reference_route(kind, args) for args in rows]
    if not routes:
        return []
    kind, _, factor = routes[0]
    return [(factor * value, factor * err) for value, err in
            quad_oracle.oracle_batch(kind, [args for _, args, _ in routes])]


def _theta_classify(case, args, report):
    stats = report.theta
    value = dispatch.case_reference(case.kind, args)
    window = asym._theta_window(case, args, value)
    if window is None:
        stats["ill_conditioned"] = stats.get("ill_conditioned", 0) + 1
        return
    slo, shi, sigma, theta = window
    band = max(4.0 * math.ulp(max(abs(slo), abs(shi))), sigma)
    if slo < theta < shi:
        stats["inside"] = stats.get("inside", 0) + 1
    elif abs(theta - slo) <= band or abs(theta - shi) <= band:
        stats["endpoint"] = stats.get("endpoint", 0) + 1
    else:
        stats["outside"] = stats.get("outside", 0) + 1
        report.violate({"kind": "theta", "args": list(args), "theta": theta,
                        "bracket": [slo, shi]})


def _enclosures(case, campaign: Campaign, report: CampaignReport):
    """Yield (ratio, args, enclosure) for each in-regime sample of the case
    row ``case``, drawn by its sampler and enclosed on the row.

    Counts gated and evaluated samples on ``report`` and records the largest
    finite relative width per ratio.
    """
    index = asym.CASE_TAGS.index(case.tag)
    sample, enclose = asym._sample, asym._enclose
    for ri, ratio in enumerate(campaign.ratios):
        draws = Draws(np.random.default_rng(
            np.random.SeedSequence([campaign.seed, index, ri])))
        lu, coin = draws.lu, draws.coin
        wmax = 0.0
        for _ in range(campaign.samples):
            args = sample(case, ratio, lu, coin)
            try:
                enc = enclose(case, args)
            except RegimeError:
                report.gated += 1
                continue
            report.evaluated += 1
            yield ratio, args, enc
            rw = enc.rel_width()
            if math.isfinite(rw):
                wmax = max(wmax, rw)
        report.max_rel_width[ratio] = wmax


def run_containment(campaign: Campaign) -> CampaignReport:
    """Sample in-regime tuples and assert the oracle lies in every enclosure."""
    case = asym._case(campaign.case)
    report = CampaignReport(case.tag, "containment", campaign.seed, campaign.ratios,
                            campaign.samples)
    t0 = time.perf_counter()
    samples = list(_enclosures(case, campaign, report))
    values = _oracle_values(case.kind, [args for _, args, _ in samples])
    for (ratio, args, enc), (value, err) in zip(samples, values):
        if not enc.contains(value, containment_slack(err, value)):
            report.violate({"kind": "containment", "ratio": ratio, "args": list(args),
                            "oracle": value, "lo": enc.lo, "hi": enc.hi})
        if ratio in THETA_RATIOS:
            _theta_classify(case, args, report)
    report.wall_time = time.perf_counter() - t0
    return report


def run_order_fit(case: str, seed: int = 42) -> CampaignReport:
    """Least-squares slope of log(max relative width) against log(ratio) at
    _ORDER_SAMPLES samples on each of _ORDER_RATIOS, judged against the slope
    on the case's row, which was fitted there."""
    row = asym._case(case)
    report = CampaignReport(case, "order", seed, _ORDER_RATIOS, _ORDER_SAMPLES)
    t0 = time.perf_counter()
    for _ in _enclosures(row, Campaign(case, _ORDER_RATIOS, _ORDER_SAMPLES, seed), report):
        pass
    xs, ys = zip(*[(r, w) for r, w in report.max_rel_width.items() if w > 0.0])
    report.slope = float(np.polyfit(np.log(xs), np.log(ys), 1)[0])
    report.expected = row.slope
    report.wall_time = time.perf_counter() - t0
    return report


def expected_slope(case: str) -> float:
    """The order-fit slope on the case's registry row."""
    return asym._case(case).slope


# --------------------------------------------------------------------------
# identity suite
# --------------------------------------------------------------------------


def _on_rows(k, check):
    """Identity ``check(*row)`` on rows of ``k`` draws from [1e-3, 1e3]."""
    return lambda rng, count: starmap(check, _lu_rows(rng, 1e-3, 1e3, count, k))


def _on_modulus(check):
    """Identity ``check(k)`` on moduli drawn uniformly from [0.05, 0.995]."""
    return lambda rng, count: (check(k) for size in _block_sizes(count)
                               for k in rng.uniform(0.05, 0.995, size).tolist())


def _per_draw(check):
    """Identity ``check(rng)`` that makes its own draws, one tuple per call."""
    return lambda rng, count: (check(rng) for _ in range(count))


def _on_stream(check):
    """Identity ``check(draws)`` that makes its own draws, one tuple per call,
    from a campaign stream over the identity's generator."""
    return lambda rng, count: map(check, repeat(Draws(rng), count))


def _triple(rng):
    return (_lu(rng, 1e-3, 1e3), _lu(rng, 1e-3, 1e3), _lu(rng, 1e-3, 1e3))


def _rel_err(a, b):
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0.0 else 0.0


def _id_perm_symmetry(x, y, z, p):
    perms = [(x, y, z), (x, z, y), (y, x, z), (y, z, x), (z, x, y), (z, y, x)]
    rf0 = core.rf(x, y, z)
    rg0 = core.rg(x, y, z)
    rj0 = core.rj(x, y, z, p)
    for q in perms:
        if core.rf(*q) != rf0 or core.rg(*q) != rg0 or core.rj(*q, p) != rj0:
            return f"permutation asymmetry at {q}"
    if core.rd(x, y, z) != core.rd(y, x, z):
        return f"rd swap asymmetry at {(x, y, z)}"
    return None


def _id_homogeneity(rng):
    x, y, z = _triple(rng)
    p = _lu(rng, 1e-3, 1e3)
    lam = _lu(rng, 1e-3, 1e3)
    checks = [
        (core.rf(lam * x, lam * y, lam * z), lam ** -0.5 * core.rf(x, y, z)),
        (core.rd(lam * x, lam * y, lam * z), lam ** -1.5 * core.rd(x, y, z)),
        (core.rj(lam * x, lam * y, lam * z, lam * p), lam ** -1.5 * core.rj(x, y, z, p)),
        (core.rg(lam * x, lam * y, lam * z), lam ** 0.5 * core.rg(x, y, z)),
    ]
    # general scale factors: duplication rounding differs, allow 2e-14
    for a, b in checks:
        if _rel_err(a, b) > 2e-14:
            return f"homogeneity drift {_rel_err(a, b):.2e} at lam={lam}"
    # power-of-four scaling commutes with every duplication step exactly
    k = int(rng.integers(-4, 5))
    lam4 = 4.0 ** k
    if core.rf(lam4 * x, lam4 * y, lam4 * z) != 2.0 ** -k * core.rf(x, y, z):
        return f"exact power-of-four scaling failed at k={k}"
    return None


def _id_reduce_rc(x, y, _):
    if _rel_err(core.rf(x, y, y), core.rc(x, y)) > 1e-13:
        return f"rf(x,y,y) vs rc mismatch at {(x, y)}"
    return None


def _id_reduce_rd(x, y, z):
    if core.rj(x, y, z, z) != core.rd(x, y, z):
        return f"rj(x,y,z,z) vs rd mismatch at {(x, y, z)}"
    return None


def _id_rg_three_term(x, y, z):
    lhs = 6.0 * core.rg(x, y, z)
    rhs = (x * (y + z) * core.rd(y, z, x) + y * (z + x) * core.rd(z, x, y)
           + z * (x + y) * core.rd(x, y, z))
    if _rel_err(lhs, rhs) > 1e-11:
        return f"three-term decomposition off by {_rel_err(lhs, rhs):.2e}"
    return None


def _id_rg_complete_pair(x, y, _):
    lhs = 6.0 * core.rg(x, y, 0.0)
    rhs = x * y * (core.rd(0.0, x, y) + core.rd(0.0, y, x))
    if _rel_err(lhs, rhs) > 1e-11:
        return f"complete pair decomposition off by {_rel_err(lhs, rhs):.2e}"
    return None


def _id_rd_cyclic(x, y, z):
    lhs = core.rd(x, y, z) + core.rd(z, x, y) + core.rd(z, y, x)
    rhs = 3.0 / math.sqrt(x * y * z)
    if _rel_err(lhs, rhs) > 1e-11:
        return f"cyclic sum off by {_rel_err(lhs, rhs):.2e}"
    return None


def _id_rg_decomposition(rng):
    vals = list(_triple(rng))
    zi = int(rng.integers(0, 3))
    z = vals[zi]
    x, y = [v for i, v in enumerate(vals) if i != zi]
    lhs = 2.0 * core.rg(x, y, z)
    rhs = z * core.rf(x, y, z) - (z - x) * (z - y) / 3.0 * core.rd(x, y, z) \
        + math.sqrt(x * y / z)
    if _rel_err(lhs, rhs) > 1e-11:
        return f"rg decomposition off by {_rel_err(lhs, rhs):.2e}"
    return None


def _id_legendre_k_minus_e(k):
    kk = 1.0 - k * k
    lhs = core.legendre_k(k) - core.legendre_e(k)
    rhs = k * k / 3.0 * core.rd(0.0, kk, 1.0)
    if _rel_err(lhs, rhs) > 1e-12:
        return f"K-E relation off by {_rel_err(lhs, rhs):.2e} at k={k}"
    return None


def _id_legendre_e_complement(k):
    kk = 1.0 - k * k
    lhs = core.legendre_e(k) - kk * core.legendre_k(k)
    rhs = k * k * kk / 3.0 * core.rd(0.0, 1.0, kk)
    if _rel_err(lhs, rhs) > 1e-12:
        return f"E complement relation off by {_rel_err(lhs, rhs):.2e} at k={k}"
    return None


def _id_rf_between_rc(x, y, z):
    v = core.rf(x, y, z)
    lo = core.rc(x, 0.5 * (y + z))
    hi = core.rc(x, math.sqrt(y * z))
    band = 4.0 * math.ulp(max(abs(lo), abs(hi), abs(v)))
    if not (lo - band <= v <= hi + band):
        return f"two-sided rc bound violated at {(x, y, z)}"
    return None


def _id_agm_chain(draws):
    x, y, _ = (draws.lu(1e-3, 1e3) for _ in range(3))
    if draws.coin() < 0.1:
        y = x  # equality probes
    a, g = (x + y) / 2.0, math.sqrt(x * y)
    chain = [
        1.0 / math.sqrt(a),
        math.sqrt(2.0 / (a + g)),
        2.0 / (math.sqrt((a + g) / 2.0) + math.sqrt(g)),
        (2.0 / math.pi) * core.rf(x, y, 0.0),
        (2.0 / (a * g + g * g)) ** 0.25,
        1.0 / math.sqrt(g),
    ]
    for u, v in zip(chain, chain[1:]):
        if u > v and not equal_within_band(u, v):
            return f"agm chain order violated at {(x, y)}"
    if x == y:
        for u, v in zip(chain, chain[1:]):
            if not equal_within_band(u, v):
                return f"agm chain equality missed at x=y={x}"
    return None


def _id_agm_rf_complete(x, y, _):
    # Legendre's relation (DLMF 19.7.1) in symmetric form (DLMF 19.21.1,
    # scaled by homogeneity).  rf with a zero argument and agm run the same
    # AGM loop, so each is checked against rd's duplication and a closed
    # form, not against the other
    lhs = core.rf(x + y, x, 0.0) * core.rd(0.0, x + y, y) + core.rd(0.0, x + y, x) \
        * math.pi / (2.0 * core.agm(math.sqrt(x + y), math.sqrt(y)))
    rhs = 1.5 * math.pi / (x * y)
    if _rel_err(lhs, rhs) > 1e-12:
        return f"Legendre relation off by {_rel_err(lhs, rhs):.2e}"
    return None


def _id_log_kernel_bracket(rng, count):
    """Messages of ``count`` draws; their oracle values come as one batch."""
    draws = Draws(rng)
    rows, brackets = [], []
    for _ in range(count):
        z = draws.lu(1e-3, 1e3)
        s = 0.01 * z * draws.lu(1e-4, 1.0)
        x = s * draws.lu(0.01, 1.0)
        y = s - x if s > x else 0.5 * s
        a, g = (x + y) / 2.0, math.sqrt(x * y)
        level = math.log(2.0 * z / (a + g))
        rows.append((x, y, z))
        brackets.append((level / (z - g), level / (z - a)))
    for args, (lo, hi), (v, err) in zip(rows, brackets,
                                        quad_oracle.oracle_batch("Rm1", rows)):
        slack = containment_slack(err, v)
        yield None if lo - slack <= v <= hi + slack else \
            f"log-kernel bracket violated at {args}"


def _id_log_derivative_shift(rng, count):
    """Messages of ``count`` draws; one oracle batch gives M = lhs + log(max) / sqrt(xyz)."""
    rows = list(_lu_rows(rng, 1e-2, 1e2, count, 3))
    for (x, y, z), (m, _) in zip(rows, quad_oracle.oracle_batch("Mlog", rows)):
        lhs = m - math.log(max(x, y, z)) * (x * y * z) ** -0.5
        lam = math.sqrt(x * y) + math.sqrt(x * z) + math.sqrt(y * z)
        rhs = (x * y * z) ** -0.5 * math.log(lam * lam / (4.0 * x * y * z)) \
            - (4.0 / 3.0) * core.rj(x + lam, y + lam, z + lam, lam)
        yield f"log-derivative identity off by {_rel_err(lhs, rhs):.2e}" \
            if _rel_err(lhs, rhs) > 1e-8 else None


# every identity is fn(rng, count), yielding one message per draw: None
# when the identity holds, else a description of the miss
_IDENTITIES = {
    "perm-symmetry": _on_rows(4, _id_perm_symmetry),
    "homogeneity": _per_draw(_id_homogeneity),
    "reduce-rc": _on_rows(3, _id_reduce_rc),
    "reduce-rd": _on_rows(3, _id_reduce_rd),
    "rg-three-term": _on_rows(3, _id_rg_three_term),
    "rg-complete-pair": _on_rows(3, _id_rg_complete_pair),
    "rd-cyclic": _on_rows(3, _id_rd_cyclic),
    "rg-decomposition": _per_draw(_id_rg_decomposition),
    "legendre-k-minus-e": _on_modulus(_id_legendre_k_minus_e),
    "legendre-e-complement": _on_modulus(_id_legendre_e_complement),
    "rf-between-rc": _on_rows(3, _id_rf_between_rc),
    "agm-chain": _on_stream(_id_agm_chain),
    "agm-rf-complete": _on_rows(3, _id_agm_rf_complete),
    "log-kernel-bracket": _id_log_kernel_bracket,
    "log-derivative-shift": _id_log_derivative_shift,
}

IDENTITY_TAGS = tuple(_IDENTITIES)

# quadrature-backed identities are costly; cap their per-identity sample count
_SLOW_IDENTITIES = {"log-derivative-shift": 10000, "log-kernel-bracket": 10000}


def run_identities(seed: int, n: int, which=None) -> CampaignReport:
    """Execute the core identity suite on n fuzzed tuples per identity."""
    if n < 1:
        raise DomainError("n must be >= 1")
    tags = tuple(which) if which else IDENTITY_TAGS
    for t in tags:
        if t not in _IDENTITIES:
            raise DomainError(f"unknown identity {t!r}; expected one of {IDENTITY_TAGS}")
    report = CampaignReport("identities", "identity", seed, (), n)
    t0 = time.perf_counter()
    for ti, t in enumerate(tags):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 4242, ti]))
        count = min(n, _SLOW_IDENTITIES.get(t, n))
        for msg in _IDENTITIES[t](rng, count):
            report.evaluated += 1
            if msg is not None:
                report.violate({"kind": t, "detail": msg})
    report.wall_time = time.perf_counter() - t0
    return report


# --------------------------------------------------------------------------
# Appendix inequality fuzz
# --------------------------------------------------------------------------


def run_bounds_fuzz(tag: str, n: int = 100000, seed: int = 42) -> CampaignReport:
    """Fuzz one Appendix inequality; violations outside the 4-ulp band count."""
    if tag not in bounds.INEQ_TAGS:
        raise DomainError(f"unknown inequality {tag!r}")
    if n < 1:
        raise DomainError("n must be >= 1")
    report = CampaignReport(tag, "bounds", seed, (), n)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 777, bounds.INEQ_TAGS.index(tag)]))
    nargs = bounds.arity(tag)
    strict_lo, strict_hi = bounds.strictness(tag)
    t0 = time.perf_counter()
    for i, (t, *vals) in enumerate(_lu_rows(rng, 1e-6, 1e6, n, nargs)):
        equal_probe = i % 10 == 9
        if equal_probe and nargs >= 3:
            vals = [vals[0]] * (nargs - 1) if i % 20 == 19 else [vals[0], vals[0]] + vals[2:]
        br = bounds.bracket(tag, t, *vals)
        report.evaluated += 1
        band = 4.0 * math.ulp(max(abs(br.lo), abs(br.mid), abs(br.hi)))
        bad = not (br.lo <= br.mid + band and br.mid <= br.hi + band)
        if not bad and not equal_probe:
            if strict_lo and br.lo >= br.mid and not equal_within_band(br.lo, br.mid):
                bad = True
            if strict_hi and br.mid >= br.hi and not equal_within_band(br.mid, br.hi):
                bad = True
        if bad:
            report.violate({"kind": tag, "args": [t] + vals,
                            "bracket": [br.lo, br.mid, br.hi]})
    # monotonicity of the A3/A4 solved factor along increasing t
    if tag in ("A3", "A4") and report.violations == 0:
        x = 3.7
        ts = [10.0 ** (0.5 * k - 6.0) for k in range(25)]
        thetas = [bounds.theta_of(tag, t, x) for t in ts]
        seq = thetas if tag == "A3" else thetas[::-1]
        if any(a >= b for a, b in zip(seq, seq[1:])):
            report.violate({"kind": tag, "detail": "monotonicity failed"})
    report.wall_time = time.perf_counter() - t0
    return report


# --------------------------------------------------------------------------
# report output
# --------------------------------------------------------------------------

_CSV_FIELDS = ("case", "ratio", "samples", "violations", "max_rel_width",
               "slope", "seed")


def write_report_json(reports, path) -> None:
    from ._fmt import dumps

    payload = {"reports": [r.to_dict() for r in reports]}
    with open(path, "w") as fh:
        fh.write(dumps(payload))
        fh.write("\n")


def write_report_csv(reports, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_CSV_FIELDS)
        writer.writeheader()
        for rep in reports:
            for row in rep.rows():
                writer.writerow(row)
