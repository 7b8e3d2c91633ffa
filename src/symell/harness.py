"""Verification campaigns: containment fuzzing, order fits, identity suites.

A campaign pins a case's smallness ratio to each grid value, samples the
remaining degrees of freedom with the case's sampler in the ``asym``
registry, and checks that the quadrature oracle lands inside every
enclosure.  Containment is asserted up to the oracle's own uncertainty:
slack = max(4 * quadrature error estimate, 2e-13 * |value|), since the
sharpest enclosures at ratio 1e-7 are narrower than anything float64
quadrature can resolve.

A campaign looks its case row up in ``asym`` once and runs each sample
on it: ``asym._sample`` draws the tuple, floats of the row's arity, and one
``asym._call`` runs the row's gate, the argument window and its formula,
but no lookup by tag and no check of the sampler's own arguments.  The
loop keeps the formula result and the enclosure made from it
(``asym._enclosure_of``); at THETA_RATIOS the symbol window comes from that
result too (``asym._window`` behind ``_call`` with the gate and the window
test off), so a sample's formula runs once.  The true value there is the
reference route's checked body in ``core``, as ``dispatch._KIND`` holds
it: every tuple that a case's gate accepts lies in its route's domain.  It
passes the quadrature oracle's row check too, so a campaign hands its rows
to the oracle's body, ``quadrature._oracle_rows``, as one batch unchecked.
The inequality fuzz likewise looks its ``bounds`` row up once: each drawn
tuple, positive finite floats of the row's arity, goes straight to
``bounds._evaluate``, the body that ``bounds.bracket`` runs after its lookup
and argument check, and the A3/A4 monotonicity check to ``bounds._solve``,
the body of ``theta_of``.

Bracket-realization statistics recover the error symbol from the reference
value per sample; samples whose recovery is ill-conditioned (symbol
uncertainty above 2% of the bracket width) are counted separately instead
of asserted, because inverting a formula whose error coefficient is
~ratio**2 is numerically meaningless at the extreme ratios.

Sample lists are pre-generated from the seed, so reports are reproducible
regardless of evaluation order.  Campaigns draw in seeded blocks, one numpy
call per block, with the arithmetic of one scalar draw per value, so their
reports are those of scalar draws: the containment and order campaigns
through a buffer per (case, ratio) stream (:class:`Draws`), whose tables
stay numpy arrays and are read by index, one slot a draw; the inequality
fuzz and every identity through :func:`_rows`, whose rows are fixed columns
of log-uniform or uniform draws.
"""

from __future__ import annotations

import csv
import math
import operator
import time
from dataclasses import dataclass, field
from itertools import starmap

import numpy as np

from . import asym, bounds, core, dispatch
from . import quadrature as quad_oracle
from ._util import equal_within_band, floats
from .errors import DomainError, RegimeError

__all__ = [
    "Campaign",
    "reference_value",
    "CampaignReport",
    "Draws",
    "IDENTITY_TAGS",
    "containment_slack",
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
        object.__setattr__(self, "ratios", floats("ratios", self.ratios))
        # a campaign that checks nothing must not report a pass
        if not self.ratios:
            raise DomainError("a campaign needs at least one ratio")
        for r in self.ratios:
            if not 0.0 < r < 1.0:
                raise DomainError(f"ratios must lie in (0, 1), got {r}")
        # the report keeps one width per ratio, so a repeat would hide a stream
        if len(set(self.ratios)) < len(self.ratios):
            raise DomainError(f"ratios must not repeat, got {self.ratios}")
        object.__setattr__(self, "samples", _count("samples", self.samples, 1))
        object.__setattr__(self, "seed", _count("seed", self.seed, 0))


def _count(name: str, v, least: int) -> int:
    """``v`` as an int of at least ``least``: a seed (0) or a sample count
    (1).  Anything else is a DomainError that names the value."""
    try:
        n = operator.index(v)
    except TypeError:
        n = None
    if n is None or n < least:
        raise DomainError(f"{name} must be >= {least} and an int, got {v!r}")
    return n


def _rng(seed, *key) -> np.random.Generator:
    """The generator of the campaign stream ``key`` of ``seed``, which is
    checked here, where each stream's SeedSequence is built."""
    return np.random.default_rng(np.random.SeedSequence([_count("seed", seed, 0), *key]))


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

    def rows(self) -> list[list]:
        """Flat rows of the report CSV, in the order of its columns,
        _CSV_FIELDS."""
        if not self.ratios:
            return [[self.case, "", self.samples, self.violations, "", "", self.seed]]
        slope = "" if self.slope is None else repr(self.slope)
        widths = self.max_rel_width
        return [[self.case, repr(r), self.samples, self.violations,
                 repr(widths[r]) if r in widths else "", slope, self.seed]
                for r in self.ratios]


def containment_slack(err_estimate: float, value: float) -> float:
    return max(4.0 * err_estimate, 2e-13 * abs(value))


# --------------------------------------------------------------------------
# argument draws
# --------------------------------------------------------------------------


def _lu(rng, lo, hi):
    """One value log-uniform on [lo, hi) by a scalar numpy call: the
    reference that the block draws, :func:`_rows` and :class:`Draws`,
    reproduce bit for bit."""
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def _rows(rng, count, columns):
    """``count`` rows of one value per column, one ``rng.random`` call per
    _BLOCK rows: a (lo, hi) column is log-uniform on it, by :func:`_lu`'s
    arithmetic, and a None column the uniform double itself.  A block fills
    row by row, so a row holds the next ``len(columns)`` doubles of the
    stream, each as its scalar draw gives it.  It draws no more than the
    rows need, so ``rng`` may serve further draws."""
    lo, hi = np.log([c or (1.0, 1.0) for c in columns]).T
    uniform = [c is None for c in columns]
    for start in range(0, count, _BLOCK):
        u = rng.random((min(_BLOCK, count - start), len(columns)))
        yield from np.where(uniform, u, np.exp(lo + (hi - lo) * u)).tolist()


class Draws:
    """A campaign stream: ``coin()`` is the next double of a buffer of
    ``rng.random(_DRAW_BLOCK)``, refilled when used up, and ``lu(lo, hi)``
    the next slot of a table exp(log lo + (log hi - log lo) * u) over the
    whole buffer u, made once per (lo, hi) pair a block meets.  The values
    are those of scalar ``rng.random()`` and :func:`_lu` calls, in order.

    Each table stays a numpy array, read through a memoryview: indexing one
    gives the slot as a Python float, so a block converts no more values
    than its draws read.  The tables are keyed by lo and then by hi, so a
    draw builds no (lo, hi) tuple, and a pair that a block has not met yet
    costs one KeyError.  A block may draw past the stream's last value, so
    wrap only a generator that nothing else reads: each campaign stream has
    its own SeedSequence."""

    __slots__ = ("_rng", "_u", "_coins", "_tables", "_next")

    def __init__(self, rng):
        self._rng = rng
        self._next = _DRAW_BLOCK   # the buffer is used up: the first draw fills it

    def _fill(self) -> int:
        """Draw the next block; 0, the index of its first slot."""
        u = self._u = self._rng.random(_DRAW_BLOCK)
        self._coins = memoryview(u)
        self._tables = {}
        return 0

    def _table(self, lo, hi) -> memoryview:
        log_lo = np.log(lo)
        table = memoryview(np.exp(log_lo + (np.log(hi) - log_lo) * self._u))
        self._tables.setdefault(lo, {})[hi] = table
        return table

    def lu(self, lo, hi) -> float:
        i = self._next
        if i == _DRAW_BLOCK:
            i = self._fill()
        self._next = i + 1
        try:
            return self._tables[lo][hi][i]
        except KeyError:
            return self._table(lo, hi)[i]

    def coin(self) -> float:
        i = self._next
        if i == _DRAW_BLOCK:
            i = self._fill()
        self._next = i + 1
        return self._coins[i]


def sample_args(tag: str, ratio: float, draws: Draws) -> tuple:
    """Draw one in-regime argument tuple with the case ratio pinned, from a
    campaign stream: its values are those of scalar draws on the stream's
    generator, which nothing else may read."""
    return asym._sample(asym._case(tag), ratio, draws.lu, draws.coin)


def reference_value(tag: str, args) -> float:
    """Reference evaluator matched to a case's kind (duplication route)."""
    return dispatch.case_reference(asym.case_kind(tag), args)


def _oracle_values(kind: str, rows) -> list[tuple[float, float]]:
    """Oracle (value, error estimate) at each of a case's argument rows, as
    one batch: every row of a case routes to one oracle kind, each row
    scaled by its own route's factor (K's depends on k').  The rows have
    passed the case's gate, which implies the oracle's row check, so they
    go to the oracle's body unchecked."""
    routes = [asym.reference_route(kind, args) for args in rows]
    if not routes:
        return []
    values = quad_oracle._oracle_rows(routes[0][0], [args for _, args, _ in routes])
    return [(f * value, f * err) for (_, _, f), (value, err) in zip(routes, values)]


def _theta_classify(case, args, result, report):
    stats = report.theta
    kind, route_args, factor = asym.reference_route(case.kind, args)
    value = factor * dispatch._KIND[kind][2](*route_args)
    window = asym._call(case, args, False, False, asym._window, value, result)
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


def _streams(case, campaign: Campaign):
    """(ratio, lu, coin) per ratio of ``campaign``: the draws of the case
    row's stream at that ratio."""
    index = asym.CASE_TAGS.index(case.tag)
    for ri, ratio in enumerate(campaign.ratios):
        draws = Draws(_rng(campaign.seed, index, ri))
        yield ratio, draws.lu, draws.coin


def _formula_and_enclosure(case, vals):
    """(formula result, enclosure) of a case row at ``vals``: a body for
    ``asym._call``, one formula call."""
    result = case.formula(*vals)
    return result, asym._enclosure_of(case, result)


def run_containment(campaign: Campaign) -> CampaignReport:
    """Sample in-regime tuples and assert the oracle lies in every enclosure.

    Counts gated and evaluated samples and records the largest finite
    relative width per ratio."""
    case = asym._case(campaign.case)
    report = CampaignReport(case.tag, "containment", campaign.seed, campaign.ratios,
                            campaign.samples)
    t0 = time.perf_counter()
    sample, call = asym._sample, asym._call
    samples = []
    for ratio, lu, coin in _streams(case, campaign):
        wmax = 0.0
        for _ in range(campaign.samples):
            args = sample(case, ratio, lu, coin)
            try:
                result, enc = call(case, args, True, True, _formula_and_enclosure)
            except RegimeError:
                report.gated += 1
                continue
            samples.append((ratio, args, result, enc))
            rw = enc.rel_width()
            if math.isfinite(rw):
                wmax = max(wmax, rw)
        report.max_rel_width[ratio] = wmax
    report.evaluated = len(samples)
    values = _oracle_values(case.kind, [args for _, args, _, _ in samples])
    for (ratio, args, result, enc), (value, err) in zip(samples, values):
        if not enc.contains(value, containment_slack(err, value)):
            report.violate({"kind": "containment", "ratio": ratio, "args": list(args),
                            "oracle": value, "lo": enc.lo, "hi": enc.hi})
        if ratio in THETA_RATIOS:
            _theta_classify(case, args, result, report)
    report.wall_time = time.perf_counter() - t0
    return report


def run_order_fit(case: str, seed: int = 42) -> CampaignReport:
    """Least-squares slope of log(max relative width) against log(ratio) at
    _ORDER_SAMPLES samples on each of _ORDER_RATIOS, judged against the slope
    on the case's row, which was fitted there."""
    row = asym._case(case)
    report = CampaignReport(case, "order", seed, _ORDER_RATIOS, _ORDER_SAMPLES)
    t0 = time.perf_counter()
    sample, call, enclosure = asym._sample, asym._call, asym._enclosure
    for ratio, lu, coin in _streams(row, Campaign(case, _ORDER_RATIOS, _ORDER_SAMPLES, seed)):
        wmax = 0.0
        for _ in range(_ORDER_SAMPLES):
            try:
                enc = call(row, sample(row, ratio, lu, coin), True, True, enclosure)
            except RegimeError:
                report.gated += 1
                continue
            report.evaluated += 1
            rw = enc.rel_width()
            if math.isfinite(rw):
                wmax = max(wmax, rw)
        report.max_rel_width[ratio] = wmax
    xs, ys = zip(*[(r, w) for r, w in report.max_rel_width.items() if w > 0.0])
    report.slope = float(np.polyfit(np.log(xs), np.log(ys), 1)[0])
    report.expected = row.slope
    report.wall_time = time.perf_counter() - t0
    return report


# --------------------------------------------------------------------------
# identity suite
# --------------------------------------------------------------------------


def _on_rows(columns, check):
    """Identity ``check(*row)`` on the rows of :func:`_rows` over ``columns``."""
    return lambda rng, count: starmap(check, _rows(rng, count, columns))


_WIDE = (1e-3, 1e3)
_TRIPLE = (_WIDE,) * 3


def _rel_err(a, b):
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0.0 else 0.0


def _off_by(name, lhs, rhs, tol):
    """``<name> off by <e>`` where the relative error e of lhs against rhs
    is above ``tol``, else None: the miss of an identity lhs = rhs."""
    e = _rel_err(lhs, rhs)
    return f"{name} off by {e:.2e}" if e > tol else None


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


def _id_homogeneity(x, y, z, p, lam, u):
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
    k = int(9.0 * u) - 4
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
    return _off_by("three-term decomposition", lhs, rhs, 1e-11)


def _id_rg_complete_pair(x, y, _):
    lhs = 6.0 * core.rg(x, y, 0.0)
    rhs = x * y * (core.rd(0.0, x, y) + core.rd(0.0, y, x))
    return _off_by("complete pair decomposition", lhs, rhs, 1e-11)


def _id_rd_cyclic(x, y, z):
    lhs = core.rd(x, y, z) + core.rd(z, x, y) + core.rd(z, y, x)
    rhs = 3.0 / math.sqrt(x * y * z)
    return _off_by("cyclic sum", lhs, rhs, 1e-11)


def _id_rg_decomposition(a, b, c, u):
    vals, zi = (a, b, c), int(3.0 * u)
    z = vals[zi]
    x, y = [v for i, v in enumerate(vals) if i != zi]
    lhs = 2.0 * core.rg(x, y, z)
    rhs = z * core.rf(x, y, z) - (z - x) * (z - y) / 3.0 * core.rd(x, y, z) \
        + math.sqrt(x * y / z)
    return _off_by("rg decomposition", lhs, rhs, 1e-11)


def _modulus(u):
    """k uniform on [0.05, 0.995), as ``rng.uniform(0.05, 0.995)`` maps u."""
    return 0.05 + (0.995 - 0.05) * u


def _id_legendre_k_minus_e(u):
    k = _modulus(u)
    kk = 1.0 - k * k
    lhs = core.legendre_k(k) - core.legendre_e(k)
    rhs = k * k / 3.0 * core.rd(0.0, kk, 1.0)
    miss = _off_by("K-E relation", lhs, rhs, 1e-12)
    return miss and f"{miss} at k={k}"


def _id_legendre_e_complement(u):
    k = _modulus(u)
    kk = 1.0 - k * k
    lhs = core.legendre_e(k) - kk * core.legendre_k(k)
    rhs = k * k * kk / 3.0 * core.rd(0.0, 1.0, kk)
    miss = _off_by("E complement relation", lhs, rhs, 1e-12)
    return miss and f"{miss} at k={k}"


def _id_rf_between_rc(x, y, z):
    v = core.rf(x, y, z)
    lo = core.rc(x, 0.5 * (y + z))
    hi = core.rc(x, math.sqrt(y * z))
    band = 4.0 * math.ulp(max(abs(lo), abs(hi), abs(v)))
    if not (lo - band <= v <= hi + band):
        return f"two-sided rc bound violated at {(x, y, z)}"
    return None


def _id_agm_chain(x, y, _, coin):
    if coin < 0.1:
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
    return _off_by("Legendre relation", lhs, rhs, 1e-12)


def _id_log_kernel_bracket(rng, count):
    """Messages of ``count`` draws; their oracle values come as one batch."""
    rows, brackets = [], []
    for z, t, w in _rows(rng, count, (_WIDE, (1e-4, 1.0), (0.01, 1.0))):
        s = 0.01 * z * t
        x = s * w
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
    rows = list(_rows(rng, count, ((1e-2, 1e2),) * 3))
    for (x, y, z), (m, _) in zip(rows, quad_oracle.oracle_batch("Mlog", rows)):
        lhs = m - math.log(max(x, y, z)) * (x * y * z) ** -0.5
        lam = math.sqrt(x * y) + math.sqrt(x * z) + math.sqrt(y * z)
        rhs = (x * y * z) ** -0.5 * math.log(lam * lam / (4.0 * x * y * z)) \
            - (4.0 / 3.0) * core.rj(x + lam, y + lam, z + lam, lam)
        yield _off_by("log-derivative identity", lhs, rhs, 1e-8)


# every identity is fn(rng, count), yielding one message per draw: None
# when the identity holds, else a description of the miss
_IDENTITIES = {
    "perm-symmetry": _on_rows((_WIDE,) * 4, _id_perm_symmetry),
    "homogeneity": _on_rows((_WIDE,) * 5 + (None,), _id_homogeneity),
    "reduce-rc": _on_rows(_TRIPLE, _id_reduce_rc),
    "reduce-rd": _on_rows(_TRIPLE, _id_reduce_rd),
    "rg-three-term": _on_rows(_TRIPLE, _id_rg_three_term),
    "rg-complete-pair": _on_rows(_TRIPLE, _id_rg_complete_pair),
    "rd-cyclic": _on_rows(_TRIPLE, _id_rd_cyclic),
    "rg-decomposition": _on_rows(_TRIPLE + (None,), _id_rg_decomposition),
    "legendre-k-minus-e": _on_rows((None,), _id_legendre_k_minus_e),
    "legendre-e-complement": _on_rows((None,), _id_legendre_e_complement),
    "rf-between-rc": _on_rows(_TRIPLE, _id_rf_between_rc),
    "agm-chain": _on_rows(_TRIPLE + (None,), _id_agm_chain),
    "agm-rf-complete": _on_rows(_TRIPLE, _id_agm_rf_complete),
    "log-kernel-bracket": _id_log_kernel_bracket,
    "log-derivative-shift": _id_log_derivative_shift,
}

IDENTITY_TAGS = tuple(_IDENTITIES)

# quadrature-backed identities are costly; cap their per-identity sample count
_SLOW_IDENTITIES = {"log-derivative-shift": 10000, "log-kernel-bracket": 10000}


def run_identities(seed: int, n: int, which=None) -> CampaignReport:
    """Execute the core identity suite on n fuzzed tuples per identity."""
    n = _count("n", n, 1)
    tags = tuple(which) if which else IDENTITY_TAGS
    for t in tags:
        if t not in _IDENTITIES:
            raise DomainError(f"unknown identity {t!r}; expected one of {IDENTITY_TAGS}")
    report = CampaignReport("identities", "identity", seed, (), n)
    t0 = time.perf_counter()
    for ti, t in enumerate(tags):
        rng = _rng(seed, 4242, ti)
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
    ineq = bounds._ineq(tag)
    n = _count("n", n, 1)
    report = CampaignReport(tag, "bounds", seed, (), n)
    rng = _rng(seed, 777, bounds.INEQ_TAGS.index(tag))
    nargs = ineq.arity
    strict_lo, strict_hi = ineq.strict
    evaluate, ulp = bounds._evaluate, math.ulp
    t0 = time.perf_counter()
    # each row is t and then the variables: positive finite floats of the
    # row's arity, which is all that bounds._checked would ensure
    for i, row in enumerate(_rows(rng, n, ((1e-6, 1e6),) * nargs)):
        equal_probe = i % 10 == 9
        if equal_probe and nargs >= 3:
            row[2:] = [row[1]] * (nargs - 2) if i % 20 == 19 else [row[1]] + row[3:]
        lo, mid, hi = evaluate(tag, ineq, row)
        band = 4.0 * ulp(max(abs(lo), abs(mid), abs(hi)))
        bad = not (lo <= mid + band and mid <= hi + band)
        if not bad and not equal_probe:
            if strict_lo and lo >= mid and not equal_within_band(lo, mid):
                bad = True
            if strict_hi and mid >= hi and not equal_within_band(mid, hi):
                bad = True
        if bad:
            report.violate({"kind": tag, "args": row, "bracket": [lo, mid, hi]})
    report.evaluated = n
    # monotonicity of the A3/A4 solved factor along increasing t
    if tag in ("A3", "A4") and report.violations == 0:
        x = 3.7
        ts = [10.0 ** (0.5 * k - 6.0) for k in range(25)]
        thetas = [bounds._solve(tag, ineq, (t, x)) for t in ts]
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
        writer = csv.writer(fh)
        writer.writerow(_CSV_FIELDS)
        for rep in reports:
            writer.writerows(rep.rows())
