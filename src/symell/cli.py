"""Command-line front end.

Subcommands: eval, asym, bounds-check, verify, table, identities.
stdout carries data only; diagnostics go to stderr.  ``verify`` and
``identities`` import the harness (numpy) when they run; the other
subcommands, ``asym`` among them, need only the standard library.  The
inequality catalog (``bounds``) is imported by ``bounds-check`` and
``verify`` alone.  The case catalog (``asym``) is imported by ``asym``,
``table`` and ``verify`` when they run, and by ``eval`` only where its
request reaches the dispatcher's ratio pass.  Exit codes: 0 success,
1 verification violations, 2 domain or convergence error, 3 tolerance
unachievable, 4 regime error, 64 malformed usage.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from typing import TYPE_CHECKING

from . import dispatch
from ._fmt import dumps, plain
from ._util import KIND_ARITY
from .errors import ConvergenceError, DomainError, RegimeError, ToleranceError

if TYPE_CHECKING:
    from .asym import Enclosure

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_DOMAIN = 2
EXIT_TOLERANCE = 3
EXIT_REGIME = 4
EXIT_USAGE = 64

# accept scientific notation in negative positionals (argparse's default
# matcher only covers plain decimals)
_NEG_NUM = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        self._negative_number_matcher = _NEG_NUM

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


# the argparse types of option values turn text into numbers, so a malformed
# number is a usage error; the commands check the numbers (DomainError, exit 2)
def _number(text: str, cast=float):
    try:
        return cast(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid {cast.__name__}: {text!r}") from None


def _invalid_choice(value: str, choices) -> str:
    """argparse's own text for a value outside ``choices``."""
    return f"invalid choice: {value!r} (choose from {', '.join(map(repr, choices))})"


def _case_arg(text: str) -> str:
    """The asym command's CASE: checked here, not by ``choices``, so that
    building the parser does not load the case catalog."""
    from . import asym

    if text not in asym.CASE_TAGS:
        raise argparse.ArgumentTypeError(_invalid_choice(text, asym.CASE_TAGS))
    return text


def _build_parser() -> _Parser:
    top = _Parser(prog="symell",
                  description="Symmetric elliptic integrals with certified enclosures.")
    sub = top.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("eval", help="evaluate an integral at a requested tolerance")
    p.add_argument("kind", choices=sorted(k.lower() for k in dispatch.KINDS))
    p.add_argument("values", nargs="+", type=float)
    p.add_argument("--rel-tol", type=float, default=1e-9)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("asym", help="certified enclosure of one asymptotic case")
    p.add_argument("case", type=_case_arg, metavar="CASE")
    p.add_argument("values", nargs="+", type=float)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("bounds-check", help="evaluate one Appendix inequality bracket")
    p.add_argument("ineq", metavar="ID")  # checked by the command
    p.add_argument("values", nargs="+", type=float)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify", help="run verification campaigns and write reports")
    p.add_argument("--cases", default="all",
                   help="'all', comma list, or colon range of case/inequality tags; "
                        "'identities' runs the identity suite")
    p.add_argument("--ratios", type=_ratios_arg, default="1e-2:1e-7",
                   help="colon range of decades (1e-2:1e-7) or comma list")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=os.environ.get("SEED") or "42",
                   help="campaign seed (flag beats the SEED environment variable)")
    p.add_argument("--out", default="verify_report",
                   help="output prefix; writes <out>.json and <out>.csv")

    p = sub.add_parser("table", help="enclosure table for the complete integrals")
    p.add_argument("--function", choices=("K", "E"), required=True)
    p.add_argument("--kprime-grid", type=_grid_arg, required=True,
                   help="comma list, or lo:hi:n for n log-spaced points")
    p.add_argument("--format", choices=("csv", "json", "tsv"), default="csv")

    p = sub.add_parser("identities", help="run the identity suite")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--json", action="store_true")
    return top


# --------------------------------------------------------------------------
# eval
# --------------------------------------------------------------------------


def _cmd_eval(args) -> int:
    kind = args.kind.upper()
    vals = tuple(args.values)
    arity = KIND_ARITY[kind]
    # checked here, before EvalRequest: a wrong count is a usage error (64),
    # not a domain error (2)
    if len(vals) != arity:
        print(f"error: {args.kind} takes {arity} arguments, got {len(vals)}",
              file=sys.stderr)
        return EXIT_USAGE
    report = dispatch.evaluate(dispatch.EvalRequest(kind, vals, args.rel_tol))
    if args.json:
        enc = report.enclosure
        doc = {
            "kind": kind,
            "args": list(vals),
            "rel_tol": float(args.rel_tol),
            "value": report.value,
            "method": report.method_label(),
            "guaranteed_rel_err": report.guaranteed_rel_err,
            "enclosure": None if enc is None else _enc_dict(enc),
        }
        print(dumps(doc))
    else:
        print(f"{plain(report.value)} {report.method_label()} "
              f"{plain(report.guaranteed_rel_err)}")
    return EXIT_OK


def _enc_dict(enc: Enclosure) -> dict:
    return {
        "case": enc.case,
        "lo": enc.lo,
        "hi": enc.hi,
        "estimate": enc.estimate,
        "strict_lo": enc.strict_lo,
        "strict_hi": enc.strict_hi,
    }


# --------------------------------------------------------------------------
# asym
# --------------------------------------------------------------------------


def _theta(tag: str, vals: tuple, reference: float) -> float | None:
    """The case's error symbol at the reference; None if its recovery is
    ill-conditioned."""
    from . import asym

    window = asym.theta_window(tag, vals, reference)
    return None if window is None else window[3]


def _cmd_asym(args) -> int:
    from . import asym

    tag = args.case
    vals = tuple(args.values)
    arity = KIND_ARITY[asym.case_kind(tag)]
    if len(vals) != arity:
        print(f"error: {tag} takes {arity} arguments, got {len(vals)}", file=sys.stderr)
        return EXIT_USAGE
    enc = asym.enclose(tag, *vals)
    reference = dispatch.case_reference(asym.case_kind(tag), vals)
    theta = _theta(tag, vals, reference)
    ratio = asym.case_ratio(tag, *vals)
    if args.json:
        doc = {
            "case": tag,
            "args": list(vals),
            "estimate": enc.estimate,
            "lo": enc.lo,
            "hi": enc.hi,
            "strict_lo": enc.strict_lo,
            "strict_hi": enc.strict_hi,
            "theta": theta,
            "reference": reference,
            "ratio": ratio,
            "contains_reference": enc.contains(reference, 2e-13 * abs(reference)),
        }
        print(dumps(doc))
    else:
        parts = [f"estimate={plain(enc.estimate)}", f"lo={plain(enc.lo)}",
                 f"hi={plain(enc.hi)}",
                 f"theta={'none' if theta is None else plain(theta)}",
                 f"ratio={plain(ratio)}"]
        print(" ".join(parts))
    return EXIT_OK


# --------------------------------------------------------------------------
# bounds-check
# --------------------------------------------------------------------------


def _cmd_bounds(args) -> int:
    from . import bounds

    tag = args.ineq
    if tag not in bounds.INEQ_TAGS:
        print(f"error: argument ID: {_invalid_choice(tag, bounds.INEQ_TAGS)}",
              file=sys.stderr)
        return EXIT_USAGE
    vals = tuple(args.values)
    if len(vals) != bounds.arity(tag):
        print(f"error: {tag} takes {bounds.arity(tag)} arguments (t first), got {len(vals)}",
              file=sys.stderr)
        return EXIT_USAGE
    br = bounds.bracket(tag, *vals)
    theta = bounds.theta_of(tag, *vals) if tag in bounds.THETA_TAGS else None
    if args.json:
        doc = {"id": tag, "args": list(vals), "lo": br.lo, "mid": br.mid,
               "hi": br.hi, "theta": theta}
        print(dumps(doc))
    else:
        t = "" if theta is None else f" theta={plain(theta)}"
        print(f"lo={plain(br.lo)} mid={plain(br.mid)} hi={plain(br.hi)}{t}")
    return EXIT_OK


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------


def _expand_range(spec: str, ordering: tuple[str, ...]) -> list[str] | None:
    if ":" not in spec:
        return None
    lo, _, hi = spec.partition(":")
    if lo in ordering and hi in ordering:
        i, j = ordering.index(lo), ordering.index(hi)
        if i <= j:
            return list(ordering[i:j + 1])
    return None


def _parse_cases(spec: str) -> tuple[list[str], list[str], bool]:
    """Returns (asym cases, inequality ids, run identity suite)."""
    from . import asym, bounds

    if spec == "all":
        return list(asym.CASE_TAGS), list(bounds.INEQ_TAGS), True
    cases: list[str] = []
    ineqs: list[str] = []
    identities = False
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if part == "identities":
            identities = True
            continue
        if part in asym.CASE_TAGS:
            cases.append(part)
            continue
        if part in bounds.INEQ_TAGS:
            ineqs.append(part)
            continue
        rng = _expand_range(part, asym.CASE_TAGS)
        if rng is not None:
            cases.extend(rng)
            continue
        rng = _expand_range(part, bounds.INEQ_TAGS)
        if rng is not None:
            ineqs.extend(rng)
            continue
        raise DomainError(f"unknown case selector {part!r}")
    if not (cases or ineqs or identities):
        raise DomainError(f"--cases {spec!r} selects nothing")
    return cases, ineqs, identities


def _ratios_arg(spec: str) -> tuple[bool, list[float]]:
    """(True, [lo, hi]) for a colon range of decades, else (False, ratios)."""
    if ":" in spec:
        return True, [_number(v) for v in spec.split(":", 1)]
    return False, [_number(r) for r in spec.split(",") if r.strip()]


def _parse_ratios(spec: tuple[bool, list[float]]) -> tuple[float, ...]:
    span, vals = spec
    if span:
        lo, hi = vals
        if not (0.0 < lo < 1.0 and 0.0 < hi < 1.0):
            raise DomainError("ratio endpoints must lie in (0, 1)")
        a = round(math.log10(lo))
        b = round(math.log10(hi))
        step = -1 if b < a else 1
        return tuple(10.0 ** e for e in range(a, b + step, step))
    return tuple(vals)


def _cmd_verify(args) -> int:
    from . import harness

    out_dir = os.path.dirname(args.out) or "."
    if not os.path.isdir(out_dir):
        raise DomainError(f"--out directory {out_dir!r} does not exist")
    cases, ineqs, identities = _parse_cases(args.cases)
    ratios = _parse_ratios(args.ratios)
    reports = []
    for tag in cases:
        camp = harness.Campaign(tag, ratios, args.samples, args.seed)
        reports.append(harness.run_containment(camp))
        # on the grid the rows' expected slopes were fitted on, whatever --ratios
        reports.append(harness.run_order_fit(tag, seed=args.seed))
    for tag in ineqs:
        reports.append(harness.run_bounds_fuzz(tag, max(args.samples, 1000), args.seed))
    if identities:
        reports.append(harness.run_identities(args.seed, args.samples))
    harness.write_report_json(reports, f"{args.out}.json")
    harness.write_report_csv(reports, f"{args.out}.csv")
    bad = [r for r in reports if not r.ok]
    for r in bad:
        print(f"violation: {r.case} [{r.mode}] violations={r.violations} "
              f"slope={r.slope} expected={r.expected}", file=sys.stderr)
    print(f"wrote {args.out}.json and {args.out}.csv "
          f"({len(reports)} reports, {len(bad)} failing)")
    return EXIT_VIOLATIONS if bad else EXIT_OK


# --------------------------------------------------------------------------
# table
# --------------------------------------------------------------------------


def _grid_arg(spec: str) -> tuple[bool, list]:
    """(True, [lo, hi, n]) for n log-spaced points, else (False, points)."""
    spec = spec.strip()
    if spec.count(":") == 2:
        lo, hi, n = spec.split(":")
        return True, [_number(lo), _number(hi), _number(n, int)]
    return False, [_number(v) for v in spec.split(",") if v.strip()]


def _check_kprime(kp: float) -> None:
    if not 0.0 < kp < 1.0:
        raise DomainError(f"k' grid values must lie in (0, 1), got {kp}")


def _parse_grid(spec: tuple[bool, list]) -> list[float]:
    span, vals = spec
    if not span:
        # a table without rows checks nothing
        if not vals:
            raise DomainError("--kprime-grid selects no k' value")
        return vals
    lo, hi, n = vals
    _check_kprime(lo)
    _check_kprime(hi)
    if n < 1:
        raise DomainError("grid count must be >= 1")
    if n == 1:
        return [lo]
    step = (math.log(hi) - math.log(lo)) / (n - 1)
    return [math.exp(math.log(lo) + i * step) for i in range(n)]


def _table_rows(function: str, grid: list[float]) -> tuple[list[str], list[list]]:
    from . import asym

    tags = asym.kind_cases(function)
    header = ["kprime", "reference"]
    for tag in tags:
        header += [f"{tag}_lo", f"{tag}_hi", f"{tag}_theta"]
    rows = []
    for kp in grid:
        _check_kprime(kp)
        ref = dispatch.case_reference(function, (kp,))
        row: list = [kp, ref]
        for tag in tags:
            enc = asym.enclose(tag, kp)
            row += [enc.lo, enc.hi, _theta(tag, (kp,), ref)]
        rows.append(row)
    return header, rows


def _cmd_table(args) -> int:
    grid = _parse_grid(args.kprime_grid)
    header, rows = _table_rows(args.function, grid)
    if args.format == "json":
        doc = {"function": args.function, "columns": header,
               "rows": [[v for v in row] for row in rows]}
        print(dumps(doc))
        return EXIT_OK
    sep = "," if args.format == "csv" else "\t"
    print(sep.join(header))
    for row in rows:
        print(sep.join("" if v is None else plain(v) for v in row))
    return EXIT_OK


# --------------------------------------------------------------------------
# identities
# --------------------------------------------------------------------------


def _cmd_identities(args) -> int:
    from . import harness

    rep = harness.run_identities(args.seed, args.n)
    if args.json:
        print(dumps(rep.to_dict()))
    else:
        print(f"identities={len(harness.IDENTITY_TAGS)} evaluated={rep.evaluated} "
              f"violations={rep.violations}")
        for v in rep.violation_samples:
            print(f"violation: {v}", file=sys.stderr)
    return EXIT_VIOLATIONS if rep.violations else EXIT_OK


_HANDLERS = {
    "eval": _cmd_eval,
    "asym": _cmd_asym,
    "bounds-check": _cmd_bounds,
    "verify": _cmd_verify,
    "table": _cmd_table,
    "identities": _cmd_identities,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code else EXIT_OK
    try:
        return _HANDLERS[args.command](args)
    except RegimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REGIME
    except ToleranceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    except (DomainError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
