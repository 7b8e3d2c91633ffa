"""Canonical JSON and float rendering for CLI/report output.

Floats are written with 17 significant digits, which round-trips every
double exactly: parsing the emitted text and re-emitting it is
byte-identical.  Dict keys keep their construction order (the schemas fix
the canonical order); plain text uses repr's shortest round-trip form.
Only strings are quoted by ``json``, which is imported on the first
quote, so plain output spares each process its import.
"""

from __future__ import annotations

import math


def fmt_float(v: float) -> str:
    if isinstance(v, float) and not math.isfinite(v):
        raise ValueError(f"cannot serialize non-finite float {v!r}")
    return format(v, ".17g")


def _quote(s: str) -> str:
    import json

    return json.dumps(s)


def dumps(obj) -> str:
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, float):
        return fmt_float(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, dict):
        items = ",".join(f"{_quote(str(k))}:{dumps(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(dumps(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def plain(v) -> str:
    """Shortest round-trip decimal for plain-text output."""
    if isinstance(v, float):
        return repr(v)
    return str(v)
