"""Machine-readable output for the polynomial types.

JSON schema (coefficients as decimal strings, little-endian, because values
outgrow native integer ranges in downstream consumers):

* ``QPoly``    -> ``{"kind": "poly", "var": "q", "coeffs": ["1", "2", ...]}``
* ``QLaurent`` -> same, plus ``"offset"``
* ``TQPoly``   -> ``{"kind": "bivar", "terms": [{"tdeg": d, "coeff": <laurent>}]}``

``from_json(to_json(p)) == p`` for every kind.  Text rendering is ascending
in powers with explicit signs and ``q^k`` exponents ("2 + 4q + 4q^2 - q^3").
"""

from __future__ import annotations

import json

from .qring import QLaurent, QPoly, TQPoly


def to_json(p: QPoly | QLaurent | TQPoly) -> dict:
    if isinstance(p, QPoly):
        return {"kind": "poly", "var": "q", "coeffs": [str(c) for c in p.coeffs]}
    if isinstance(p, QLaurent):
        return {**to_json(p.base), "offset": p.offset}
    if isinstance(p, TQPoly):
        return {
            "kind": "bivar",
            "terms": [
                {"tdeg": d, "coeff": to_json(c)}
                for d, c in enumerate(p.terms)
                if not c.is_zero()
            ],
        }
    raise TypeError(f"cannot serialize {type(p).__name__}")


def from_json(obj: dict) -> QPoly | QLaurent | TQPoly:
    kind = obj.get("kind")
    if kind == "poly":
        coeffs = [int(c) for c in obj["coeffs"]]
        if "offset" in obj:
            return QLaurent(QPoly(coeffs), obj["offset"])
        return QPoly(coeffs)
    if kind == "bivar":
        if not obj["terms"]:
            return TQPoly.zero()
        n = max(t["tdeg"] for t in obj["terms"]) + 1
        terms = [QLaurent.zero()] * n
        for t in obj["terms"]:
            coeff = from_json(t["coeff"])
            terms[t["tdeg"]] = QLaurent.coerce(coeff)
        return TQPoly(terms)
    raise ValueError(f"unknown kind {kind!r}")


def dumps(p: QPoly | QLaurent | TQPoly) -> str:
    return json.dumps(to_json(p))


def loads(s: str) -> QPoly | QLaurent | TQPoly:
    return from_json(json.loads(s))


def render(p: QPoly | QLaurent | TQPoly) -> str:
    """Human-readable form, e.g. ``1 + q`` or ``1 + (2q + 2q^2) t + q^3 t^2``."""
    if isinstance(p, (QPoly, QLaurent, TQPoly)):
        return p._fmt()
    raise TypeError(f"cannot render {type(p).__name__}")


def csv_rows(p: QPoly | QLaurent | TQPoly) -> list[tuple]:
    """Flat exponent/coefficient rows for CSV export; bivariate values get a
    leading t-degree column."""
    if isinstance(p, QPoly):
        p = QLaurent(p)
    if isinstance(p, QLaurent):
        return [
            (i + p.offset, str(c)) for i, c in enumerate(p.base.coeffs) if c != 0
        ]
    if isinstance(p, TQPoly):
        out = []
        for d, coeff in enumerate(p.terms):
            out.extend((d, e, c) for e, c in csv_rows(coeff))
        return out
    raise TypeError(f"cannot export {type(p).__name__}")
