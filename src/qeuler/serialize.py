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
from collections.abc import Iterator

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
        terms = {}
        for t in obj["terms"]:
            d = t["tdeg"]
            if d < 0 or d in terms:
                raise ValueError(f"{'negative' if d < 0 else 'repeated'} tdeg {d}")
            terms[d] = from_json(t["coeff"])
        return TQPoly([terms.get(d, 0) for d in range(max(terms, default=-1) + 1)])
    raise ValueError(f"unknown kind {kind!r}")


def json_pieces(p: QPoly | QLaurent | TQPoly) -> Iterator[str]:
    """The text of :func:`dumps` in pieces, a bivariate value one ``t^d`` term
    at a time, so a writer never holds the whole document."""
    if not isinstance(p, TQPoly):
        return iter((json.dumps(to_json(p)),))
    return _bivar_pieces(p)


def _bivar_pieces(p: TQPoly) -> Iterator[str]:
    # the document's own bytes, its "terms" list filled in one term at a time
    yield json.dumps({"kind": "bivar", "terms": []})[:-2]
    sep = ""
    for d, c in enumerate(p.terms):
        if not c.is_zero():
            yield sep + json.dumps({"tdeg": d, "coeff": to_json(c)})
            sep = ", "
    yield "]}"


def dumps(p: QPoly | QLaurent | TQPoly) -> str:
    return "".join(json_pieces(p))


def loads(s: str) -> QPoly | QLaurent | TQPoly:
    return from_json(json.loads(s))


def render_pieces(p: QPoly | QLaurent | TQPoly) -> Iterator[str]:
    """The text of :func:`render` in pieces, a bivariate value one ``t^d``
    term at a time."""
    if isinstance(p, TQPoly):
        return p._fmt_terms()
    if isinstance(p, (QPoly, QLaurent)):
        return iter((p._fmt(),))
    raise TypeError(f"cannot render {type(p).__name__}")


def render(p: QPoly | QLaurent | TQPoly) -> str:
    """Human-readable form, e.g. ``1 + q`` or ``1 + (2q + 2q^2) t + q^3 t^2``."""
    return "".join(render_pieces(p))


def csv_rows(p: QPoly | QLaurent | TQPoly) -> Iterator[tuple]:
    """Flat exponent/coefficient rows for CSV export, made one at a time;
    bivariate values get a leading t-degree column."""
    if isinstance(p, QPoly):
        p = QLaurent(p)
    if isinstance(p, QLaurent):
        return ((i, str(c)) for i, c in enumerate(p.base.coeffs, p.offset) if c != 0)
    if isinstance(p, TQPoly):
        return ((d, e, c) for d, coeff in enumerate(p.terms) for e, c in csv_rows(coeff))
    raise TypeError(f"cannot export {type(p).__name__}")
