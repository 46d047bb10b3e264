import doctest
import json
import random

import pytest

import qeuler.qring
from qeuler.eulerian import typeB_poly
from qeuler.qring import QLaurent, QPoly, TQPoly
from qeuler.serialize import (
    csv_rows,
    dumps,
    from_json,
    json_pieces,
    loads,
    render,
    render_pieces,
    to_json,
)
from qeuler.special import q_tangent


def P(*coeffs):
    return QPoly(coeffs)


# ---------------------------------------------------------------------------
# JSON schema and round trips
# ---------------------------------------------------------------------------


def test_qpoly_schema():
    assert to_json(P(1, 2, 1)) == {"kind": "poly", "var": "q", "coeffs": ["1", "2", "1"]}
    assert to_json(QPoly()) == {"kind": "poly", "var": "q", "coeffs": []}


def test_qlaurent_schema_adds_offset():
    doc = to_json(QLaurent(P(1, 1), -2))
    assert doc["offset"] == -2
    assert doc["coeffs"] == ["1", "1"]


def test_tqpoly_schema():
    doc = to_json(TQPoly([1, QPoly(), P(0, 1)]))
    assert doc["kind"] == "bivar"
    assert [t["tdeg"] for t in doc["terms"]] == [0, 2]


def test_big_coefficients_as_decimal_strings():
    big = 10**40 + 7
    doc = to_json(P(big))
    assert doc["coeffs"] == [str(big)]
    assert from_json(doc) == P(big)


FIXED_VALUES = [
    QPoly(),
    P(5),
    P(1, -2, 0, 7),
    QLaurent(P(3, 0, 1), -4),
    QLaurent.zero(),
    TQPoly.zero(),
    TQPoly([1, P(0, 2, 2), QPoly.monomial(3)]),
    TQPoly([QLaurent(P(1), -1), QLaurent.zero(), QLaurent(P(2, 2), 3)]),
]


@pytest.mark.parametrize("value", FIXED_VALUES, ids=repr)
def test_roundtrip_fixed(value):
    assert loads(dumps(value)) == value
    assert from_json(to_json(value)) == value


def test_roundtrip_random():
    rng = random.Random(42)
    for _ in range(60):
        p = QPoly([rng.randint(-10**12, 10**12) for _ in range(rng.randrange(0, 9))])
        assert loads(dumps(p)) == p
        v = QLaurent(p, rng.randint(-5, 5))
        assert loads(dumps(v)) == v
    for _ in range(30):
        t = TQPoly(
            [
                QLaurent(QPoly([rng.randint(-99, 99) for _ in range(3)]), rng.randint(-3, 3))
                for _ in range(rng.randrange(0, 4))
            ]
        )
        assert loads(dumps(t)) == t


def _random_values(rng):
    for _ in range(30):
        p = QPoly([rng.randint(-10**12, 10**12) for _ in range(rng.randrange(0, 9))])
        yield p
        yield QLaurent(p, rng.randint(-5, 5))
        yield TQPoly([QLaurent(QPoly([rng.randint(-99, 99) for _ in range(3)]), rng.randint(-3, 3))
                      for _ in range(rng.randrange(0, 5))])


@pytest.mark.parametrize("value", [*FIXED_VALUES, typeB_poly(6), *_random_values(random.Random(5))],
                         ids=repr)
def test_dumps_is_the_json_of_to_json_in_pieces(value):
    pieces = json_pieces(value)
    assert iter(pieces) is pieces
    assert dumps(value) == "".join(pieces) == json.dumps(to_json(value))


def test_writers_reject_an_unknown_type_at_once():
    with pytest.raises(TypeError, match="cannot serialize int"):
        json_pieces(3)
    with pytest.raises(TypeError, match="cannot render int"):
        render_pieces(3)


def test_from_json_rejects_unknown_kind():
    with pytest.raises(ValueError):
        from_json({"kind": "matrix"})


@pytest.mark.parametrize("terms, message", [
    ([(0, 1), (-1, 7)], "negative tdeg -1"),  # a list index would take the last slot
    ([(-2, 1)], "negative tdeg -2"),
    ([(0, 1), (0, 7)], "repeated tdeg 0"),
], ids=str)
def test_from_json_rejects_a_bad_tdeg(terms, message):
    doc = {"kind": "bivar", "terms": [{"tdeg": d, "coeff": to_json(P(c))} for d, c in terms]}
    with pytest.raises(ValueError, match=message):
        from_json(doc)


# ---------------------------------------------------------------------------
# golden text rendering
# ---------------------------------------------------------------------------


def test_render_goldens():
    assert render(P(1, 1)) == "1 + q"
    assert render(P(1, -1)) == "1 - q"
    assert render(QPoly()) == "0"
    assert render(P(0, 0, 3)) == "3q^2"
    assert render(q_tangent(2)) == "2 + 4q + 4q^2 + 4q^3 + 2q^4"
    assert render(QLaurent(P(1, 0, 2, 1), -3)) == "q^-3 + 2q^-1 + 1"
    assert render(typeB_poly(2)) == "1 + (2q + 2q^2 + 2q^3) t + q^4 t^2"
    assert render(TQPoly([1, P(0, 1)])) == "1 + q t"
    assert render(TQPoly.zero()) == "0"


def _whole_text(p):
    # the former one-string TQPoly formatter, kept as the reference of the
    # term-by-term one
    parts = []
    for d, c in enumerate(p.terms):
        if c.is_zero():
            continue
        body = render(c)
        if d > 0:
            tpow = "t" if d == 1 else f"t^{d}"
            if len(c.base.coeffs) - c.base.coeffs.count(0) > 1 or body.startswith("-"):
                body = f"({body}) {tpow}"
            elif body == "1":
                body = tpow
            else:
                body = f"{body} {tpow}"
        parts.append(body)
    return " + ".join(parts) or "0"


@pytest.mark.parametrize("value", [v for v in (*FIXED_VALUES, typeB_poly(6),
                                               *_random_values(random.Random(6)))
                                   if isinstance(v, TQPoly)], ids=repr)
def test_render_of_a_tqpoly_is_its_terms_in_pieces(value):
    pieces = render_pieces(value)
    assert iter(pieces) is pieces
    assert render(value) == "".join(pieces) == _whole_text(value)


def test_csv_rows():
    assert list(csv_rows(P(1, 0, 2))) == [(0, "1"), (2, "2")]
    assert list(csv_rows(QLaurent(P(1, 1), -1))) == [(-1, "1"), (0, "1")]
    assert list(csv_rows(TQPoly([1, P(0, 2)]))) == [(0, 0, "1"), (1, 1, "2")]


@pytest.mark.parametrize("value", [P(1, 2), QLaurent(P(1), -1), TQPoly([1, P(0, 2)])], ids=repr)
def test_csv_rows_is_an_iterator(value):
    rows = csv_rows(value)
    assert iter(rows) is rows


def test_csv_rows_rejects_an_unknown_type_at_once():
    with pytest.raises(TypeError, match="cannot export int"):
        csv_rows(3)


def test_kernel_doctests():
    assert doctest.testmod(qeuler.qring).failed == 0
