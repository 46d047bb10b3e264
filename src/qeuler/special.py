"""Derived polynomial families obtained from the q-Eulerian polynomials by
exact substitution: q-tangent numbers, the central-column rescaling, the
tangent quotients d_n, type-B vanishing and central values, the q-secant
families E*, G*, E, and a scanner for positivity of the G* coefficients.

Every function here returns exact objects; "X must be a polynomial" style
claims are enforced (a negative Laurent offset raises ArithmeticError,
because it would contradict an established identity, i.e. signal a bug).
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from itertools import islice
from math import comb
from typing import Callable, Iterator

from .eulerian import FAMILIES, carlitz_poly, gamma_a_entry, typeB_poly
from .qring import (
    NotDivisible,
    QLaurent,
    QPoly,
    RatLike,
    TQPoly,
    _div_one_plus_q_powers,
    _div_one_plus_t_q_power,
    is_nonneg,
    is_palindromic,
    poch_num,
    spec_q1,
    subst_t_signed_power,
)


def _as_poly(value: QLaurent, what: str) -> QPoly:
    try:
        return value.to_qpoly()
    except ValueError as exc:
        raise ArithmeticError(f"{what} is not a polynomial: {exc}") from None


def _signed_value(p: TQPoly, n: int, E: int, e: int, what: str) -> QPoly:
    """``(-1)^n q^E p(-q^(-e), q)``, which must be a polynomial."""
    value = subst_t_signed_power(p, -1, -e).shift(E)
    return _as_poly(-value if n % 2 else value, what)


def q_tangent(n: int) -> QPoly:
    """The q-tangent number ``T_{2n+1}(q) = (-1)^n q^C(n,2) A_{2n+1}(-q^-n, q)``,
    a polynomial with nonnegative integer coefficients.

    ``q_tangent(1) == 1 + q`` and ``q_tangent(2) == 2+4q+4q^2+4q^3+2q^4``.
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    poly = _signed_value(carlitz_poly(2 * n + 1), n, n * (n - 1) // 2, n, f"T_{2*n+1}")
    if not is_nonneg(poly):
        raise ArithmeticError(f"T_{2*n+1} has a negative coefficient: {poly!r}")
    return poly


def a_star(n: int, k: int) -> QPoly:
    """Central-friendly rescaling ``q^(-k(k-1)/2) a[n,k](q)``.

    The exponent ``k(k-1)/2`` is the unique one under which the rescaled
    recurrence ``a*[n,k] = [k] a*[n-1,k] + (1+q^(k-1)) [n+2-2k] a*[n-1,k-1]``
    holds with ``a*[1,1] = 1``; the variant ``k(k+1)/2`` seen in some
    statements of this rescaling fails to produce polynomials (guarded by a
    test).  ``a_star(2n+1, n+1) == q_tangent(n)``.
    """
    if k not in FAMILIES["a"].krange(n):
        raise ValueError(f"need 1 <= k <= (n+1)//2, got k={k}, n={n}")
    value = QLaurent(gamma_a_entry(n, k)).shift(-(k * (k - 1) // 2))
    return _as_poly(value, f"a*[{n},{k}]")


def d_poly(n: int) -> QPoly:
    """``d_n(q) = T_{2n+1}(q) / ((1+q)(1+q^2)...(1+q^n))``, exactly.

    Divisibility always holds for these inputs, so NotDivisible raises.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    quot = _div_one_plus_q_powers(q_tangent(n), range(1, n + 1))
    if isinstance(quot, NotDivisible):
        raise ArithmeticError(f"T_{2*n+1} not divisible by (1+q)...(1+q^{n})")
    return quot


def admissible_points(excluded: tuple[Fraction, ...] = ()) -> Iterator[Fraction]:
    """Deterministic stream of exact rational sample points > 1, skipping
    0, +-1 and any caller-specified exclusions.  Used to verify identities
    between rational expressions and known polynomials by evaluating at
    degree+1 points."""
    banned = {Fraction(0), Fraction(1), Fraction(-1), *excluded}
    num, den = 2, 1
    while True:
        pt = Fraction(num, den)
        if pt not in banned:
            yield pt
        num += 1
        den += 1


def _check_f_pole(n: int, q0: Fraction, exps: list[int]) -> None:
    if q0 == 0 or abs(q0) == 1:
        raise ValueError(f"q0={q0} is excluded (0 or a root of unity pole)")
    for e in exps:
        if q0**e == -1:
            raise ValueError(f"pole: q0^{e} = -1 at q0={q0}")


def f_eval(n: int, q0: RatLike) -> Fraction:
    """Exact value of ``f_n(q) = sum_k C(2n+1,k) (-1)^k / (1 + q^(k-n))``."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    q0 = Fraction(q0)
    _check_f_pole(n, q0, [k - n for k in range(2 * n + 2)])
    return sum(
        Fraction(comb(2 * n + 1, k) * (-1) ** k, 1) / (1 + q0 ** (k - n))
        for k in range(2 * n + 2)
    )


def _equals_at_points(p: QPoly, rhs: Callable[[Fraction], Fraction]) -> bool:
    """``p(q0) == rhs(q0)`` at ``deg(p) + 1`` admissible points; when ``rhs``
    is known to be a polynomial of degree at most ``deg(p)``, that many exact
    agreements prove the two equal."""
    return all(p(q0) == rhs(q0) for q0 in islice(admissible_points(), p.degree() + 1))


def verify_d_identity(n: int) -> bool:
    """Check ``d_n(q) = (-1)^(n+1) (-1;q)_{n+2} / (1-q)^(2n+1) * f_n(q)``
    at ``deg(d_n) + 1`` admissible rational points; since both sides are the
    same polynomial of known degree, that many exact agreements prove it."""
    dn = d_poly(n)
    minus_one_poch = poch_num(-1, n + 2).to_qpoly()
    return _equals_at_points(
        dn,
        lambda q0: Fraction((-1) ** (n + 1))
        * minus_one_poch(q0)
        / (1 - q0) ** (2 * n + 1)
        * f_eval(n, q0),
    )


def even_quotient(n: int) -> TQPoly:
    """``A_{2n}(t,q) / (1 + t q^n)``, a bivariate polynomial whose Laurent
    coefficients all have nonnegative offset and coefficients."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    quot = _div_one_plus_t_q_power(carlitz_poly(2 * n), n)
    if isinstance(quot, NotDivisible):
        raise ArithmeticError(f"A_{2*n}(t,q) not divisible by 1 + t q^{n}")
    for d, c in enumerate(quot.terms):
        if not c.is_zero() and c.offset < 0:
            raise ArithmeticError(f"quotient t^{d} coefficient has negative offset")
        if not is_nonneg(c):
            raise ArithmeticError(f"quotient t^{d} coefficient is not nonnegative")
    return quot


def b_odd_vanish(n: int) -> bool:
    """``B_{2n+1}(-q^(-2n-1), q) == 0``, exactly."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    return subst_t_signed_power(typeB_poly(2 * n + 1), -1, -(2 * n + 1)).is_zero()


def b_central(n: int) -> QPoly:
    """``(-1)^n q^(n(2n+1)) B_{2n}(-q^(-2n-1), q)``, which equals the central
    gamma coefficient ``b[2n,n](q)``."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    return _signed_value(typeB_poly(2 * n), n, n * (2 * n + 1), 2 * n + 1, f"b[{2*n},{n}]")


def e_star(n: int) -> QPoly:
    """The q-secant analogue ``E*_{2n}(q) = (-1)^n q^(n(n+1)) B_{2n}(-q^(-2n-1), q)``;
    satisfies ``E*_{2n}(q) = q^(-n^2) b[2n,n](q)`` and ``E*_{2n}(1) = 4^n E_{2n}``."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    return _signed_value(typeB_poly(2 * n), n, n * (n + 1), 2 * n + 1, f"E*_{2*n}")


def g_star(n: int) -> QPoly:
    """``G*_{2n}(q) = E*_{2n}(q) / ((1+q)(1+q^3)...(1+q^(2n-1)) (1+q)^n)``,
    exactly; ``G*_{2n}(1) = E_{2n}``, the classical secant number."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    quot = _div_one_plus_q_powers(e_star(n), [*range(1, 2 * n, 2)] + [1] * n)
    if isinstance(quot, NotDivisible):
        raise ArithmeticError(f"E*_{2*n} not divisible by its odd-Pochhammer factor")
    return quot


def f_star_eval(n: int, q0: RatLike) -> Fraction:
    """Exact value of ``f*_n(q) = sum_k C(2n,k) (-q)^k / (1 + q^(2k-2n-1))``."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    q0 = Fraction(q0)
    _check_f_pole(n, q0, [2 * k - 2 * n - 1 for k in range(2 * n + 1)])
    return sum(
        Fraction(comb(2 * n, k)) * (-q0) ** k / (1 + q0 ** (2 * k - 2 * n - 1))
        for k in range(2 * n + 1)
    )


def verify_gstar_identity(n: int) -> bool:
    """Check the closed rational form
    ``G*_{2n}(q) = (-1)^n q^(-n-1) (-q;q^2)_{n+1} / ((1+q)^n (1-q)^(2n)) * f*_n(q)``
    at ``deg(G*) + 1`` admissible points."""
    g = g_star(n)
    odd_poch = poch_num(QLaurent.q_power(1, -1), n + 1, step=2).to_qpoly()
    one_plus_q = QPoly([1, 1])
    return _equals_at_points(
        g,
        lambda q0: Fraction((-1) ** n)
        * q0 ** (-n - 1)
        * odd_poch(q0)
        / (one_plus_q(q0) ** n * (1 - q0) ** (2 * n))
        * f_star_eval(n, q0),
    )


def e_q_secant(n: int) -> QPoly:
    """The alternative q-secant ``E_{2n}(q) = (-1)^n q^(n^2) B_{2n}(-q^(-2n), q)``."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    return _signed_value(typeB_poly(2 * n), n, n * n, 2 * n, f"E_{2*n}(q)")


# ---------------------------------------------------------------------------
# Classical secant numbers, by Seidel's boustrophedon
# ---------------------------------------------------------------------------


def secant_number(n: int) -> int:
    """The classical secant number ``E_{2n}`` (1, 1, 5, 61, 1385, ...).

    Seidel's boustrophedon: each row is the running sum of the previous row
    read backwards, starting from 0; the last entry of row ``m`` is the zigzag
    number of ``m``, and ``E_{2n}`` is that of ``2n``.  No q-Eulerian triangle
    is involved, so ``G*_{2n}(1) == secant_number(n)`` is an independent check.
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    row = [1]
    for _ in range(2 * n):
        acc = [0]
        for x in reversed(row):
            acc.append(acc[-1] + x)
        row = acc
    return row[-1]


# ---------------------------------------------------------------------------
# Conjecture scanner
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class GStarScanRow:
    """Evidence about one ``G*_{2n}(q)``: the positivity verdict plus the
    structural observations the scan records along the way."""

    n: int
    degree: int
    min_coeff: int
    value_at_one: int
    secant: int
    palindromic: bool
    consistent: bool


@dataclasses.dataclass(frozen=True)
class GStarScanReport:
    rows: tuple[GStarScanRow, ...]

    @property
    def verdict(self) -> str:
        return "consistent" if all(r.consistent for r in self.rows) else "counterexample"

    def counterexamples(self) -> list[GStarScanRow]:
        return [r for r in self.rows if not r.consistent]


def conjecture_scan_gstar(N: int) -> GStarScanReport:
    """Scan ``G*_{2n}(q)`` for ``n = 0..N`` for negative coefficients.

    A counterexample is evidence to report, never a program error; the
    positivity of these coefficients is an open question.
    """
    if N < 0:
        raise ValueError(f"need N >= 0, got {N}")
    rows = []
    for n in range(N + 1):
        g = g_star(n)
        dense = g.coeffs if not g.is_zero() else (0,)
        min_coeff = min(dense)
        rows.append(
            GStarScanRow(
                n=n,
                degree=g.degree(),
                min_coeff=min_coeff,
                value_at_one=spec_q1(g),
                secant=secant_number(n),
                palindromic=is_palindromic(g),
                consistent=min_coeff >= 0,
            )
        )
    return GStarScanReport(tuple(rows))
