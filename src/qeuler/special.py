"""Derived polynomial families of the q-Eulerian polynomials: q-tangent
numbers, the central-column rescaling, the tangent quotients d_n, type-B
vanishing and central values, the q-secant families E*, G*, E, and a scanner
for positivity of the G* coefficients.  ``T_{2n+1}`` and ``E*_{2n}`` are one
central gamma entry each, rescaled, and their quotients ``d_n`` and
``G*_{2n}`` one central entry each of ``abar`` and ``btilde``, all from their
dependency cone, cached by ``n``, never from the cached rows.  The
substitutions ``t = -q^(-e)`` into a row that define ``T`` and ``E*`` stay as
the oracles ``verify`` checks them by, and give the rest; each also takes the
row from a caller that streams it.

Every function here computes in Z[q], exactly; "X must be a polynomial"
style claims are enforced (a negative power of q left by a substitution or
rescaling raises ArithmeticError, as it would contradict an identity).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import comb

from .eulerian import FAMILIES, _central_entry, carlitz_poly, gamma_a_entry, typeB_poly
from .qring import (
    NotDivisible,
    QPoly,
    RatLike,
    TQPoly,
    _div_one_plus_t_q_power,
    is_nonneg,
    is_palindromic,
    spec_q1,
    subst_t_signed_power,
)


def _as_poly(what: str, step, *args) -> QPoly:
    """``step(*args)``: a Z[q] step's ValueError, a negative power of q, is an ArithmeticError."""
    try:
        return step(*args)
    except ValueError as exc:
        raise ArithmeticError(f"{what} is not a polynomial: {exc}") from None


def _signed_value(p: TQPoly, n: int, E: int, e: int, what: str) -> QPoly:
    """``(-1)^n q^E p(-q^(-e), q)``, which must be a polynomial."""
    value = _as_poly(what, subst_t_signed_power, p, -e, E)
    return -value if n % 2 else value


def q_tangent(n: int) -> QPoly:
    """The q-tangent number ``T_{2n+1}(q) = a*[2n+1,n+1]``, defined as
    ``(-1)^n q^C(n,2) A_{2n+1}(-q^-n, q)``, the route ``verify`` checks it by.

    ``q_tangent(1) == 1 + q`` and ``q_tangent(2) == 2+4q+4q^2+4q^3+2q^4``.
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    return a_star(2 * n + 1, n + 1)


def a_star(n: int, k: int) -> QPoly:
    """Central-friendly rescaling ``q^(-k(k-1)/2) a[n,k](q)`` of one entry.

    The exponent ``k(k-1)/2`` is the unique one under which the rescaled
    recurrence ``a*[n,k] = [k] a*[n-1,k] + (1+q^(k-1)) [n+2-2k] a*[n-1,k-1]``
    holds with ``a*[1,1] = 1``; the variant ``k(k+1)/2`` seen in some
    statements of this rescaling fails to produce polynomials (guarded by a
    test).  ``a_star(2n+1, n+1) == q_tangent(n)``.
    """
    if k not in FAMILIES["a"].krange(n):
        raise ValueError(f"need 1 <= k <= (n+1)//2, got k={k}, n={n}")
    # a central entry a[2k-1, k] comes from its cone, any other from the rows
    entry = _central_entry("a", k - 1) if n == 2 * k - 1 else gamma_a_entry(n, k)
    return _as_poly(f"a*[{n},{k}]", entry.shift, -(k * (k - 1) // 2))


def d_poly(n: int) -> QPoly:
    """``d_n(q) = T_{2n+1}(q) / ((1+q)(1+q^2)...(1+q^n)) = abar[2n+1, n+1]``."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return _central_entry("abar", n)


def _times_one_plus_q_powers(p: QPoly, exps) -> QPoly:
    """``p prod_{e in exps} (1 + q^e)``, one shift-add pass per factor."""
    for e in exps:
        p = p + p.shift(e)
    return p


def _check_d_quotient(n: int) -> None:
    """Raise ArithmeticError, naming the comparison, unless the cones of
    ``abar`` and ``a`` agree: ``(1+q)(1+q^2)...(1+q^n) d_n == T_{2n+1}``."""
    if _times_one_plus_q_powers(_central_entry("abar", n), range(1, n + 1)) != q_tangent(n):
        raise ArithmeticError(f"(1+q)...(1+q^{n}) d_{n} != T_{2*n+1}")


def _f_sum(m: int, x: RatLike, a: int, b: int, q0: Fraction) -> Fraction:
    """``sum_{k=0}^{m} C(m,k) x^k / (1 + q0^(a k + b))``; no denominator vanishes,
    since a rational ``q0`` other than ``0`` and ``+-1`` has no ``q0^e = -1``."""
    if q0 == 0 or abs(q0) == 1:
        raise ValueError(f"q0={q0} is excluded (0 or a root of unity pole)")
    return sum(comb(m, k) * x**k / (1 + q0 ** (a * k + b)) for k in range(m + 1))


def f_eval(n: int, q0: RatLike) -> Fraction:
    """Exact value of ``f_n(q) = sum_k C(2n+1,k) (-1)^k / (1 + q^(k-n))``."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    return _f_sum(2 * n + 1, -1, 1, -n, Fraction(q0))


def _cleared_f_sum(m: int, x_exp: int, a: int, b: int) -> QPoly:
    """``sum_{k=0}^{m} C(m,k) (-1)^k q^(x_exp k) / (1 + q^(a k + b))`` times
    ``prod (1 + q^f)`` over the distinct ``f = |a k + b|``, in Z[q].  Since
    ``1 / (1 + q^-f) = q^f / (1 + q^f)``, term ``k`` is a monomial times every
    such factor but its own, each applied as one shift-add.

    >>> _cleared_f_sum(3, 0, 1, -1)  # (1-q)^3 d_1
    QPoly('1 - 3q + 3q^2 - q^3')
    """
    fs = {abs(a * k + b) for k in range(m + 1)}
    total = QPoly()
    for k in range(m + 1):
        e = a * k + b
        term = QPoly.monomial(x_exp * k + max(0, -e), (-1) ** k * comb(m, k))
        total = total + _times_one_plus_q_powers(term, fs - {abs(e)})
    return total


def _d_identity(n: int) -> tuple[QPoly, QPoly]:
    """The two sides of :func:`verify_d_identity`, cleared of denominators:
    ``d_n (1-q)^(2n+1)`` and ``(-1)^(n+1) (-1;q)_{n+2} f_n``."""
    lhs = d_poly(n)
    for _ in range(2 * n + 1):
        lhs = lhs - lhs.shift(1)
    rhs = _cleared_f_sum(2 * n + 1, 0, 1, -n)
    return lhs, rhs if n % 2 else -rhs


def verify_d_identity(n: int) -> bool:
    """Check ``d_n(q) = (-1)^(n+1) (-1;q)_{n+2} / (1-q)^(2n+1) * f_n(q)`` as
    an identity in Z[q]: each ``1 + q^(k-n)`` of ``f_n`` is a factor of
    ``(-1;q)_{n+2}`` up to a power of q, so both sides times ``(1-q)^(2n+1)``
    are polynomials, and one comparison decides it."""
    lhs, rhs = _d_identity(n)
    return lhs == rhs


def even_quotient(n: int, poly: TQPoly | None = None) -> TQPoly:
    """``A_{2n}(t,q) / (1 + t q^n)``, a bivariate polynomial whose Laurent
    coefficients all have nonnegative offset and coefficients.  ``poly``, when
    given, is ``A_{2n}(t,q)``, from a caller that holds row ``2n`` already."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    quot = _div_one_plus_t_q_power(carlitz_poly(2 * n) if poly is None else poly, n)
    if isinstance(quot, NotDivisible):
        raise ArithmeticError(f"A_{2*n}(t,q) not divisible by 1 + t q^{n}")
    for d, c in enumerate(quot.terms):
        if not c.is_zero() and c.offset < 0:
            raise ArithmeticError(f"quotient t^{d} coefficient has negative offset")
        if not is_nonneg(c):
            raise ArithmeticError(f"quotient t^{d} coefficient is not nonnegative")
    return quot


def b_odd_vanish(n: int, poly: TQPoly | None = None) -> bool:
    """``B_{2n+1}(-q^(-2n-1), q) == 0``, exactly; ``poly``, when given, is
    ``B_{2n+1}(t,q)``."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    poly = typeB_poly(2 * n + 1) if poly is None else poly
    # the shift leaving q^0 the lowest power: being zero does not depend on it
    shift = max(((2 * n + 1) * d - c.offset for d, c in enumerate(poly.terms) if c), default=0)
    return subst_t_signed_power(poly, -(2 * n + 1), shift).is_zero()


def b_central(n: int, poly: TQPoly | None = None) -> QPoly:
    """``(-1)^n q^(n(2n+1)) B_{2n}(-q^(-2n-1), q)``, the substitution that
    checks ``b[2n,n](q) = q^(n^2) E*_{2n}(q)``; ``poly``, when given, is
    ``B_{2n}(t,q)``."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    poly = typeB_poly(2 * n) if poly is None else poly
    return _signed_value(poly, n, n * (2 * n + 1), 2 * n + 1, f"b[{2*n},{n}]")


def e_star(n: int) -> QPoly:
    """The q-secant analogue ``E*_{2n}(q) = q^(-n^2) b[2n,n](q)``, defined as
    ``(-1)^n q^(n(n+1)) B_{2n}(-q^(-2n-1), q)`` (see :func:`b_central`);
    ``E*_{2n}(1) = 4^n E_{2n}``."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    return _as_poly(f"E*_{2*n}", _central_entry("b", n).shift, -n * n)


def g_star(n: int) -> QPoly:
    """``G*_{2n}(q) = E*_{2n}(q) / ((1+q)(1+q^3)...(1+q^(2n-1)) (1+q)^n)``,
    which is ``btilde[2n, n]``; ``G*_{2n}(1) = E_{2n}``, the secant number."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    return _central_entry("btilde", n)


def _check_gstar_quotient(n: int) -> None:
    """:func:`_check_d_quotient` for ``G*_{2n}``, ``btilde`` and ``b``."""
    exps = [*range(1, 2 * n, 2)] + [1] * n
    if _times_one_plus_q_powers(_central_entry("btilde", n), exps) != e_star(n):
        raise ArithmeticError(f"(-q;q^2)_{n} (1+q)^{n} G*_{2*n} != E*_{2*n}")


def f_star_eval(n: int, q0: RatLike) -> Fraction:
    """Exact value of ``f*_n(q) = sum_k C(2n,k) (-q)^k / (1 + q^(2k-2n-1))``."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    q0 = Fraction(q0)
    return _f_sum(2 * n, -q0, 2, -2 * n - 1, q0)


def _gstar_identity(n: int) -> tuple[QPoly, QPoly]:
    """The two sides of :func:`verify_gstar_identity`, cleared of
    denominators: ``q^(n+1) (1+q)^n (1-q)^(2n) G*_{2n}`` and
    ``(-1)^n (-q;q^2)_{n+1} f*_n``."""
    lhs = _times_one_plus_q_powers(g_star(n).shift(n + 1), [1] * n)
    for _ in range(2 * n):
        lhs = lhs - lhs.shift(1)
    rhs = _cleared_f_sum(2 * n, 1, 2, -2 * n - 1)
    return lhs, -rhs if n % 2 else rhs


def verify_gstar_identity(n: int) -> bool:
    """Check the closed rational form
    ``G*_{2n}(q) = (-1)^n q^(-n-1) (-q;q^2)_{n+1} / ((1+q)^n (1-q)^(2n)) * f*_n(q)``
    as an identity in Z[q]: each ``1 + q^(2k-2n-1)`` of ``f*_n`` is a factor
    of ``(-q;q^2)_{n+1}`` up to a power of q, so both sides times
    ``q^(n+1) (1+q)^n (1-q)^(2n)`` are polynomials, and one comparison
    decides it."""
    lhs, rhs = _gstar_identity(n)
    return lhs == rhs


def e_q_secant(n: int, poly: TQPoly | None = None) -> QPoly:
    """The alternative q-secant ``E_{2n}(q) = (-1)^n q^(n^2) B_{2n}(-q^(-2n), q)``;
    ``poly``, when given, is ``B_{2n}(t,q)``."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    poly = typeB_poly(2 * n) if poly is None else poly
    return _signed_value(poly, n, n * n, 2 * n, f"E_{2*n}(q)")


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


class GStarScanRow(namedtuple(
        "GStarScanRow", "n degree min_coeff value_at_one secant palindromic consistent")):
    """Evidence about one ``G*_{2n}(q)``: the positivity verdict plus the
    structural observations the scan records along the way."""

    __slots__ = ()


class GStarScanReport(namedtuple("GStarScanReport", "rows")):
    """The scan's :class:`GStarScanRow` tuple, one row per ``n``."""

    __slots__ = ()

    @property
    def verdict(self) -> str:
        return "consistent" if all(r.consistent for r in self.rows) else "counterexample"


def conjecture_scan_gstar(N: int) -> GStarScanReport:
    """Scan ``G*_{2n}(q)`` for ``n = 0..N`` for negative coefficients.

    The paper's abstract states that ``G*_{2n}`` has positive integral
    coefficients; the scan checks that claim for each ``n`` it reaches.  A
    counterexample is evidence to report, never a program error.
    """
    if N < 0:
        raise ValueError(f"need N >= 0, got {N}")
    _central_entry("btilde", N)  # one cone stream gives every G*_{2n}, n <= N
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
