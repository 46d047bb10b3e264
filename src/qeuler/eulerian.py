"""The four q-Eulerian coefficient triangles and their generating polynomials.

Every triangle is built by one two-term recurrence,

    P[n,k] = alpha(n,k) P[n-1,k] + beta(n,k) P[n-1,k-1],

whose factors are each a monomial times a product of q-integers
``[m]_{q^s}``.  The ``FAMILIES`` table gives, per family, the column range
``krange(n)``, the seed row ``(1,)`` at ``seed_n``, the first public row
``first_n``, and ``alpha``/``beta`` as factor specs ``(e, ((m1, s1), ...))``
meaning ``q^e [m1]_{q^s1} ...`` (``s = 0`` reads ``[m]_{q^0}`` as ``m``):

* ``A`` -- Carlitz q-Eulerian coefficients ``A[n,k]``, ``1 <= k <= n``,
  ``A[n,k] = [k] A[n-1,k] + q^(k-1) [n+1-k] A[n-1,k-1]``.
* ``a`` -- the gamma coefficients of the type-A expansion,
  ``1 <= k <= (n+1)//2``,
  ``a[n,k] = [k] a[n-1,k] + q^(k-1) [2]_{q^(k-1)} [n+2-2k] a[n-1,k-1]``,
  where ``[2]_{q^(k-1)} = 1 + q^(k-1)``.
* ``B`` -- Chow-Gessel type-B q-Eulerian coefficients ``B[n,k]``,
  ``0 <= k <= n``,
  ``B[n,k] = [2k+1] B[n-1,k] + q^(2k-1) [2n-2k+1] B[n-1,k-1]``.
* ``b`` -- the type-B gamma coefficients, ``0 <= k <= n//2``,
  ``b[n,k] = [2k+1] b[n-1,k] + q^(2k-1) [2]_q [2]_{q^(2k-1)} [n+1-2k]_{q^2} b[n-1,k-1]``;
  it seeds at ``b[0,0] = 1`` (forced by ``B_0(t,q) = 1``) and is public from n=1.

The row engine applies each q-integer with :meth:`QPoly.mul_q_int` and the
monomial with :meth:`QPoly.shift`, so each product costs O(degree) rather
than a full polynomial product.

``A_n(t,q) = sum_k A[n,k] t^(k-1)`` and ``B_n(t,q) = sum_k B[n,k] t^k`` are
also definable through their generating series

    sum_{k>=0} [k+1]^n t^k = A_n(t,q) / (t;q)_{n+1}
    sum_{k>=0} [2k+1]^n t^k = B_n(t,q) / (t;q^2)_{n+1}

which the ``*_series_oracle`` functions implement as independent
cross-checks of the recurrence route.  They share one body: each column
``[m]^n`` is ``n`` calls of :meth:`QPoly.mul_q_int`, and the Pochhammer
product is applied one factor ``1 - t q^e`` at a time, as ``c_d - q^e c_(d-1)``
on the truncated columns, so no two polynomials are multiplied.  The oracles
read neither ``FAMILIES`` nor the row builders, so they stay independent of
the recurrences they check.

Rows are built once, bottom up, and cached; triangles are immutable views.
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache
from typing import Callable

from .qring import (
    QLaurent,
    QPoly,
    TQPoly,
    poch_t,
    q_int,
    subst_q_power,
    q_binom,
)


# ``(e, ((m1, s1), (m2, s2), ...))`` stands for ``q^e [m1]_{q^s1} [m2]_{q^s2} ...``.
Factor = tuple[int, tuple[tuple[int, int], ...]]


@dataclasses.dataclass(frozen=True)
class Family:
    """One triangle of the two-term recurrence (see the module docstring);
    ``alpha(n, k)`` and ``beta(n, k)`` return :data:`Factor` specs."""

    first_n: int
    seed_n: int
    krange: Callable[[int], range]
    alpha: Callable[[int, int], Factor]
    beta: Callable[[int, int], Factor]


FAMILIES = {
    "A": Family(
        first_n=1,
        seed_n=1,
        krange=lambda n: range(1, n + 1),
        alpha=lambda n, k: (0, ((k, 1),)),
        beta=lambda n, k: (k - 1, ((n + 1 - k, 1),)),
    ),
    "a": Family(
        first_n=1,
        seed_n=1,
        krange=lambda n: range(1, (n + 1) // 2 + 1),
        alpha=lambda n, k: (0, ((k, 1),)),
        beta=lambda n, k: (k - 1, ((2, k - 1), (n + 2 - 2 * k, 1))),
    ),
    "B": Family(
        first_n=0,
        seed_n=0,
        krange=lambda n: range(0, n + 1),
        alpha=lambda n, k: (0, ((2 * k + 1, 1),)),
        beta=lambda n, k: (2 * k - 1, ((2 * n - 2 * k + 1, 1),)),
    ),
    "b": Family(
        first_n=1,
        seed_n=0,
        krange=lambda n: range(0, n // 2 + 1),
        alpha=lambda n, k: (0, ((2 * k + 1, 1),)),
        beta=lambda n, k: (2 * k - 1, ((2, 1), (2, 2 * k - 1), (n + 1 - 2 * k, 2))),
    ),
}


def _apply_factor(factor: Factor, p: QPoly) -> QPoly:
    """``factor * p``, one :meth:`QPoly.mul_q_int` per q-integer and one shift."""
    e, q_ints = factor
    for m, step in q_ints:
        p = p.mul_q_int(m, step)
    return p.shift(e)


@dataclasses.dataclass(frozen=True)
class Triangle:
    """Doubly indexed family of polynomials with explicit per-row bounds.
    Entries outside the stated column range are identically zero."""

    family: str
    first_n: int
    rows: tuple[tuple[QPoly, ...], ...]

    def krange(self, n: int) -> range:
        return FAMILIES[self.family].krange(n)

    @property
    def max_n(self) -> int:
        return self.first_n + len(self.rows) - 1

    def row(self, n: int) -> tuple[QPoly, ...]:
        if not self.first_n <= n <= self.max_n:
            raise IndexError(f"row {n} not materialized (have {self.first_n}..{self.max_n})")
        return self.rows[n - self.first_n]

    def entry(self, n: int, k: int) -> QPoly:
        """``P[n,k]``, zero outside the stated range."""
        kr = self.krange(n)
        if self.first_n <= n <= self.max_n and k in kr:
            return self.row(n)[k - kr.start]
        return QPoly.zero()


# ---------------------------------------------------------------------------
# The row engine
# ---------------------------------------------------------------------------


def _row_builder(family: str) -> Callable[[int], tuple[QPoly, ...]]:
    """The cached ``row(n)`` of ``family``, entries in ``krange(n)`` order."""
    fam = FAMILIES[family]

    @lru_cache(maxsize=None)
    def row(n: int) -> tuple[QPoly, ...]:
        if n < fam.seed_n:
            raise ValueError(f"family {family} rows start at n={fam.seed_n}, got {n}")
        if n == fam.seed_n:
            return (QPoly.one(),)
        # The cache holds rows seed_n, seed_n+1, ... without a gap, so the rows
        # missing below n are built bottom up, each finding its predecessor
        # cached: the call depth stays constant whatever n is.
        for m in range(fam.seed_n + row.cache_info().currsize, n):
            row(m)
        prev, pk = row(n - 1), fam.krange(n - 1)
        out = []
        for k in fam.krange(n):
            term = _apply_factor(fam.alpha(n, k), prev[k - pk.start]) if k in pk else QPoly.zero()
            if k - 1 in pk:
                term = term + _apply_factor(fam.beta(n, k), prev[k - 1 - pk.start])
            out.append(term)
        return tuple(out)

    return row


# Callers name these module attributes instead of reaching them through the
# table, so a profiler that rebinds them (perfbench/tracing.py) sees every call.
_carlitz_row = _row_builder("A")
_gamma_a_row = _row_builder("a")
_typeB_row = _row_builder("B")
_gamma_b_row = _row_builder("b")


def _triangle(family: str, row, N: int) -> Triangle:
    first = FAMILIES[family].first_n
    if N < first:
        raise ValueError(f"family {family} needs N >= {first}, got {N}")
    return Triangle(family, first, tuple(row(n) for n in range(first, N + 1)))


def _entry(family: str, row, n: int, k: int) -> QPoly:
    kr = FAMILIES[family].krange(n)
    return row(n)[k - kr.start] if k in kr else QPoly.zero()


def carlitz_triangle(N: int) -> Triangle:
    """Rows 1..N of the Carlitz coefficients ``A[n,k](q)``."""
    return _triangle("A", _carlitz_row, N)


def gamma_a_triangle(N: int) -> Triangle:
    """Rows 1..N of the type-A gamma coefficients ``a[n,k](q)``."""
    return _triangle("a", _gamma_a_row, N)


def typeB_triangle(N: int) -> Triangle:
    """Rows 0..N of the Chow-Gessel coefficients ``B[n,k](q)``."""
    return _triangle("B", _typeB_row, N)


def gamma_b_triangle(N: int) -> Triangle:
    """Rows 1..N of the type-B gamma coefficients ``b[n,k](q)``."""
    return _triangle("b", _gamma_b_row, N)


TRIANGLES = {
    "A": carlitz_triangle,
    "a": gamma_a_triangle,
    "B": typeB_triangle,
    "b": gamma_b_triangle,
}


def carlitz_entry(n: int, k: int) -> QPoly:
    return _entry("A", _carlitz_row, n, k)


def gamma_a_entry(n: int, k: int) -> QPoly:
    return _entry("a", _gamma_a_row, n, k)


def typeB_entry(n: int, k: int) -> QPoly:
    return _entry("B", _typeB_row, n, k)


def gamma_b_entry(n: int, k: int) -> QPoly:
    return _entry("b", _gamma_b_row, n, k)


# ---------------------------------------------------------------------------
# Generating polynomials and series oracles
# ---------------------------------------------------------------------------


def carlitz_poly(n: int) -> TQPoly:
    """``A_n(t,q) = sum_{k=1}^n A[n,k](q) t^(k-1)``."""
    return TQPoly(_carlitz_row(n))


def typeB_poly(n: int) -> TQPoly:
    """``B_n(t,q) = sum_{k=0}^n B[n,k](q) t^k``."""
    return TQPoly(_typeB_row(n))


def _q_int_power(m: int, n: int) -> QPoly:
    """``[m]^n``, one :meth:`QPoly.mul_q_int` per factor."""
    p = QPoly.one()
    for _ in range(n):
        p = p.mul_q_int(m)
    return p


def _series_oracle(n: int, W: int, step: int, keep: int) -> TQPoly:
    """Truncate ``(t;q^step)_{n+1} * sum_{k=0}^{W} [step*k+1]^n t^k`` at
    ``t^W``, demand that every t-coefficient from ``keep`` through ``W``
    vanishes, and return the ones below.  Each Pochhammer factor
    ``1 - t q^e`` maps column ``c_d`` to ``c_d - q^e c_(d-1)``, walking ``d``
    downwards, so no two polynomials are ever multiplied."""
    cols = [_q_int_power(step * k + 1, n) for k in range(W + 1)]
    for j in range(n + 1):
        for d in range(W, 0, -1):
            cols[d] = cols[d] - cols[d - 1].shift(step * j)
    for j in range(keep, W + 1):
        if cols[j]:
            raise ArithmeticError(f"series tail nonzero at t^{j} (n={n})")
    return TQPoly(cols[:keep])


def carlitz_series_oracle(n: int, tdeg_window: int | None = None) -> TQPoly:
    """Recover ``A_n(t,q)`` from its defining series: truncate
    ``(t;q)_{n+1} * sum_{k=0}^{W} [k+1]^n t^k`` and demand that every
    t-coefficient from degree n through the window vanishes.

    A nonzero tail signals an arithmetic bug, not a user error.
    """
    if n < 1:
        raise ValueError(f"series oracle needs n >= 1, got {n}")
    W = 2 * n if tdeg_window is None else tdeg_window
    if W < n:
        raise ValueError(f"tdeg_window must be >= {n}, got {W}")
    return _series_oracle(n, W, 1, n)


def typeB_series_oracle(n: int, tdeg_window: int | None = None) -> TQPoly:
    """Type-B analogue of :func:`carlitz_series_oracle`, with base ``q^2``
    Pochhammer and series ``sum [2k+1]^n t^k``; tail must vanish above
    t-degree n."""
    if n < 0:
        raise ValueError(f"series oracle needs n >= 0, got {n}")
    W = max(2 * n, n + 1) if tdeg_window is None else tdeg_window
    if W < n + 1:
        raise ValueError(f"tdeg_window must be >= {n + 1}, got {W}")
    return _series_oracle(n, W, 2, n + 1)


# ---------------------------------------------------------------------------
# Gamma-basis assembly and change of basis
# ---------------------------------------------------------------------------


def gamma_expand_A(n: int) -> TQPoly:
    """Assemble ``sum_k a[n,k](q) t^(k-1) (-t q^k; q)_{n+1-2k}``; equals
    ``carlitz_poly(n)`` exactly."""
    if n < 1:
        raise ValueError(f"gamma expansion needs n >= 1, got {n}")
    acc = TQPoly.zero()
    for k in FAMILIES["a"].krange(n):
        factor = poch_t(k, n + 1 - 2 * k, sign=-1)
        acc = acc + (gamma_a_entry(n, k) * factor).t_shift(k - 1)
    return acc


def gamma_expand_B(n: int) -> TQPoly:
    """Assemble ``sum_k b[n,k](q) t^k (-t q^(2k+1); q^2)_{n-2k}``; equals
    ``typeB_poly(n)`` exactly."""
    if n < 1:
        raise ValueError(f"gamma expansion needs n >= 1, got {n}")
    acc = TQPoly.zero()
    for k in FAMILIES["b"].krange(n):
        factor = poch_t(2 * k + 1, n - 2 * k, sign=-1, step=2)
        acc = acc + (gamma_b_entry(n, k) * factor).t_shift(k)
    return acc


def basis_change_A(n: int, k: int) -> QPoly:
    """``A[n,k](q)`` computed from the gamma row:
    ``sum_s [n+1-2s choose k-s]_q q^((k-s)s + C(k-s,2)) a[n,s](q)``."""
    if k not in FAMILIES["A"].krange(n):
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    acc = QPoly.zero()
    for s in FAMILIES["a"].krange(n):
        if s > k:
            break
        d = k - s
        exp = d * s + d * (d - 1) // 2
        acc = acc + (q_binom(n + 1 - 2 * s, d) * gamma_a_entry(n, s)).shift(exp)
    return acc


def basis_change_B(n: int, k: int) -> QPoly:
    """``B[n,k](q)`` from the gamma row, with the Gaussian binomial taken in
    the variable ``q^2``:
    ``sum_s [n-2s choose k-s]_{q^2} q^(k^2 - s^2) b[n,s](q)``."""
    if k not in FAMILIES["B"].krange(n):
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    acc = QPoly.zero()
    for s in FAMILIES["b"].krange(n):
        if s > k:
            break
        acc = acc + (subst_q_power(q_binom(n - 2 * s, k - s), 2) * gamma_b_entry(n, s)).shift(
            k * k - s * s
        )
    return acc


# ---------------------------------------------------------------------------
# Classical (q = 1) integer triangles
# ---------------------------------------------------------------------------


def classical_gamma_a(N: int) -> list[list[int]]:
    """Integer rows 1..N by ``a[n,k] = k a[n-1,k] + 2(n+2-2k) a[n-1,k-1]``."""
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    rows = [[1]]
    for n in range(2, N + 1):
        prev = rows[-1]

        def at(k: int) -> int:
            return prev[k - 1] if 1 <= k <= n // 2 else 0

        rows.append(
            [k * at(k) + 2 * (n + 2 - 2 * k) * at(k - 1) for k in range(1, (n + 1) // 2 + 1)]
        )
    return rows[:N]


def classical_gamma_b(N: int) -> list[list[int]]:
    """Integer rows 1..N by ``b[n,k] = (2k+1) b[n-1,k] + 4(n+1-2k) b[n-1,k-1]``."""
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    rows = [[1]]
    for n in range(2, N + 1):
        prev = rows[-1]

        def at(k: int) -> int:
            return prev[k] if 0 <= k <= (n - 1) // 2 else 0

        rows.append(
            [(2 * k + 1) * at(k) + 4 * (n + 1 - 2 * k) * at(k - 1) for k in range(0, n // 2 + 1)]
        )
    return rows[:N]


# ---------------------------------------------------------------------------
# Proof-lemma bracket identities
# ---------------------------------------------------------------------------


def q_int_ext(m: int, step: int = 1) -> QLaurent:
    """The q-integer ``(1 - q^(step*m)) / (1 - q^step)`` extended to all
    integers ``m``; for ``m < 0`` this is ``-q^(step*m) [\\,-m\\,]``."""
    if m >= 0:
        return QLaurent(q_int(m, step=step))
    return -QLaurent(q_int(-m, step=step)).shift(step * m)


def bracket_identity_A(n: int, k: int, s: int) -> bool:
    """Exact identity behind the type-A gamma recurrence:
    ``[n+1-2s][s] + [n-k-s+1](1+q^s)[k-s] = [k][n-k-s+1] + [n+1-k][k-s]``.
    Brackets with negative arguments take the Laurent extension, so the
    check covers every triple ``1 <= s <= k <= n``."""
    lhs = q_int_ext(n + 1 - 2 * s) * q_int_ext(s) + q_int_ext(n - k - s + 1) * (
        QLaurent.one() + QLaurent.q_power(s)
    ) * q_int_ext(k - s)
    rhs = q_int_ext(k) * q_int_ext(n - k - s + 1) + q_int_ext(n + 1 - k) * q_int_ext(k - s)
    return lhs == rhs


def bracket_identity_B(n: int, k: int, s: int) -> bool:
    """Type-B analogue:
    ``[n-2s]_{q^2}[2s+1] + [n-k-s]_{q^2}(1+q)(1+q^(2s+1))[k-s]_{q^2}
      = [2k+1][n-k-s]_{q^2} + [2n+1-2k][k-s]_{q^2}``."""
    gamma = QLaurent(QPoly([1, 1])) * (QLaurent.one() + QLaurent.q_power(2 * s + 1))
    lhs = q_int_ext(n - 2 * s, step=2) * q_int_ext(2 * s + 1) + q_int_ext(
        n - k - s, step=2
    ) * gamma * q_int_ext(k - s, step=2)
    rhs = q_int_ext(2 * k + 1) * q_int_ext(n - k - s, step=2) + q_int_ext(
        2 * n + 1 - 2 * k
    ) * q_int_ext(k - s, step=2)
    return lhs == rhs
