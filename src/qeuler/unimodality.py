"""Row-reversal reciprocity and pointwise monotonicity checks for the
q-Eulerian triangles.

The monotonicity statements hold for every real q on either side of 1; this
module checks them by exact rational arithmetic at caller-chosen sample
points (evidence at the sampled points, not a proof over the interval).
"""

from __future__ import annotations

from fractions import Fraction

from .eulerian import FAMILIES, TRIANGLES, carlitz_entry, typeB_entry
from .qring import (
    QLaurent,
    RatLike,
    is_unimodal_ints,
    spec_q1,
    subst_q_recip,
)


def reciprocity_A(n: int) -> bool:
    """``A[n, n-k+1](q) == q^(n(n-1)/2) A[n,k](1/q)`` for every k, exactly."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    e = n * (n - 1) // 2
    return all(
        QLaurent(carlitz_entry(n, n - k + 1)) == subst_q_recip(carlitz_entry(n, k)).shift(e)
        for k in FAMILIES["A"].krange(n)
    )


def reciprocity_B(n: int) -> bool:
    """``B[n, n-k](q) == q^(n^2) B[n,k](1/q)`` for every k, exactly."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    return all(
        QLaurent(typeB_entry(n, n - k)) == subst_q_recip(typeB_entry(n, k)).shift(n * n)
        for k in FAMILIES["B"].krange(n)
    )


def _check_q0(q0: Fraction) -> Fraction:
    q0 = Fraction(q0)
    if q0 <= 0 or q0 == 1:
        raise ValueError(f"q0 must be positive and != 1, got {q0}")
    return q0


def monotone_check_A(n: int, q0: RatLike) -> bool:
    """Strict growth of the first half of row n at q0 > 1
    (``A[n,k+1](q0) > A[n,k](q0)`` for ``k = 1..j-1``, ``j = (n+1)//2``), or
    the mirrored strict decrease at 0 < q0 < 1."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    q0 = _check_q0(q0)
    j = (n + 1) // 2
    if q0 > 1:
        return all(
            carlitz_entry(n, k + 1)(q0) > carlitz_entry(n, k)(q0) for k in range(1, j)
        )
    return all(
        carlitz_entry(n, n - k + 1)(q0) < carlitz_entry(n, n - k)(q0) for k in range(1, j)
    )


def monotone_check_B(n: int, q0: RatLike) -> bool:
    """Type-B mirror of :func:`monotone_check_A` with ``j = n//2``."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    q0 = _check_q0(q0)
    j = n // 2
    if q0 > 1:
        return all(typeB_entry(n, k + 1)(q0) > typeB_entry(n, k)(q0) for k in range(1, j))
    return all(
        typeB_entry(n, n - k)(q0) < typeB_entry(n, n - k - 1)(q0) for k in range(1, j)
    )


def q1_unimodality(family: str, N: int) -> bool:
    """At q = 1 every row of the chosen triangle ('A' or 'B') is a
    palindromic unimodal integer sequence."""
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    if family not in ("A", "B"):
        raise ValueError(f"family must be 'A' or 'B', got {family!r}")
    tri = TRIANGLES[family](N)
    rows = ([spec_q1(p) for p in tri.row(n)] for n in range(1, N + 1))
    return all(is_unimodal_ints(row) and row == row[::-1] for row in rows)
