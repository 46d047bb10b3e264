"""Row-reversal reciprocity and pointwise monotonicity checks for the
q-Eulerian triangles.

The monotonicity statements hold for every real q on either side of 1; this
module checks them by exact rational arithmetic at caller-chosen sample
points (evidence at the sampled points, not a proof over the interval).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import pairwise

from .eulerian import FAMILIES, _carlitz_row, _typeB_row, iter_rows
from .qring import (
    QLaurent,
    RatLike,
    is_unimodal_ints,
    spec_q1,
    subst_q_recip,
)


def _first_unreversed(family: str, n: int, row=None) -> int | None:
    """The first ``k`` at which row ``n`` of ``A`` or ``B`` breaks the
    reciprocity of :func:`reciprocity_A` or :func:`reciprocity_B`, or
    ``None``: read backwards, the row must be itself under ``q -> 1/q``
    times ``q^e``.  ``row``, when given, is that row, from a caller that
    holds it already.  The row is read once, with no product, and each
    mirrored pair is compared once: pair ``i`` and pair ``len - 1 - i`` are
    the same equation under ``q -> 1/q`` times ``q^e``, so the front half
    finds the first bad ``k`` of any row."""
    if row is None:
        row = (_carlitz_row if family == "A" else _typeB_row)(n)
    e = n * (n - 1) // 2 if family == "A" else n * n
    front = row[: (len(row) + 1) // 2]
    bad = next((i for i, (p, back) in enumerate(zip(front, reversed(row)))
                if QLaurent(back) != subst_q_recip(p).shift(e)), None)
    return None if bad is None else FAMILIES[family].krange(n).start + bad


def reciprocity_A(n: int) -> bool:
    """``A[n, n-k+1](q) == q^(n(n-1)/2) A[n,k](1/q)`` for every k, exactly."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return _first_unreversed("A", n) is None


def reciprocity_B(n: int) -> bool:
    """``B[n, n-k](q) == q^(n^2) B[n,k](1/q)`` for every k, exactly."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    return _first_unreversed("B", n) is None


def _check_q0(q0: Fraction) -> Fraction:
    q0 = Fraction(q0)
    if q0 <= 0 or q0 == 1:
        raise ValueError(f"q0 must be positive and != 1, got {q0}")
    return q0


def _first_fall(family: str, n: int, q0: Fraction) -> tuple[int, Fraction, Fraction] | None:
    """The first ``k`` at which the strict growth of :func:`monotone_check_A`
    or :func:`monotone_check_B` fails at ``q0``, with the value that should
    be exceeded and the one that should exceed it, or ``None``.  The checked
    slice of row ``n`` is read as it is when ``q0 > 1`` and backwards when
    ``0 < q0 < 1``; each entry is evaluated once."""
    row, lo, hi = (
        (_carlitz_row(n), 0, (n + 1) // 2) if family == "A" else (_typeB_row(n), 1, n // 2 + 1)
    )
    values = (p(q0) for p in (row if q0 > 1 else row[::-1])[lo:hi])
    return next(((k, a, b) for k, (a, b) in enumerate(pairwise(values), 1) if not a < b), None)


def monotone_check_A(n: int, q0: RatLike) -> bool:
    """Strict growth of the first half of row n at q0 > 1
    (``A[n,k+1](q0) > A[n,k](q0)`` for ``k = 1..j-1``, ``j = (n+1)//2``), or
    the mirrored strict decrease at 0 < q0 < 1."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    q0 = _check_q0(q0)
    return _first_fall("A", n, q0) is None


def monotone_check_B(n: int, q0: RatLike) -> bool:
    """Type-B mirror of :func:`monotone_check_A` with ``j = n//2``."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    q0 = _check_q0(q0)
    return _first_fall("B", n, q0) is None


def q1_unimodality(family: str, N: int) -> bool:
    """At q = 1 every row of the chosen triangle ('A' or 'B') is a
    palindromic unimodal integer sequence.  The rows are streamed, not
    cached; ``B`` row 0, ``(1,)``, is checked too."""
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    if family not in ("A", "B"):
        raise ValueError(f"family must be 'A' or 'B', got {family!r}")
    rows = ([spec_q1(p) for p in row] for _, row in iter_rows(family, N))
    return all(is_unimodal_ints(row) and row == row[::-1] for row in rows)
