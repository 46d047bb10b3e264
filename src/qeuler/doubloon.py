"""Enumerative combinatorial oracle for the central gamma coefficients.

A doubloon of order ``2n+1`` is a 2 x (n+1) arrangement of ``0..2n+1``::

    a_0 a_1 ... a_n
    b_0 b_1 ... b_n

rooted here at ``a_0 = 0`` (without rooting, order 3 has 8 interlaced
arrangements, which cannot match the central coefficient count 2; rooting
gives exactly 2 with generating function ``q + q^2``).  The statistic is

    cmaj'(d) = maj(w) - (n+1) des(w) + n^2

on the boustrophedon word ``w = a_0 ... a_n b_n ... b_0``, and a doubloon is
interlaced when every consecutive column quadruple ``(a_{k-1}, a_k, b_{k-1},
b_k)``, or one of its three cyclic rotations, is strictly monotonic.

The generating function of interlaced doubloons by cmaj' equals the central
type-A gamma coefficient ``a[2n+1, n+1](q)``, which this module recomputes
without the row recurrences: :func:`interlaced_gf` fills the array column by
column and extends only interlaced prefixes, so it visits each interlaced
doubloon once instead of testing all ``(2n+1)!`` fillings.  On a 2 vCPU
machine with Python 3.11, order 9 takes about 0.02 s and order 11 about 1 s.
The plain definitions, which test every filling, are the reference for this
enumeration in ``tests/test_doubloon.py``.
"""

from __future__ import annotations

from .qring import QPoly

DEFAULT_ORDER_LIMIT = 4


def _quad(w: int, x: int, y: int, z: int) -> bool:
    """True iff the four distinct values ``(w, x, y, z)`` have a strictly
    monotone cyclic rotation: read cyclically they have one descent (an
    increasing rotation) or three (a decreasing one), never two."""
    return (w > x) + (x > y) + (y > z) + (z > w) != 2


def interlaced_gf(n: int, limit: int = DEFAULT_ORDER_LIMIT) -> QPoly:
    """Generating function ``sum q^cmaj'(d)`` over interlaced rooted
    doubloons of order 2n+1; equals the central coefficient
    ``a[2n+1, n+1](q)``.

    The array is filled column by column from ``a_0 = 0``, and a column
    whose quadruple with the one before fails the interlacing test is
    dropped at once, so only interlaced prefixes are extended.  cmaj' is
    carried along the boustrophedon word: ``a_{k-1} > a_k`` is a descent at
    position ``k`` and adds ``k - (n+1)``; ``b_k > b_{k-1}`` is one at
    position ``2n+2-k`` and adds ``n+1-k``; ``a_n > b_n`` is one at
    position ``n+1`` and adds nothing.  The leaves are the tangent numbers
    (353,792 at order 11, about 1 s on 2 vCPU), so ``n`` is guarded by
    ``limit`` (raise it explicitly for bigger runs).

    >>> interlaced_gf(2)
    QPoly('2q^3 + 4q^4 + 4q^5 + 4q^6 + 2q^7')
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > limit:
        raise ValueError(
            f"n={n} enumerates the interlaced doubloons of order {2 * n + 1}; "
            "raise limit= to allow"
        )
    counts: dict[int, int] = {}

    def extend(k: int, a: int, b: int, free: frozenset, stat: int) -> None:
        # columns 0..k-1 are placed, (a, b) is column k-1, free the values left
        for x in free:
            down = k - n - 1 if a > x else 0
            for y in free:
                if y != x and _quad(a, x, b, y):
                    s = stat + down + (n + 1 - k if y > b else 0)
                    if k == n:
                        counts[s] = counts.get(s, 0) + 1
                    else:
                        extend(k + 1, x, y, free - {x, y}, s)

    values = frozenset(range(1, 2 * n + 2))
    for b0 in values:
        extend(1, 0, b0, values - {b0}, n * n)
    out = [0] * (max(counts) + 1)
    for stat, c in counts.items():
        out[stat] = c
    return QPoly(out)
