"""Row-reversal reciprocity and pointwise monotonicity checks for the
q-Eulerian triangles.

The monotonicity statements hold for every real q on either side of 1; this
module checks them exactly at caller-chosen rational sample points, each
entry evaluated in integers as ``b^D p(a/b)`` (evidence at the sampled
points, not a proof over the interval).

Each predicate decides in one pass over the cached row's coefficient
tuples, by the locator that ``verify`` names the first bad ``k`` with:
:func:`_first_unreversed` for reciprocity and :func:`_first_fall` for
monotonicity.  ``verify`` hands each locator the row it streams instead:
the q-row for reciprocity, and for monotonicity the row at the sample point,
computed in Z with no q-row built.  That way, cold on a 2 vCPU VM (Python
3.11), ``verify monotone --max-n 30`` takes 0.04 s at its default points and
0.4-0.9 s at two 60-digit points, against 0.14-0.22 s and 0.7-1.5 s when it
evaluated the cached rows.  The warm one-row predicates keep the cached
rows: at n = 14 they take about 50 us (A) and 100 us (B), a stream of the
rows to 14 about 200 and 320 us.
"""

from __future__ import annotations

from fractions import Fraction

from .eulerian import FAMILIES, _carlitz_row, _typeB_row, iter_rows
from .qring import RatLike, is_unimodal_ints, spec_q1


def _mirrors(back, front, e: int) -> bool:
    """``back(q) == q^e front(1/q)``, compared as coefficient tuples: the
    right side is ``front``'s coefficients from its top term down to its
    lowest nonzero one, after ``e - deg front`` zeros.  When ``e`` is below
    the degree, the right side has a negative power and no polynomial equals
    it."""
    cs = front.coeffs
    if not cs:
        return not back.coeffs
    pad = e + 1 - len(cs)
    return pad >= 0 and back.coeffs == (0,) * pad + cs[::-1][: len(cs) - front.valuation()]


def _first_unreversed(family: str, n: int, row=None) -> int | None:
    """The first ``k`` at which row ``n`` of ``A`` or ``B`` breaks the
    reciprocity of :func:`reciprocity_A` or :func:`reciprocity_B`, or
    ``None``: read backwards, the row must be itself under ``q -> 1/q``
    times ``q^e``.  ``row``, when given, is that row, from a caller that
    holds it already.  The row is read once, with no product, and each
    mirrored pair is compared once, by :func:`_mirrors`: pair ``i`` and pair
    ``len - 1 - i`` are the same equation under ``q -> 1/q`` times ``q^e``,
    so the front half finds the first bad ``k`` of any row."""
    if row is None:
        row = (_carlitz_row if family == "A" else _typeB_row)(n)
    e = n * (n - 1) // 2 if family == "A" else n * n
    for i in range((len(row) + 1) // 2):
        if not _mirrors(row[~i], row[i], e):
            return FAMILIES[family].krange(n).start + i
    return None


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


def _check_q0(q0: RatLike) -> RatLike:
    """``q0``, an ``int`` or a ``Fraction`` that is positive and not 1,
    read from its numerator and denominator alone."""
    try:
        a, b = q0.numerator, q0.denominator
    except AttributeError:
        raise TypeError(f"q0 must be an int or a Fraction, got {q0!r}") from None
    if a <= 0 or a == b:
        raise ValueError(f"q0 must be positive and != 1, got {q0}")
    return q0


def _first_fall(family: str, n: int, q0: RatLike, top: int = 0, row=None
                ) -> tuple[int, Fraction, Fraction] | None:
    """The first ``k`` at which the strict growth of :func:`monotone_check_A`
    or :func:`monotone_check_B` fails at ``q0``, with the value that should
    be exceeded and the one that should exceed it, or ``None``.  The checked
    slice of row ``n`` is read as it is when ``q0 > 1`` and backwards when
    ``0 < q0 < 1``; a slice of fewer than two entries compares nothing, so
    its row is not read.  At ``q0 = a/b`` the slice's values are integers at
    one scale, ``b^top p(a/b)``, compared as they are, and only a failing
    pair is made into fractions.  ``row``, when given, is row ``n`` at
    ``q0`` as :func:`~qeuler.eulerian.iter_point_rows` streams it, at scale
    ``b^top``; else the cached row is read and each checked entry evaluated
    once, ``top`` the slice's top degree."""
    lo, hi = (0, (n + 1) // 2) if family == "A" else (1, n // 2 + 1)
    if hi - lo < 2:
        return None
    a, b = q0.numerator, q0.denominator
    if row is None:
        row = (_carlitz_row if family == "A" else _typeB_row)(n)
        entries = row[lo:hi] if a > b else row[-1 - lo:-1 - hi:-1]
        top = 0
        for p in entries:
            if len(p.coeffs) > top:
                top = len(p.coeffs)
        top -= 1
        values = [p._scaled(a, b, top) for p in entries]
    else:
        values = row[lo:hi] if a > b else row[-1 - lo:-1 - hi:-1]
    x = values[0]
    for k in range(1, len(values)):
        y = values[k]
        if not x < y:
            return k, Fraction(x, b**top), Fraction(y, b**top)
        x = y
    return None


def monotone_check_A(n: int, q0: RatLike) -> bool:
    """Strict growth of the first half of row n at q0 > 1
    (``A[n,k+1](q0) > A[n,k](q0)`` for ``k = 1..j-1``, ``j = (n+1)//2``), or
    the mirrored strict decrease at 0 < q0 < 1."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return _first_fall("A", n, _check_q0(q0)) is None


def monotone_check_B(n: int, q0: RatLike) -> bool:
    """Type-B mirror of :func:`monotone_check_A` with ``j = n//2``."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return _first_fall("B", n, _check_q0(q0)) is None


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
