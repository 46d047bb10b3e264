from fractions import Fraction
from itertools import pairwise

import pytest

from qeuler import unimodality
from qeuler.cli import DEFAULT_POINTS
from qeuler.eulerian import FAMILIES, carlitz_entry, iter_rows, typeB_entry
from qeuler.qring import QLaurent, QPoly, spec_q1, subst_q_recip
from qeuler.unimodality import (
    monotone_check_A,
    monotone_check_B,
    q1_unimodality,
    reciprocity_A,
    reciprocity_B,
)

HI_POINTS = [Fraction(3, 2), Fraction(2), Fraction(7, 3), Fraction(5)]
LO_POINTS = [Fraction(1, 2), Fraction(2, 3)]
# the sample points of the benchmark's monotonicity calls, six on each side of 1
BENCH_POINTS = [Fraction(p) for p in ("3/2", "2", "7/3", "5/2", "3", "5/4",
                                      "1/2", "2/3", "3/4", "2/5", "1/3", "4/5")]


def test_reciprocity_hand_examples():
    # A[2,2] = q = q^1 A[2,1](1/q); A[3,2] = 2q + 2q^2 = q^3 (2q^-1 + 2q^-2)
    assert carlitz_entry(2, 2) == QPoly([0, 1])
    assert QLaurent(carlitz_entry(3, 2)) == QLaurent.q_power(3) * subst_q_recip(
        carlitz_entry(3, 1 + 1)
    )
    assert reciprocity_A(1)


@pytest.mark.parametrize("n", range(1, 13))
def test_reciprocity_A(n):
    assert reciprocity_A(n)


@pytest.mark.parametrize("n", range(0, 13))
def test_reciprocity_B(n):
    assert reciprocity_B(n)


def test_monotone_hand_example():
    # A[3,2](2) = 12 > A[3,1](2) = 1
    assert carlitz_entry(3, 2)(Fraction(2)) == 12
    assert monotone_check_A(3, 2)


def _count_evaluations(monkeypatch):
    """Record every ``QPoly._scaled`` call, one per evaluated entry."""
    calls, scaled = [], QPoly._scaled

    def counted(p, *args):
        calls.append(p)
        return scaled(p, *args)

    monkeypatch.setattr(QPoly, "_scaled", counted)
    return calls


@pytest.mark.parametrize("q0", HI_POINTS + LO_POINTS)
@pytest.mark.parametrize("n", range(2, 11))
def test_monotone_A(n, q0, monkeypatch):
    # each checked entry is evaluated once; at n = 2 the half-row holds one
    # entry, so nothing is compared and nothing evaluated
    calls = _count_evaluations(monkeypatch)
    assert monotone_check_A(n, q0)
    assert len(calls) == ((n + 1) // 2 if n > 2 else 0)


@pytest.mark.parametrize("q0", HI_POINTS + LO_POINTS)
@pytest.mark.parametrize("n", range(2, 11))
def test_monotone_B(n, q0, monkeypatch):
    # B[n,1..n//2] at n = 2 and 3 is one entry
    calls = _count_evaluations(monkeypatch)
    assert monotone_check_B(n, q0)
    assert len(calls) == (n // 2 if n > 3 else 0)


def test_monotone_rejects_bad_q0():
    # also where the half-row is too short to compare anything
    for check in (monotone_check_A, monotone_check_B):
        for n in (2, 3, 4):
            for bad, shown in ((0, "0"), (1, "1"), (Fraction(-1, 2), "-1/2"), (Fraction(4, 4), "1")):
                with pytest.raises(ValueError, match=f"^q0 must be positive and != 1, got {shown}$"):
                    check(n, bad)
            with pytest.raises(TypeError, match=r"^q0 must be an int or a Fraction, got '3/2'$"):
                check(n, "3/2")
    with pytest.raises(ValueError, match="^need n >= 2, got 1$"):
        monotone_check_A(1, 2)


def test_q1_rows():
    assert [spec_q1(carlitz_entry(4, k)) for k in range(1, 5)] == [1, 11, 11, 1]
    assert [spec_q1(typeB_entry(2, k)) for k in range(3)] == [1, 6, 1]


def test_q1_unimodality():
    assert q1_unimodality("A", 12)
    assert q1_unimodality("B", 12)
    assert q1_unimodality("A", 1)
    with pytest.raises(ValueError):
        q1_unimodality("a", 4)


# ---------------------------------------------------------------------------
# The shared bodies against the former per-k twins
# ---------------------------------------------------------------------------


def _ref_reciprocity_A(n):
    e = n * (n - 1) // 2
    return all(
        QLaurent(carlitz_entry(n, n - k + 1)) == subst_q_recip(carlitz_entry(n, k)).shift(e)
        for k in FAMILIES["A"].krange(n)
    )


def _ref_reciprocity_B(n):
    return all(
        QLaurent(typeB_entry(n, n - k)) == subst_q_recip(typeB_entry(n, k)).shift(n * n)
        for k in FAMILIES["B"].krange(n)
    )


def _ref_monotone_A(n, q0):
    j = (n + 1) // 2
    if q0 > 1:
        return all(
            carlitz_entry(n, k + 1)(q0) > carlitz_entry(n, k)(q0) for k in range(1, j)
        )
    return all(
        carlitz_entry(n, n - k + 1)(q0) < carlitz_entry(n, n - k)(q0) for k in range(1, j)
    )


def _ref_monotone_B(n, q0):
    j = n // 2
    if q0 > 1:
        return all(typeB_entry(n, k + 1)(q0) > typeB_entry(n, k)(q0) for k in range(1, j))
    return all(
        typeB_entry(n, n - k)(q0) < typeB_entry(n, n - k - 1)(q0) for k in range(1, j)
    )


@pytest.mark.parametrize("n", range(0, 15))
def test_reciprocity_matches_the_per_k_reference(n):
    if n >= 1:
        assert reciprocity_A(n) == _ref_reciprocity_A(n)
    assert reciprocity_B(n) == _ref_reciprocity_B(n)


@pytest.mark.parametrize("n", range(2, 15))
def test_monotone_matches_the_per_k_reference(n):
    for q0 in BENCH_POINTS:
        assert monotone_check_A(n, q0) == _ref_monotone_A(n, q0)
        assert monotone_check_B(n, q0) == _ref_monotone_B(n, q0)


def _perturbed(monkeypatch, row_name, i, entry):
    """Make ``row_name`` return its row with entry ``i`` replaced by
    ``entry(row)``, as the predicates read it."""
    original = getattr(unimodality, row_name)

    def row(n):
        r = list(original(n))
        r[i] = entry(r)
        return tuple(r)

    monkeypatch.setattr(unimodality, row_name, row)


@pytest.mark.parametrize("check, row_name, n", [
    (reciprocity_A, "_carlitz_row", 6),
    (reciprocity_B, "_typeB_row", 5),
])
def test_reciprocity_sees_one_perturbed_entry(monkeypatch, check, row_name, n):
    assert check(n)
    _perturbed(monkeypatch, row_name, 1, lambda r: r[1] + QPoly.monomial(0))
    assert not check(n)


@pytest.mark.parametrize("check, row_name, n, i", [
    (monotone_check_A, "_carlitz_row", 7, 2),   # A[7,3] against A[7,2]
    (monotone_check_B, "_typeB_row", 6, 3),     # B[6,3] against B[6,2]
])
@pytest.mark.parametrize("q0", [Fraction(2), Fraction(1, 2)])
def test_monotone_sees_one_perturbed_entry(monkeypatch, check, row_name, n, i, q0):
    assert check(n, q0)
    # below 1 the predicates read the row backwards, so flatten the mirror entry
    j = i if q0 > 1 else -1 - i
    _perturbed(monkeypatch, row_name, j, lambda r: r[j - 1 if q0 > 1 else j + 1])
    assert not check(n, q0)


def _full_scan_first_unreversed(row, e, first_k):
    """Every mirrored pair, both ways round: the first ``k`` whose pair fails."""
    return next((first_k + i for i, (p, back) in enumerate(zip(row, reversed(row)))
                 if QLaurent(back) != subst_q_recip(p).shift(e)), None)


RECIPROCITY_ROWS = [("A", "_carlitz_row", 6, 15), ("A", "_carlitz_row", 7, 21),
                    ("B", "_typeB_row", 5, 25), ("B", "_typeB_row", 6, 36)]


@pytest.mark.parametrize("family, row_name, n, e", RECIPROCITY_ROWS)
def test_first_unreversed_compares_each_mirrored_pair_once(monkeypatch, family, row_name, n, e):
    calls = []
    mirrors = unimodality._mirrors

    def counted(back, p, e):
        calls.append(p)
        return mirrors(back, p, e)

    monkeypatch.setattr(unimodality, "_mirrors", counted)
    assert unimodality._first_unreversed(family, n) is None
    assert len(calls) == -(-len(getattr(unimodality, row_name)(n)) // 2)


@pytest.mark.parametrize("family, row_name, n, e", RECIPROCITY_ROWS)
def test_first_unreversed_finds_the_full_scans_first_bad_k(monkeypatch, family, row_name, n, e):
    length = len(getattr(unimodality, row_name)(n))
    first_k = FAMILIES[family].krange(n).start
    for i in range(length):
        with monkeypatch.context() as m:
            _perturbed(m, row_name, i, lambda r: r[i] + QPoly.monomial(0))
            row = getattr(unimodality, row_name)(n)
            expected = _full_scan_first_unreversed(row, e, first_k)
            assert expected == first_k + min(i, length - 1 - i)
            assert unimodality._first_unreversed(family, n) == expected
            assert not (reciprocity_A if family == "A" else reciprocity_B)(n)


def _times_q(p):
    return QPoly((0, *p.coeffs))


PERTURBATIONS = [("zero", lambda p: QPoly()), ("times q", _times_q),
                 ("plus 1", lambda p: p + QPoly.monomial(0))]


@pytest.mark.parametrize("family, N", [("A", 30), ("B", 25)])
def test_first_unreversed_matches_the_full_scan(family, N):
    # the tuple comparison against the QLaurent reference, on every true row
    # and on rows with one entry perturbed; "times q" on row 1 of A or row 0
    # of B, (1,), puts a front entry's degree above e = 0
    for n, row in iter_rows(family, N):
        e = n * (n - 1) // 2 if family == "A" else n * n
        first_k = FAMILIES[family].krange(n).start
        assert unimodality._first_unreversed(family, n, row) is None
        assert _full_scan_first_unreversed(row, e, first_k) is None
        for i in range(len(row)):
            for name, change in PERTURBATIONS:
                bad = row[:i] + (change(row[i]),) + row[i + 1:]
                first_bad = unimodality._first_unreversed(family, n, bad)
                assert first_bad == _full_scan_first_unreversed(bad, e, first_k), (n, i, name)


@pytest.mark.parametrize("back, front, e, want", [
    (QPoly(), QPoly(), 3, True),
    (QPoly([0, 0, 0, 1]), QPoly([1]), 3, True),          # q^3 == q^3 * 1
    (QPoly([0, 2, 1]), QPoly([0, 1, 2]), 3, True),      # q + 2q^2 mirrors 2q + q^2
    (QPoly([0, 1, 2]), QPoly([0, 1, 2]), 3, False),
    (QPoly([1, 2]), QPoly([0, 1, 2]), 3, False),        # the leading zeros count
    (QPoly([2, 1]), QPoly([0, 1, 2]), 1, False),        # q^1 front(1/q) has q^-1
    (QPoly(), QPoly([1]), 0, False),
    (QPoly([1]), QPoly(), 0, False),
    (QPoly([1, 1]), QPoly([1, 1]), 0, False),           # palindromic, but 1 + q^-1
])
def test_mirrors_hand_cases(back, front, e, want):
    assert unimodality._mirrors(back, front, e) is want
    assert (QLaurent(back) == subst_q_recip(front).shift(e)) is want
    # the two-entry row (front, back) is that one mirrored pair, in row n of
    # A with e = C(n, 2)
    n = {0: 1, 1: 2, 3: 3}[e]
    assert (unimodality._first_unreversed("A", n, (front, back)) is None) is want


# the default points of `verify monotone` and a 60-digit pair either side of 1
FALL_POINTS = [*DEFAULT_POINTS, Fraction(10**30 - 2, 10**30 - 1), Fraction(10**30 - 1, 10**30 - 2)]


def _checked(family, n, length, q0):
    """The positions in row ``n`` of the entries the strict-growth claim at
    ``q0`` reads, in reading order."""
    lo, hi = (0, (n + 1) // 2) if family == "A" else (1, n // 2 + 1)
    return range(lo, hi) if q0 > 1 else range(length - 1 - lo, length - 1 - hi, -1)


def _fraction_first_fall(family, n, q0, row, value):
    """The first fall as the claim reads it, each entry's value a
    ``Fraction`` from ``value``."""
    values = (value(row[i], q0) for i in _checked(family, n, len(row), q0))
    return next(((k, a, b) for k, (a, b) in enumerate(pairwise(values), 1) if not a < b), None)


@pytest.mark.parametrize("family, N", [("A", 30), ("B", 25)])
def test_first_fall_matches_the_fraction_reference(family, N, monkeypatch):
    # every entry of every half-row at every point is its QPoly.__call__
    # value times the slice's power of the denominator; every half-row, and
    # every checked entry of it zeroed, times q or plus 1, gives the same
    # first bad k and the same two fractions as the QPoly.__call__ values;
    # the wide points perturb the rows to n = 12 only, each of those calls
    # costing a whole half-row
    row_name = "_carlitz_row" if family == "A" else "_typeB_row"
    memo = {}

    def value(p, q0):
        if (p, q0) not in memo:
            memo[p, q0] = p(q0)
        return memo[p, q0]

    for n, row in iter_rows(family, N):
        if n < 2:
            continue
        for q0 in FALL_POINTS:
            entries = [row[i] for i in _checked(family, n, len(row), q0)]
            top = max(p.degree() for p in entries)
            scale = q0.denominator**top
            for p in entries:
                scaled = p._scaled(q0.numerator, q0.denominator, top)
                v = value(p, q0)
                assert scaled * v.denominator == v.numerator * scale
            assert unimodality._first_fall(family, n, q0) is None
            assert _fraction_first_fall(family, n, q0, row, value) is None
            if n > 12 and q0 not in DEFAULT_POINTS:
                continue
            for i in _checked(family, n, len(row), q0):
                for name, change in PERTURBATIONS:
                    bad = row[:i] + (change(row[i]),) + row[i + 1:]
                    monkeypatch.setattr(unimodality, row_name, lambda m, bad=bad: bad)
                    got = unimodality._first_fall(family, n, q0)
                    monkeypatch.undo()
                    want = _fraction_first_fall(family, n, q0, bad, value)
                    assert repr(got) == repr(want), (n, q0, i, name)
