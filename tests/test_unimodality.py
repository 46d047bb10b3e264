from fractions import Fraction

import pytest

from qeuler import unimodality
from qeuler.eulerian import FAMILIES, carlitz_entry, typeB_entry
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


@pytest.mark.parametrize("q0", HI_POINTS + LO_POINTS)
@pytest.mark.parametrize("n", range(2, 11))
def test_monotone_A(n, q0):
    assert monotone_check_A(n, q0)


@pytest.mark.parametrize("q0", HI_POINTS + LO_POINTS)
@pytest.mark.parametrize("n", range(2, 11))
def test_monotone_B(n, q0):
    assert monotone_check_B(n, q0)


def test_monotone_rejects_bad_q0():
    for bad in (0, 1, Fraction(-1, 2)):
        with pytest.raises(ValueError):
            monotone_check_A(4, bad)
        with pytest.raises(ValueError):
            monotone_check_B(4, bad)
    with pytest.raises(ValueError):
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

    def counted(p):
        calls.append(p)
        return subst_q_recip(p)

    monkeypatch.setattr(unimodality, "subst_q_recip", counted)
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
