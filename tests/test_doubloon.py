import doctest

import pytest

import qeuler.doubloon
from qeuler import eulerian
from qeuler.cli import run_suite
from qeuler.doubloon import (
    Doubloon,
    cmaj_prime,
    interlaced_gf,
    is_interlaced,
    iter_doubloons,
    word_des,
    word_maj,
)
from qeuler.eulerian import gamma_a_entry
from qeuler.qring import QPoly, spec_q1


def _brute_gf(n):
    # the definition, tested on every rooted filling: the reference for the
    # pruned enumeration in interlaced_gf
    counts = {}
    for d in iter_doubloons(n):
        if is_interlaced(d):
            stat = cmaj_prime(d)
            counts[stat] = counts.get(stat, 0) + 1
    out = [0] * (max(counts) + 1)
    for stat, c in counts.items():
        out[stat] = c
    return QPoly(out)


def test_word_statistics():
    assert (word_des((0, 1, 3, 2)), word_maj((0, 1, 3, 2))) == (1, 3)
    assert (word_des((0, 3, 1, 2)), word_maj((0, 3, 1, 2))) == (1, 2)
    assert (word_des((1, 2, 3, 4)), word_maj((1, 2, 3, 4))) == (0, 0)
    assert word_maj((3, 2, 1)) == 3  # descents at positions 1 and 2


def test_doubloon_validation():
    d = Doubloon((0, 1), (2, 3))
    assert d.order == 3
    assert d.reading_word() == (0, 1, 3, 2)
    with pytest.raises(ValueError):
        Doubloon((0, 1), (2, 2))
    with pytest.raises(ValueError):
        Doubloon((0, 1, 2), (3, 4))


def test_cmaj_prime_hand_values():
    assert cmaj_prime(Doubloon((0, 1), (2, 3))) == 2  # 3 - 2*1 + 1
    assert cmaj_prime(Doubloon((0, 3), (2, 1))) == 1  # 2 - 2*1 + 1


def test_is_interlaced_cases():
    assert is_interlaced(Doubloon((0, 1), (2, 3)))      # (0,1,2,3) increasing
    assert is_interlaced(Doubloon((0, 3), (2, 1)))      # rotation (3,2,1,0)
    assert not is_interlaced(Doubloon((0, 2), (1, 3)))  # no monotone rotation


def test_enumeration_counts():
    assert sum(1 for _ in iter_doubloons(1)) == 6
    assert sum(1 for _ in iter_doubloons(1, rooted=False)) == 24


def test_rooting_calibration():
    # without rooting, order 3 has 8 interlaced doubloons, which cannot match
    # the central coefficient count a[3,2](1) = 2; rooting at a_0 = 0 gives 2
    unrooted = sum(1 for d in iter_doubloons(1, rooted=False) if is_interlaced(d))
    rooted = sum(1 for d in iter_doubloons(1) if is_interlaced(d))
    assert unrooted == 8
    assert rooted == 2 == spec_q1(gamma_a_entry(3, 2))


def test_interlaced_gf_order3():
    assert interlaced_gf(1) == QPoly([0, 1, 1])  # q + q^2


@pytest.mark.parametrize("n", [1, 2, 3])
def test_interlaced_gf_matches_central_gamma(n):
    assert interlaced_gf(n) == gamma_a_entry(2 * n + 1, n + 1)


def test_interlaced_counts_at_q1():
    # the tangent numbers
    assert [spec_q1(interlaced_gf(n)) for n in (1, 2, 3, 4)] == [2, 16, 272, 7936]


def test_cmaj_range_within_gamma_support():
    for n in (1, 2):
        target = gamma_a_entry(2 * n + 1, n + 1)
        lo, hi = target.valuation(), target.degree()
        for d in iter_doubloons(n):
            if is_interlaced(d):
                assert lo <= cmaj_prime(d) <= hi


def test_guard_overridable():
    with pytest.raises(ValueError):
        interlaced_gf(5)
    with pytest.raises(ValueError):
        interlaced_gf(0)


def test_order9_when_explicitly_enabled():
    # 7936 interlaced doubloons; explicit limit raise per the guard contract
    assert interlaced_gf(4, limit=4) == gamma_a_entry(9, 5)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pruned_enumeration_matches_brute_force(n):
    assert interlaced_gf(n) == _brute_gf(n)


def test_order11_when_explicitly_enabled():
    # 353,792 interlaced doubloons, past the default guard
    assert interlaced_gf(5, limit=5) == gamma_a_entry(11, 6)


def test_doubloon_suite_tests_no_candidate(monkeypatch):
    # the suite enumerates interlaced doubloons only: it neither builds nor
    # tests the (2n+1)! fillings of the definition
    def refuse(*args, **kwargs):
        raise AssertionError("brute-force doubloon enumeration")

    monkeypatch.setattr(qeuler.doubloon, "is_interlaced", refuse)
    monkeypatch.setattr(qeuler.doubloon, "iter_doubloons", refuse)
    for row in ("_carlitz_row", "_gamma_a_row"):
        getattr(eulerian, row).cache_clear()
    assert run_suite("doubloon", 4).ok


def test_doctests():
    assert doctest.testmod(qeuler.doubloon).failed == 0
