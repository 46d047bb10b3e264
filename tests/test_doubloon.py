import dataclasses
import doctest
from itertools import permutations
from math import factorial

import pytest

import qeuler.doubloon
from qeuler import eulerian
from qeuler.cli import run_suite
from qeuler.doubloon import _quad, interlaced_gf
from qeuler.eulerian import gamma_a_entry
from qeuler.qring import QPoly, spec_q1

# ---------------------------------------------------------------------------
# The definitions, as plain code: the reference for the pruned enumeration
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Doubloon:
    """Rows of a 2 x (n+1) matrix holding a permutation of ``0..2n+1``."""

    top: tuple[int, ...]
    bottom: tuple[int, ...]

    def __post_init__(self):
        if len(self.top) != len(self.bottom):
            raise ValueError("rows must have equal length")
        m = 2 * len(self.top)
        if sorted(self.top + self.bottom) != list(range(m)):
            raise ValueError(f"entries must be a permutation of 0..{m - 1}")

    @property
    def order(self) -> int:
        """The order 2n+1, where the matrix is 2 x (n+1)."""
        return 2 * len(self.top) - 1

    def reading_word(self) -> tuple[int, ...]:
        """Boustrophedon word: top row left-to-right, bottom right-to-left."""
        return self.top + tuple(reversed(self.bottom))


def word_des(w):
    """Number of descents of a word (positions i with w_i > w_{i+1})."""
    return sum(1 for i in range(len(w) - 1) if w[i] > w[i + 1])


def word_maj(w):
    """Major index: sum of the (1-based) descent positions.

    >>> word_maj((0, 1, 3, 2)), word_des((0, 1, 3, 2))
    (3, 1)
    >>> word_maj((0, 3, 1, 2)), word_des((0, 3, 1, 2))
    (2, 1)
    """
    return sum(i + 1 for i in range(len(w) - 1) if w[i] > w[i + 1])


def cmaj_prime(d):
    """``maj(w) - (n+1) des(w) + n^2`` on the boustrophedon word.

    >>> cmaj_prime(Doubloon((0, 1), (2, 3)))
    2
    >>> cmaj_prime(Doubloon((0, 3), (2, 1)))
    1
    """
    n = len(d.top) - 1
    w = d.reading_word()
    return word_maj(w) - (n + 1) * word_des(w) + n * n


def is_interlaced(d):
    """True iff every column quadruple ``(a_{k-1}, a_k, b_{k-1}, b_k)`` has a
    cyclic rotation that is strictly monotonic.  Only the four rotations are
    tested (not reversals).

    >>> is_interlaced(Doubloon((0, 1), (2, 3)))
    True
    >>> is_interlaced(Doubloon((0, 2), (1, 3)))
    False
    """
    a, b = d.top, d.bottom
    return all(_quad(a[k - 1], a[k], b[k - 1], b[k]) for k in range(1, len(a)))


def iter_doubloons(n, rooted=True):
    """All doubloons of order 2n+1 (with ``a_0 = 0`` when rooted), filling
    the cells ``a_1..a_n`` then ``b_0..b_n`` in row-major order."""
    cells = n + 1
    if rooted:
        for perm in permutations(range(1, 2 * n + 2)):
            yield Doubloon((0,) + perm[: cells - 1], perm[cells - 1 :])
    else:
        for perm in permutations(range(2 * n + 2)):
            yield Doubloon(perm[:cells], perm[cells:])


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
    # tests the (2n+1)! fillings of the definition, each of which would cost
    # at least one quadruple test
    tests = 0

    def counted(*args):
        nonlocal tests
        tests += 1
        return _quad(*args)

    monkeypatch.setattr(qeuler.doubloon, "_quad", counted)
    for row in ("_carlitz_row", "_gamma_a_row"):
        getattr(eulerian, row).cache_clear()
    assert run_suite("doubloon", 4).ok
    # orders 3..9 test 6 + 100 + 1,722 + 49,320 quadruples
    assert 0 < tests < factorial(9)


def test_doctests():
    assert doctest.testmod(qeuler.doubloon).failed == 0
