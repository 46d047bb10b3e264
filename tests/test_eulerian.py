import itertools
import math
import subprocess
import sys
from collections import Counter

import pytest

from qeuler import eulerian
from qeuler.eulerian import (
    Triangle,
    basis_change_A,
    basis_change_B,
    bracket_identity_A,
    bracket_identity_B,
    carlitz_entry,
    carlitz_poly,
    carlitz_series_oracle,
    carlitz_triangle,
    classical_gamma_a,
    classical_gamma_b,
    gamma_a_entry,
    gamma_a_triangle,
    gamma_b_entry,
    gamma_b_triangle,
    gamma_expand_A,
    gamma_expand_B,
    typeB_entry,
    typeB_poly,
    typeB_series_oracle,
    typeB_triangle,
)
from qeuler.qring import QPoly, TQPoly, is_nonneg, poch_t, q_int, spec_q1


def P(*coeffs):
    return QPoly(coeffs)


ONE_PLUS_Q = P(1, 1)


# ---------------------------------------------------------------------------
# published table of a[n,k](q), rows 1..6, in factored form
# ---------------------------------------------------------------------------

A_TABLE = {
    (1, 1): P(1),
    (2, 1): P(1),
    (3, 1): P(1),
    (3, 2): P(0, 1, 1),
    (4, 1): P(1),
    (4, 2): P(0, 2) * ONE_PLUS_Q**2,
    (5, 1): P(1),
    (5, 2): P(0, 1) * ONE_PLUS_Q * P(3, 5, 3),
    (5, 3): P(0, 0, 0, 2) * ONE_PLUS_Q**2 * P(1, 0, 1),
    (6, 1): P(1),
    (6, 2): P(0, 1) * ONE_PLUS_Q**2 * P(4, 5, 4),
    (6, 3): QPoly.monomial(3) * ONE_PLUS_Q**2 * P(1, 0, 1) * P(5, 7, 5),
}


def test_gamma_a_matches_published_table():
    for (n, k), expected in A_TABLE.items():
        assert gamma_a_entry(n, k) == expected, (n, k)


def test_gamma_a_out_of_range_zero():
    assert gamma_a_entry(3, 3) == QPoly.zero()
    assert gamma_a_entry(4, 0) == QPoly.zero()


def test_carlitz_entries():
    assert carlitz_entry(1, 1) == P(1)
    assert carlitz_entry(2, 2) == P(0, 1)
    assert carlitz_entry(3, 2) == P(0, 2, 2)


def test_carlitz_poly_small():
    assert carlitz_poly(1) == TQPoly.one()
    assert carlitz_poly(2) == TQPoly([1, P(0, 1)])
    # (1+tq)(1+tq^2) + (q+q^2) t
    expected = poch_t(1, 2, sign=-1) + TQPoly.t_monomial(1, P(0, 1, 1))
    assert carlitz_poly(3) == expected


# ---------------------------------------------------------------------------
# displayed B_n(t,q) for n = 1..4, assembled from their printed gamma form
# ---------------------------------------------------------------------------

B_GAMMA_COEFFS = {
    (1, 0): P(1),
    (2, 0): P(1),
    (2, 1): P(0, 1, 2, 1),
    (3, 0): P(1),
    (3, 1): P(0, 2, 5, 6, 5, 2),
    (4, 0): P(1),
    (4, 1): P(0, 3, 9, 15, 18, 15, 9, 3),
    (4, 2): QPoly.monomial(4) * P(2, 7, 11, 13, 14, 13, 11, 7, 2),
}


def displayed_typeB(n):
    acc = TQPoly.zero()
    for k in range(0, n // 2 + 1):
        coeff = B_GAMMA_COEFFS[(n, k)]
        acc = acc + (coeff * poch_t(2 * k + 1, n - 2 * k, sign=-1, step=2)).t_shift(k)
    return acc


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_typeB_poly_matches_displayed_lines(n):
    assert typeB_poly(n) == displayed_typeB(n)


def test_gamma_b_matches_displayed_coefficients():
    for (n, k), expected in B_GAMMA_COEFFS.items():
        assert gamma_b_entry(n, k) == expected, (n, k)


def test_typeB_entries():
    assert typeB_entry(0, 0) == P(1)
    assert typeB_poly(1) == TQPoly([1, P(0, 1)])
    assert typeB_entry(2, 1) == P(0, 2, 2, 2)


# ---------------------------------------------------------------------------
# statistic oracles: the generating functions of (des, maj) over S_n and of
# (des_B, fmaj) over the signed permutations B_n, enumerated directly
# ---------------------------------------------------------------------------


def _descent_positions(word):
    """1-based positions i with word[i] > word[i+1] (1-based indexing)."""
    return [i for i in range(1, len(word)) if word[i - 1] > word[i]]


def _tally(pairs):
    """``sum t^a q^b`` over the (a, b) pairs."""
    count = Counter(pairs)
    top_a, top_b = max(a for a, _ in count), max(b for _, b in count)
    return TQPoly([QPoly([count[a, b] for b in range(top_b + 1)]) for a in range(top_a + 1)])


@pytest.mark.parametrize("n", range(1, 7))
def test_carlitz_poly_is_des_maj_distribution(n):
    # Carlitz: A_n(t,q) = sum over S_n of t^des q^maj
    pairs = []
    for sigma in itertools.permutations(range(1, n + 1)):
        desc = _descent_positions(sigma)
        pairs.append((len(desc), sum(desc)))
    assert carlitz_poly(n) == _tally(pairs)


@pytest.mark.parametrize("n", range(1, 6))
def test_typeB_poly_is_desB_fmaj_distribution(n):
    # Chow-Gessel: B_n(t,q) = sum over B_n of t^des_B q^fmaj, where des_B
    # counts the descents of 0, pi(1), ..., pi(n) and fmaj = 2 maj + neg,
    # maj summing the descent positions of pi(1..n) alone
    pairs = []
    for sigma in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product((1, -1), repeat=n):
            pi = tuple(s * v for s, v in zip(signs, sigma))
            des_b = len(_descent_positions((0,) + pi))
            fmaj = 2 * sum(_descent_positions(pi)) + signs.count(-1)
            pairs.append((des_b, fmaj))
    assert typeB_poly(n) == _tally(pairs)


# ---------------------------------------------------------------------------
# series oracles
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(1, 11))
def test_carlitz_series_oracle(n):
    assert carlitz_series_oracle(n, tdeg_window=2 * n) == carlitz_poly(n)


@pytest.mark.parametrize("n", range(0, 11))
def test_typeB_series_oracle(n):
    window = max(2 * n, n + 1)
    assert typeB_series_oracle(n, tdeg_window=window) == typeB_poly(n)


def test_series_oracle_window_validation():
    with pytest.raises(ValueError):
        carlitz_series_oracle(3, tdeg_window=2)
    with pytest.raises(ValueError):
        typeB_series_oracle(3, tdeg_window=3)


# The dense oracle bodies: a schoolbook TQPoly product of the Pochhammer
# polynomial and the series, with square-and-multiply powers.
def dense_carlitz_series_oracle(n, W):
    series = TQPoly([q_int(k + 1) ** n for k in range(W + 1)])
    prod = poch_t(0, n + 1, sign=+1) * series
    assert all(prod.coeff(j).is_zero() for j in range(n, W + 1))
    return TQPoly(prod.terms[:n])


def dense_typeB_series_oracle(n, W):
    series = TQPoly([q_int(2 * k + 1) ** n for k in range(W + 1)])
    prod = poch_t(0, n + 1, sign=+1, step=2) * series
    assert all(prod.coeff(j).is_zero() for j in range(n + 1, W + 1))
    return TQPoly(prod.terms[: n + 1])


@pytest.mark.parametrize("n", range(1, 9))
def test_carlitz_series_oracle_matches_dense_product(n):
    assert carlitz_series_oracle(n) == dense_carlitz_series_oracle(n, 2 * n)
    assert carlitz_series_oracle(n, 3 * n + 2) == dense_carlitz_series_oracle(n, 3 * n + 2)


@pytest.mark.parametrize("n", range(0, 9))
def test_typeB_series_oracle_matches_dense_product(n):
    W = max(2 * n, n + 1)
    assert typeB_series_oracle(n) == dense_typeB_series_oracle(n, W)
    assert typeB_series_oracle(n, 3 * n + 3) == dense_typeB_series_oracle(n, 3 * n + 3)


@pytest.mark.parametrize(
    "oracle, n, m",
    [
        (carlitz_series_oracle, 5, 1),
        (carlitz_series_oracle, 5, 3),
        (carlitz_series_oracle, 5, 11),
        (typeB_series_oracle, 4, 1),
        (typeB_series_oracle, 4, 5),
        (typeB_series_oracle, 4, 17),
    ],
    ids=lambda a: getattr(a, "__name__", str(a)),
)
def test_series_oracle_catches_a_wrong_column(monkeypatch, oracle, n, m):
    # one series column [m]^n off by q^0: the product gains the Pochhammer
    # polynomial shifted to that column, which reaches the checked tail
    power = eulerian._q_int_power
    monkeypatch.setattr(
        eulerian, "_q_int_power", lambda m_, n_: power(m_, n_) + (1 if m_ == m else 0)
    )
    with pytest.raises(ArithmeticError, match="series tail nonzero"):
        oracle(n)


# ---------------------------------------------------------------------------
# expansion identities and change of basis
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(1, 15))
def test_gamma_expansion_A(n):
    assert gamma_expand_A(n) == carlitz_poly(n)


@pytest.mark.parametrize("n", range(1, 15))
def test_gamma_expansion_B(n):
    assert gamma_expand_B(n) == typeB_poly(n)


def test_basis_change_A_examples():
    assert basis_change_A(3, 2) == P(0, 2, 2)
    assert basis_change_A(1, 1) == P(1)
    assert basis_change_A(4, 2) == carlitz_entry(4, 2)


def test_basis_change_B_examples():
    assert basis_change_B(2, 1) == P(0, 2, 2, 2)
    assert basis_change_B(2, 1) == typeB_entry(2, 1)


@pytest.mark.parametrize("n", range(1, 15))
def test_basis_change_entrywise(n):
    for k in range(1, n + 1):
        assert basis_change_A(n, k) == carlitz_entry(n, k)
    for k in range(0, n + 1):
        assert basis_change_B(n, k) == typeB_entry(n, k)


@pytest.mark.parametrize("n", range(1, 15))
def test_gamma_entries_nonnegative(n):
    for k in range(1, (n + 1) // 2 + 1):
        assert is_nonneg(gamma_a_entry(n, k))
    for k in range(0, n // 2 + 1):
        assert is_nonneg(gamma_b_entry(n, k))


# ---------------------------------------------------------------------------
# classical integer triangles
# ---------------------------------------------------------------------------

PUBLISHED_Q1_A = [[1], [1], [1, 2], [1, 8], [1, 22, 16], [1, 52, 136]]
# the published table prints 766 at (6,2); the recurrence gives 7664,
# confirmed by the row-sum identity below
PUBLISHED_Q1_B = [[1], [1, 4], [1, 20], [1, 72, 80], [1, 232, 976], [1, 716, 7664, 3904]]


def test_classical_triangles_match_published_block():
    assert classical_gamma_a(6) == PUBLISHED_Q1_A
    assert classical_gamma_b(6) == PUBLISHED_Q1_B


def test_erratum_row_sum_confirms_7664():
    row6 = classical_gamma_b(6)[5]
    assert sum(v * 2 ** (6 - 2 * k) for k, v in enumerate(row6)) == 2**6 * math.factorial(6)
    assert row6[2] == 7664


@pytest.mark.parametrize("n", range(1, 13))
def test_classical_equals_q1_specialization(n):
    assert classical_gamma_a(n)[n - 1] == [
        spec_q1(gamma_a_entry(n, k)) for k in range(1, (n + 1) // 2 + 1)
    ]
    assert classical_gamma_b(n)[n - 1] == [
        spec_q1(gamma_b_entry(n, k)) for k in range(0, n // 2 + 1)
    ]


@pytest.mark.parametrize("n", range(1, 13))
def test_row_sums_at_q1(n):
    fact, two_n = math.factorial(n), 2**n
    assert sum(spec_q1(carlitz_entry(n, k)) for k in range(1, n + 1)) == fact
    assert sum(spec_q1(typeB_entry(n, k)) for k in range(0, n + 1)) == two_n * fact
    assert (
        sum(spec_q1(gamma_a_entry(n, k)) * 2 ** (n + 1 - 2 * k) for k in range(1, (n + 1) // 2 + 1))
        == fact
    )
    assert (
        sum(spec_q1(gamma_b_entry(n, k)) * 2 ** (n - 2 * k) for k in range(0, n // 2 + 1))
        == two_n * fact
    )


# ---------------------------------------------------------------------------
# bracket identities from the recurrence/expansion equivalence
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(1, 13))
def test_bracket_identity_A(n):
    for k in range(1, n + 1):
        for s in range(1, k + 1):
            assert bracket_identity_A(n, k, s), (n, k, s)


@pytest.mark.parametrize("n", range(0, 13))
def test_bracket_identity_B(n):
    for k in range(0, n + 1):
        for s in range(0, k + 1):
            assert bracket_identity_B(n, k, s), (n, k, s)


# ---------------------------------------------------------------------------
# Triangle container
# ---------------------------------------------------------------------------


def test_triangle_container():
    tri = gamma_a_triangle(6)
    assert isinstance(tri, Triangle)
    assert tri.family == "a"
    assert tri.max_n == 6
    assert tri.entry(5, 3) == A_TABLE[(5, 3)]
    assert tri.entry(5, 4) == QPoly.zero()
    assert list(tri.krange(5)) == [1, 2, 3]
    with pytest.raises(IndexError):
        tri.row(7)


def test_triangle_families():
    assert carlitz_triangle(3).family == "A"
    assert typeB_triangle(3).first_n == 0
    assert gamma_b_triangle(3).first_n == 1
    assert list(typeB_triangle(4).krange(4)) == [0, 1, 2, 3, 4]


def test_builders_reject_bad_n():
    with pytest.raises(ValueError):
        carlitz_triangle(0)
    with pytest.raises(ValueError):
        gamma_a_triangle(-1)


def test_rows_build_without_recursion():
    # Row 48 of a cold cache needs every row below it; the engine builds them
    # bottom up, so a recursion limit far below 48 frames is no obstacle.
    code = (
        "import sys\n"
        "import qeuler\n"
        "from qeuler.eulerian import gamma_a_entry\n"
        "sys.setrecursionlimit(40)\n"
        "print(gamma_a_entry(48, 1))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "QPoly('1')\n"


# ---------------------------------------------------------------------------
# the row engine against a plain reference recurrence
# ---------------------------------------------------------------------------


def _reference_rows(N, first_n, krange, alpha, beta):
    # P[n,k] = alpha(n,k) P[n-1,k] + beta(n,k) P[n-1,k-1], with both factors
    # expanded into QPoly values and applied by the schoolbook product.
    rows = {first_n: {k: P(1) for k in krange(first_n)}}
    for n in range(first_n + 1, N + 1):
        prev = rows[n - 1]
        rows[n] = {
            k: alpha(n, k) * prev.get(k, QPoly()) + beta(n, k) * prev.get(k - 1, QPoly())
            for k in krange(n)
        }
    return rows


def _mono(e):
    return QPoly.monomial(e)


REFERENCE = {
    "A": (
        20,
        carlitz_entry,
        (1, lambda n: range(1, n + 1), lambda n, k: q_int(k),
         lambda n, k: _mono(k - 1) * q_int(n + 1 - k)),
    ),
    "a": (
        24,
        gamma_a_entry,
        (1, lambda n: range(1, (n + 1) // 2 + 1), lambda n, k: q_int(k),
         lambda n, k: (P(1) + _mono(k - 1)) * _mono(k - 1) * q_int(n + 2 - 2 * k)),
    ),
    "B": (
        16,
        typeB_entry,
        (0, lambda n: range(0, n + 1), lambda n, k: q_int(2 * k + 1),
         lambda n, k: _mono(2 * k - 1) * q_int(2 * n - 2 * k + 1) if k else QPoly()),
    ),
    "b": (
        20,
        gamma_b_entry,
        (0, lambda n: range(0, n // 2 + 1), lambda n, k: q_int(2 * k + 1),
         lambda n, k: (ONE_PLUS_Q * (P(1) + _mono(2 * k - 1)) * _mono(2 * k - 1)
                       * q_int(n + 1 - 2 * k, step=2)) if k else QPoly()),
    ),
}


@pytest.mark.parametrize("family", sorted(REFERENCE))
def test_rows_match_reference_recurrence(family):
    N, entry, spec = REFERENCE[family]
    rows = _reference_rows(N, *spec)
    public = range(1, N + 1) if family != "B" else range(0, N + 1)
    for n in public:
        for k, value in rows[n].items():
            assert entry(n, k) == value, (family, n, k)
