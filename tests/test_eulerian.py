import itertools
import math
import operator
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qeuler import eulerian
from qeuler.eulerian import (
    FAMILIES,
    basis_change_A,
    basis_change_B,
    bracket_identity_A,
    bracket_identity_B,
    carlitz_entry,
    carlitz_poly,
    carlitz_series_oracle,
    classical_gamma_a,
    classical_gamma_b,
    gamma_a_entry,
    gamma_b_entry,
    gamma_expand_A,
    gamma_expand_B,
    iter_q1_rows,
    iter_rows,
    q_int_ext,
    typeB_entry,
    typeB_poly,
    typeB_series_oracle,
)
from qeuler.qring import (
    QLaurent,
    QPoly,
    TQPoly,
    is_nonneg,
    poch_t,
    q_binom,
    q_int,
    spec_q1,
    subst_q_power,
)


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
    assert carlitz_series_oracle(n) == carlitz_poly(n)


@pytest.mark.parametrize("n", range(0, 11))
def test_typeB_series_oracle(n):
    assert typeB_series_oracle(n) == typeB_poly(n)


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


@pytest.mark.parametrize("n", range(0, 9))
def test_typeB_series_oracle_matches_dense_product(n):
    W = max(2 * n, n + 1)
    assert typeB_series_oracle(n) == dense_typeB_series_oracle(n, W)


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
    # one scaled column (1 - q^m)^n off by q^0: the product gains the
    # Pochhammer polynomial shifted to that column, which reaches the tail
    column = eulerian._scaled_column

    def perturbed(m_, n_):
        col = column(m_, n_)
        if m_ == m:
            col[0] += 1
        return col

    monkeypatch.setattr(eulerian, "_scaled_column", perturbed)
    with pytest.raises(ArithmeticError, match="series tail nonzero"):
        oracle(n)


@pytest.mark.parametrize("oracle, n", [(carlitz_series_oracle, 5), (typeB_series_oracle, 4)],
                         ids=lambda a: getattr(a, "__name__", str(a)))
def test_series_oracle_catches_a_column_not_divisible_by_the_scale(monkeypatch, oracle, n):
    # columns (1 - q^m)^(n-1) are the series of the row below scaled by one
    # (1 - q) too few: the tail still vanishes, as the Pochhammer product has
    # a factor to spare, but the kept columns are not divisible by (1 - q)^n
    column = eulerian._scaled_column
    monkeypatch.setattr(eulerian, "_scaled_column", lambda m_, n_: column(m_, n_ - 1))
    with pytest.raises(ArithmeticError, match=rf"not divisible by \(1-q\)\^{n}"):
        oracle(n)


def test_series_oracles_read_no_row_and_no_family(monkeypatch):
    want = {n: (carlitz_series_oracle(n), typeB_series_oracle(n)) for n in range(1, 9)}

    class Unreadable(dict):
        def __getitem__(self, key):
            raise AssertionError(f"FAMILIES[{key!r}] read")

    def unbuildable(n):
        raise AssertionError("row builder called")

    monkeypatch.setattr(eulerian, "FAMILIES", Unreadable())
    for name in ("_carlitz_row", "_gamma_a_row", "_typeB_row", "_gamma_b_row"):
        monkeypatch.setattr(eulerian, name, unbuildable)
    with pytest.raises(AssertionError):  # the patches do bite
        carlitz_entry(3, 1)
    for n, (a, b) in want.items():
        assert (carlitz_series_oracle(n), typeB_series_oracle(n)) == (a, b)
    assert typeB_series_oracle(0) == TQPoly([1])


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


def _dense_gamma_sum(gammas, n, s):
    """``sum_j g_j t^j (-t q^(s j+1); q^s)_(n+s-2-2j)``, each Pochhammer
    product expanded densely by ``poch_t``."""
    acc = TQPoly.zero()
    for j, g in enumerate(gammas):
        acc = acc + (g * poch_t(s * j + 1, n + s - 2 - 2 * j, sign=-1, step=s)).t_shift(j)
    return acc


@pytest.mark.parametrize("n", range(1, 13))
def test_basis_change_is_the_q_binomial_theorem(n):
    # every coefficient of the dense product sum is the basis change's
    # q-binomial sum, with the same t-offset as its own column range
    cases = (
        (gamma_expand_A, basis_change_A, [gamma_a_entry(n, k) for k in range(1, (n + 3) // 2)],
         1, range(1, n + 1), 1),
        (gamma_expand_B, basis_change_B, [gamma_b_entry(n, k) for k in range(0, n // 2 + 1)],
         2, range(0, n + 1), 0),
    )
    for expand, change, gammas, s, ks, first in cases:
        dense = _dense_gamma_sum(gammas, n, s)
        assert expand(n) == dense
        assert dense.t_degree() == ks[-1] - first
        for k in ks:
            assert change(n, k) == dense.coeff(k - first).to_qpoly(), (n, k)


def _dense_basis_change(row, n, i, s):
    """The ``t^i`` coefficient of the gamma expansion, each Gaussian binomial
    expanded densely and multiplied into ``g_j`` by the schoolbook product."""
    acc = QPoly.zero()
    for j, g in enumerate(row(n)[: i + 1]):
        d = i - j
        binom = subst_q_power(q_binom(n + s - 2 - 2 * j, d), s)
        acc = acc + (binom * g).shift(s * (d * (d - 1) // 2) + (s * j + 1) * d)
    return acc


@pytest.mark.parametrize("n", range(1, 16))
def test_basis_change_matches_the_dense_reference(n):
    # i runs over every k, so d = i - j passes N = n + s - 2 - 2j for the
    # later gamma entries, where the Gaussian binomial is 0
    for k in range(1, n + 1):
        assert basis_change_A(n, k) == _dense_basis_change(eulerian._gamma_a_row, n, k - 1, 1)
    for k in range(0, n + 1):
        assert basis_change_B(n, k) == _dense_basis_change(eulerian._gamma_b_row, n, k, 2)


def test_basis_change_makes_no_dense_product(monkeypatch):
    # every Gaussian binomial is applied as ratio factors: no product of two
    # multi-term operands (the gamma expansion still makes them)
    dense = []
    mul = QPoly.__mul__

    def counted(self, other):
        if isinstance(other, QPoly) and min(len(self.coeffs) - self.coeffs.count(0),
                                            len(other.coeffs) - other.coeffs.count(0)) > 1:
            dense.append((self, other))
        return mul(self, other)

    monkeypatch.setattr(QPoly, "__mul__", counted)
    monkeypatch.setattr(QPoly, "__rmul__", counted)
    for n in range(1, 13):
        for k in range(1, n + 1):
            basis_change_A(n, k)
        for k in range(0, n + 1):
            basis_change_B(n, k)
    assert dense == []
    gamma_expand_A(6)
    assert dense  # the counter does see a dense product


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


def _ref_classical_gamma_a(N):
    # the per-family body before the two oracles shared one
    rows = [[1]]
    for n in range(2, N + 1):
        prev = rows[-1]

        def at(k):
            return prev[k - 1] if 1 <= k <= n // 2 else 0

        rows.append(
            [k * at(k) + 2 * (n + 2 - 2 * k) * at(k - 1) for k in range(1, (n + 1) // 2 + 1)]
        )
    return rows[:N]


def _ref_classical_gamma_b(N):
    rows = [[1]]
    for n in range(2, N + 1):
        prev = rows[-1]

        def at(k):
            return prev[k] if 0 <= k <= (n - 1) // 2 else 0

        rows.append(
            [(2 * k + 1) * at(k) + 4 * (n + 1 - 2 * k) * at(k - 1) for k in range(0, n // 2 + 1)]
        )
    return rows[:N]


@pytest.mark.parametrize("N", range(1, 15))
def test_classical_matches_the_per_family_reference(N):
    assert classical_gamma_a(N) == _ref_classical_gamma_a(N)
    assert classical_gamma_b(N) == _ref_classical_gamma_b(N)


def test_classical_rejects_empty_range():
    for oracle in (classical_gamma_a, classical_gamma_b):
        with pytest.raises(ValueError, match="need N >= 1, got 0"):
            oracle(0)


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


# The dense bodies the cleared-denominator checks replaced: the reference.
def _dense_bracket_A(n, k, s):
    lhs = q_int_ext(n + 1 - 2 * s) * q_int_ext(s) + q_int_ext(n - k - s + 1) * (
        QLaurent.one() + QLaurent.q_power(s)
    ) * q_int_ext(k - s)
    rhs = q_int_ext(k) * q_int_ext(n - k - s + 1) + q_int_ext(n + 1 - k) * q_int_ext(k - s)
    return lhs == rhs


def _dense_bracket_B(n, k, s):
    gamma = QLaurent(QPoly([1, 1])) * (QLaurent.one() + QLaurent.q_power(2 * s + 1))
    lhs = q_int_ext(n - 2 * s, step=2) * q_int_ext(2 * s + 1) + q_int_ext(
        n - k - s, step=2
    ) * gamma * q_int_ext(k - s, step=2)
    rhs = q_int_ext(2 * k + 1) * q_int_ext(n - k - s, step=2) + q_int_ext(
        2 * n + 1 - 2 * k
    ) * q_int_ext(k - s, step=2)
    return lhs == rhs


@pytest.mark.parametrize("n", range(0, 15))
def test_bracket_identities_match_dense_reference(n):
    # s = 0 and the triples where n-k-s or n-2s is negative are Laurent cases
    for k in range(0, n + 1):
        for s in range(0, k + 1):
            assert bracket_identity_A(n, k, s) == _dense_bracket_A(n, k, s), (n, k, s)
            assert bracket_identity_B(n, k, s) == _dense_bracket_B(n, k, s), (n, k, s)


@pytest.mark.parametrize(
    "identity, triple",
    [
        (bracket_identity_A, (9, 7, 4)),  # n-k-s+1 = -1
        (bracket_identity_A, (12, 5, 2)),
        (bracket_identity_B, (7, 6, 2)),  # n-k-s = -1
        (bracket_identity_B, (11, 5, 1)),
    ],
)
def test_bracket_check_fails_when_any_exponent_changes(monkeypatch, identity, triple):
    # every binomial of these triples is nonzero, so no product vanishes
    sides = []
    original = eulerian._cancels
    monkeypatch.setattr(eulerian, "_cancels", lambda lhs, rhs: sides.append((lhs, rhs)) or True)
    identity(*triple)
    ((lhs, rhs),) = sides
    assert original(lhs, rhs)
    for side in (0, 1):
        for i, factors in enumerate((lhs, rhs)[side]):
            for j, (sign, e) in enumerate(factors):
                assert e != 0
                for changed in (e - 1, e + 1):
                    products = [list(lhs), list(rhs)]
                    products[side][i] = factors[:j] + ((sign, changed),) + factors[j + 1:]
                    assert not original(*products), (side, i, j, changed)


# ---------------------------------------------------------------------------
# the cached row builders
# ---------------------------------------------------------------------------


def test_builders_reject_bad_n():
    # the rows start at each family's seed: A and a at n=1, B and b at n=0
    for build, n, family, seed in ((carlitz_poly, 0, "A", 1), (typeB_poly, -1, "B", 0),
                                   (eulerian._gamma_a_row, 0, "a", 1),
                                   (eulerian._gamma_b_row, -1, "b", 0)):
        with pytest.raises(ValueError, match=f"family {family} rows start at n={seed}, got {n}"):
            build(n)


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


def test_cold_rows_make_no_product(monkeypatch):
    # every entry is one running sum over its two operands: building the rows
    # calls no product operator
    calls = Counter()
    for name in ("__mul__", "__rmul__"):
        def counted(self, *args, _name=name, _original=getattr(QPoly, name)):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(QPoly, name, counted)
    for row in (eulerian._carlitz_row, eulerian._gamma_a_row, eulerian._typeB_row,
                eulerian._gamma_b_row):
        row.cache_clear()
        row(30)
    assert calls == Counter()
    # the counters do see a call
    assert QPoly([1, 1]) * QPoly([1, 1]) == QPoly([1, 2, 1])
    assert calls == Counter({"__mul__": 1})


ROW_CACHES = {"A": eulerian._carlitz_row, "a": eulerian._gamma_a_row,
              "B": eulerian._typeB_row, "b": eulerian._gamma_b_row}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_iter_rows_are_the_triangle_rows(family):
    # b seeds at n=0 and is public from n=1: its row 0 is built on, not yielded
    first = FAMILIES[family].first_n
    row = ROW_CACHES[family]
    for N in range(first, 16):
        assert list(iter_rows(family, N)) == [(n, row(n)) for n in range(first, N + 1)]


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_iter_rows_rejects_n_below_the_first_row(family):
    N = FAMILIES[family].first_n - 1
    with pytest.raises(ValueError, match=f"family {family} needs N >= {N + 1}, got {N}"):
        list(iter_rows(family, N))


def test_iter_rows_caches_nothing():
    for row in ROW_CACHES.values():
        row.cache_clear()
    for family in FAMILIES:
        assert sum(1 for _ in iter_rows(family, 20)) == 21 - FAMILIES[family].first_n
    assert [row.cache_info().currsize for row in ROW_CACHES.values()] == [0, 0, 0, 0]


# ---------------------------------------------------------------------------
# the dependency cone of the central entries
# ---------------------------------------------------------------------------

# the central entry n of each gamma family, as (row, column)
CENTRAL = {"a": lambda n: (2 * n + 1, n + 1), "b": lambda n: (2 * n, n)}


@pytest.fixture
def cold_central(monkeypatch):
    """An empty central-entry cache for one test, the old one restored after."""
    for family in CENTRAL:
        monkeypatch.setitem(eulerian._CENTRAL, family, ())


@pytest.mark.parametrize("lag", [0, 1, 2, 5, 9])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_cone_rows_are_the_rows_from_their_lowest_column(family, lag):
    krange = FAMILIES[family].krange
    for (n, cone), (m, row) in zip(iter_rows(family, 18, lag), iter_rows(family, 18), strict=True):
        assert n == m
        assert cone == row[max(0, n - lag - krange(n).start):]


@pytest.mark.parametrize("family", sorted(CENTRAL))
def test_cone_central_entries_are_the_triangle_entries(cold_central, family):
    entry = gamma_a_entry if family == "a" else gamma_b_entry
    want = [entry(*CENTRAL[family](n)) for n in range(21)]
    # each n past the cache streams the cone of lag n
    assert [eulerian._central_entry(family, n) for n in range(21)] == want
    # and one stream of the cone of lag 20 gives every entry below it
    eulerian._CENTRAL[family] = ()
    eulerian._central_entry(family, 20)
    assert list(eulerian._CENTRAL[family]) == want


@pytest.mark.parametrize("family", sorted(CENTRAL))
def test_cone_builds_no_entry_below_it(monkeypatch, cold_central, family):
    # every entry built goes through alpha once: record which they are
    fam, built = FAMILIES[family], []

    def alpha(n, k):
        built.append((n, k))
        return fam.alpha(n, k)

    monkeypatch.setitem(FAMILIES, family, fam._replace(alpha=alpha))
    N = 12
    eulerian._central_entry(family, N)
    top = CENTRAL[family](N)[0]
    cone = [(m, k) for m in range(fam.seed_n + 1, top + 1) for k in fam.krange(m) if k >= m - N]
    assert built == cone
    # a[25,13] and b[24,12] each take 90 of the 168 entries of their rows
    triangle = sum(len(fam.krange(m)) for m in range(fam.seed_n + 1, top + 1))
    assert (len(cone), triangle) == (90, 168)
    # a cache hit builds nothing
    eulerian._central_entry(family, N - 3)
    assert len(built) == len(cone)


def test_central_entry_rejects_negative_n():
    with pytest.raises(ValueError, match="need n >= 0, got -1"):
        eulerian._central_entry("a", -1)


# ---------------------------------------------------------------------------
# the row step over each entry's support against the dense row step
# ---------------------------------------------------------------------------


def _dense_recur(x, u, y, beta):
    # the dense row step, the reference: every pass also runs over the
    # operands' leading zeros
    e, fs, v = beta
    for f in fs:
        pad = (0,) * f
        y = tuple([*map(operator.add, y + pad, pad + y)])
    lx, ly = len(x), len(y)
    out = [0] * max(u + lx, e + v + ly if y else 0)
    out[:lx] = x
    out[u:u + lx] = map(operator.sub, out[u:u + lx], x)
    if y:
        out[e:e + ly] = map(operator.add, out[e:e + ly], y)
        out[e + v:e + v + ly] = map(operator.sub, out[e + v:e + v + ly], y)
    out.pop()
    return QPoly(itertools.accumulate(out))


@st.composite
def operands(draw):
    """The coefficients of a ``QPoly``: empty, or ending in a nonzero, with
    any number of leading zeros and coefficients of either sign."""
    body = draw(st.lists(st.integers(-40, 40), max_size=8))
    if not body and draw(st.booleans()):
        return ()
    zeros = draw(st.integers(0, 12))
    return (0,) * zeros + tuple(body) + (draw(st.integers(-40, 40).filter(bool)),)


@st.composite
def recur_args(draw):
    x, y = draw(operands()), draw(operands())
    # e is -1 only where there is no y, as for B and b at k = 0
    e = draw(st.integers(0 if y else -1, 10))
    fs = tuple(draw(st.lists(st.integers(0, 6), max_size=2)))
    # every family's u and v are at least 1
    return x, draw(st.integers(1, 8)), y, (e, fs, draw(st.integers(1, 8)))


@given(recur_args())
# the low ends cancel: x + q^2 y has no q^2 term
@example(((0, 0, 3, 1), 2, (-3, 5), (2, (1,), 1)))
@example(((0, 0, 3), 1, (-3,), (2, (), 4)))
@example(((0, 4), 1, (), (-1, (), 3)))
@example(((), 1, (0, 0, -2), (1, (0, 3), 2)))
@example(((), 3, (), (-1, (), 1)))
def test_recur_matches_the_dense_step(args):
    x, u, y, beta = args
    assert eulerian._recur(x, u, y, beta) == _dense_recur(x, u, y, beta)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_rows_match_the_dense_step_to_30(monkeypatch, family):
    with monkeypatch.context() as m:
        m.setattr(eulerian, "_recur", _dense_recur)
        want = list(iter_rows(family, 30))
    row = ROW_CACHES[family]
    row.cache_clear()
    assert list(iter_rows(family, 30)) == want
    assert [(n, row(n)) for n, _ in want] == want


# ---------------------------------------------------------------------------
# the rows at q = 1, computed in Z
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("below", [1, 2, 50])
def test_q1_rows_reject_n_below_the_first_row_as_iter_rows_does(family, below):
    N = FAMILIES[family].first_n - below
    with pytest.raises(ValueError) as q_rows:
        list(iter_rows(family, N))
    with pytest.raises(ValueError) as q1_rows:
        list(iter_q1_rows(family, N))
    assert str(q1_rows.value) == str(q_rows.value)


def test_q1_rows_are_the_classical_gamma_triangles():
    # the two classical oracles keep their own coefficients, and agree
    assert [row for _, row in iter_q1_rows("a", 30)] == classical_gamma_a(30)
    assert [row for _, row in iter_q1_rows("b", 30)] == classical_gamma_b(30)
