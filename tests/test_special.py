import contextlib
import math
import os
from fractions import Fraction
from itertools import count, islice

import pytest

from qeuler import cli, eulerian, special
from qeuler.cli import run_suite
from qeuler.eulerian import carlitz_poly, gamma_a_entry, gamma_b_entry, typeB_poly
from qeuler.qring import (
    NOT_DIVISIBLE,
    QLaurent,
    QPoly,
    TQPoly,
    exact_div,
    is_nonneg,
    poch_num,
    q_int,
    spec_q1,
    subst_t_signed_power,
)
from qeuler.special import (
    a_star,
    b_central,
    b_odd_vanish,
    conjecture_scan_gstar,
    d_poly,
    e_q_secant,
    e_star,
    even_quotient,
    f_eval,
    f_star_eval,
    g_star,
    q_tangent,
    secant_number,
    verify_d_identity,
    verify_gstar_identity,
)
from qeuler.unimodality import reciprocity_A, reciprocity_B


def P(*coeffs):
    return QPoly(coeffs)


# ---------------------------------------------------------------------------
# q-tangent numbers and the central rescaling
# ---------------------------------------------------------------------------


def test_q_tangent_values():
    assert q_tangent(0) == P(1)
    assert q_tangent(1) == P(1, 1)
    assert q_tangent(2) == P(2, 4, 4, 4, 2)


def test_q_tangent_at_one_matches_central_table_values():
    assert spec_q1(q_tangent(1)) == 2
    assert spec_q1(q_tangent(2)) == 16


@pytest.mark.parametrize("n", range(0, 7))
def test_q_tangent_equals_a_star_central(n):
    assert q_tangent(n) == a_star(2 * n + 1, n + 1)


def test_a_star_values():
    assert a_star(1, 1) == P(1)
    assert a_star(3, 2) == P(1, 1)


def test_a_star_wrong_exponent_is_not_polynomial():
    # the k(k+1)/2 rescaling variant must fail: q^-3 (q + q^2) has a
    # negative exponent, so a silent switch of conventions would be caught
    k = 2
    wrong = QLaurent.q_power(-(k * (k + 1) // 2)) * gamma_a_entry(3, 2)
    assert wrong.offset < 0
    with pytest.raises(ValueError):
        wrong.base.shift(wrong.offset)


def test_a_star_rescaled_recurrence():
    # a*[n,k] = [k] a*[n-1,k] + (1 + q^(k-1)) [n+2-2k] a*[n-1,k-1]
    from qeuler.qring import q_int

    for n in range(2, 11):
        for k in range(1, (n + 1) // 2 + 1):
            def prev(kk):
                if 1 <= kk <= n // 2:
                    return a_star(n - 1, kk)
                return QPoly.zero()

            expected = q_int(k) * prev(k) + (
                (QPoly.one() + QPoly.monomial(k - 1)) * q_int(n + 2 - 2 * k) * prev(k - 1)
            )
            assert a_star(n, k) == expected, (n, k)


def test_a_star_range_validation():
    with pytest.raises(ValueError):
        a_star(3, 3)


# ---------------------------------------------------------------------------
# T_{2n+1} and E*_{2n} are read off one central gamma entry each; their
# defining substitutions are the oracles that check them
# ---------------------------------------------------------------------------


def _signed_substitution(p, n, E, e):
    """``(-1)^n q^E p(-q^(-e), q)``, as a polynomial."""
    value = subst_t_signed_power(p, -e, E)
    return -value if n % 2 else value


@pytest.mark.parametrize("n", range(21))
def test_central_entries_are_the_defining_substitutions(n):
    assert q_tangent(n) == _signed_substitution(carlitz_poly(2 * n + 1), n, n * (n - 1) // 2, n)
    assert e_star(n) == _signed_substitution(typeB_poly(2 * n), n, n * (n + 1), 2 * n + 1)


def test_central_families_build_no_eulerian_row(monkeypatch):
    rows = [getattr(eulerian, name) for name in
            ("_carlitz_row", "_gamma_a_row", "_typeB_row", "_gamma_b_row")]
    for row in rows:
        row.cache_clear()
    for family in eulerian._CENTRAL:
        monkeypatch.setitem(eulerian._CENTRAL, family, ())
    q_tangent(6)
    d_poly(6)
    e_star(6)
    g_star(6)
    assert conjecture_scan_gstar(6).verdict == "consistent"
    # the central entries come from their cones, never from a cached row
    assert [row.cache_info().currsize for row in rows] == [0, 0, 0, 0]
    assert {family: len(entries) for family, entries in eulerian._CENTRAL.items()} == {
        "a": 7, "b": 7, "abar": 7, "btilde": 7}


def _perturbed_central(monkeypatch, family, n, term=QPoly.monomial(9)):
    """Add ``term`` to the cached central entry ``n`` of ``family``, in a
    cache filled to 6, past every ``n`` the suites below read."""
    eulerian._central_entry(family, 6)
    entries = list(eulerian._CENTRAL[family])
    entries[n] = entries[n] + term
    monkeypatch.setitem(eulerian._CENTRAL, family, tuple(entries))


def test_a_perturbed_central_entry_fails_its_oracle_items(monkeypatch):
    _perturbed_central(monkeypatch, "a", 2)  # a[5,3]
    _perturbed_central(monkeypatch, "b", 2)  # b[4,2]
    tangent = [i.name for i in run_suite("tangent", 3).items if i.status == "fail"]
    assert [name for name in tangent if "a*" in name] == ["T_5 == a*[5,3]"]
    secant = [i.name for i in run_suite("secant", 3).items if i.status == "fail"]
    assert [name for name in secant if "b[" in name] == ["b_central(2) == b[4,2]",
                                                        "E*_4 q^4 == b[4,2]"]


def _failures(suite):
    return [(i.name, i.detail) for i in run_suite(suite, 3).items if i.status == "fail"]


def _with_top_entry_plus_one(monkeypatch, family, m):
    """Stream row ``m`` of ``family`` to ``verify`` with 1 added to its last
    entry, so its substitution keeps a negative power of q."""
    original = cli.iter_rows

    def rows(fam, N, *args):
        for k, row in original(fam, N, *args):
            yield k, (row[:-1] + (row[-1] + 1,) if (fam, k) == (family, m) else row)

    monkeypatch.setattr(cli, "iter_rows", rows)


def _not_poly(what, offset):
    detail = f"{what} is not a polynomial: negative offset {offset}: not a polynomial"
    return "ArithmeticError at n=2", detail


def test_a_negative_power_left_by_a_substitution_fails_with_its_offset(monkeypatch):
    # each detail names the lowest power of q left negative
    with monkeypatch.context() as m:
        _with_top_entry_plus_one(m, "A", 5)  # A_5's t^4 term leaves q^(1-8)
        assert _failures("tangent") == [_not_poly("T_5", -7)]
    with monkeypatch.context() as m:
        _with_top_entry_plus_one(m, "B", 4)  # B_4's t^4 term leaves q^(10-20) and q^(4-16)
        assert _failures("secant") == [_not_poly("b[4,2]", -10)] * 2 + [_not_poly("E_4(q)", -12)]


def test_a_negative_power_left_by_a_rescaling_fails_with_its_offset(monkeypatch):
    with monkeypatch.context() as m:
        _perturbed_central(m, "a", 2, 1)  # a[5,3] + 1 over q^3
        assert _failures("tangent") == [_not_poly("a*[5,3]", -3)] * 4
    with monkeypatch.context() as m:
        _perturbed_central(m, "b", 2, 1)  # b[4,2] + 1 over q^4
        assert _failures("secant") == [
            ("b_central(2) == b[4,2]", "first difference at q^0: expected 1, got 0"),
            *[_not_poly("E*_4", -4)] * 3]


def test_no_command_builds_a_negative_power_of_q(monkeypatch):
    # the tangent and secant families are polynomials, and every step that
    # gives them stays in Z[q]: no QLaurent with a negative offset is built
    offsets = []
    init = QLaurent.__init__

    def recorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        offsets.append(self.offset)

    monkeypatch.setattr(QLaurent, "__init__", recorded)
    commands = [["verify", "tangent", "--max-n", "6"], ["verify", "secant", "--max-n", "6"],
                *(["poly", name, "--n", "6"] for name in ("T", "dn", "Estar", "Gstar", "Eq")),
                ["conjecture", "--max-n", "6"], ["verify", "all"]]
    for args in commands:
        with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
            assert cli.main(args) == 0, args
    assert offsets and min(offsets) >= 0


# ---------------------------------------------------------------------------
# d_n and its rational identity
# ---------------------------------------------------------------------------


def test_d_poly_values():
    assert d_poly(1) == P(1)
    assert d_poly(2) == P(2, 2)


@pytest.mark.parametrize("n", range(1, 9))
def test_d_poly_nonneg(n):
    assert is_nonneg(d_poly(n))


@pytest.mark.parametrize("n", range(1, 6))
def test_d_identity(n):
    assert verify_d_identity(n)


def test_identities_hold_past_the_cli_caps():
    assert all(verify_d_identity(n) for n in range(1, 21))
    assert all(verify_gstar_identity(n) for n in range(0, 16))


def test_cleared_sums_read_no_quotient_and_no_row(monkeypatch):
    # the right sides need neither d_poly and g_star nor any triangle row, so
    # they stay independent of what they check
    want_d = {n: _d_identity_lhs(n) for n in range(1, 8)}
    want_g = {n: _gstar_identity_lhs(n) for n in range(0, 7)}

    def boom(*args):
        raise AssertionError("the cleared sum must not call this")

    for row in ("_carlitz_row", "_gamma_a_row", "_typeB_row", "_gamma_b_row", "_next_row"):
        monkeypatch.setattr(eulerian, row, boom)
    for family in eulerian._CENTRAL:
        monkeypatch.setitem(eulerian._CENTRAL, family, ())
    monkeypatch.setattr(special, "FAMILIES", {})
    for n, want in want_d.items():
        assert (-1) ** (n + 1) * special._cleared_f_sum(2 * n + 1, 0, 1, -n) == want
    for n, want in want_g.items():
        assert (-1) ** n * special._cleared_f_sum(2 * n, 1, 2, -2 * n - 1) == want
    # the patches bite: d_poly and g_star each stream a gamma cone
    monkeypatch.setattr(special, "FAMILIES", eulerian.FAMILIES)
    for fn in (d_poly, g_star):
        with pytest.raises(AssertionError):
            fn(3)


# A reference for the two identities: the closed rational forms evaluated at
# max(deg, bound) + 1 exact points, where the bound is the true degree
# (n(n-1)/2 for d_n, n(n-1) for G*_{2n}), so that many agreements prove each.


def admissible_points():
    """``2, 3/2, 4/3, ...``: all > 1, so none is 0 or a pole at +-1."""
    for k in count(1):
        yield Fraction(k + 1, k)


def _agrees_at_points(p, rhs, bound):
    return all(p(q0) == rhs(q0) for q0 in islice(admissible_points(), max(p.degree(), bound) + 1))


def _sampled_d_identity(n):
    return _agrees_at_points(
        special.d_poly(n),
        lambda q0: (-1) ** (n + 1) * math.prod(1 + q0**j for j in range(n + 2))
        / (1 - q0) ** (2 * n + 1) * f_eval(n, q0),
        n * (n - 1) // 2)


def _sampled_gstar_identity(n):
    return _agrees_at_points(
        special.g_star(n),
        lambda q0: (-1) ** n * q0 ** (-n - 1)
        * math.prod(1 + q0 ** (2 * j + 1) for j in range(n + 1))
        / ((1 + q0) ** n * (1 - q0) ** (2 * n)) * f_star_eval(n, q0),
        n * (n - 1))


def _d_identity_lhs(n):
    return d_poly(n) * P(1, -1) ** (2 * n + 1)


def _gstar_identity_lhs(n):
    return (g_star(n) * P(1, 1) ** n * P(1, -1) ** (2 * n)).shift(n + 1)


@pytest.mark.parametrize("n", range(1, 11))
def test_identities_match_the_sampled_reference(n):
    assert _sampled_d_identity(n) and verify_d_identity(n)
    assert _sampled_gstar_identity(n) and verify_gstar_identity(n)
    assert special._d_identity(n) == (_d_identity_lhs(n),) * 2
    assert special._gstar_identity(n) == (_gstar_identity_lhs(n),) * 2


def test_admissible_points_start_at_two_and_fall_towards_one():
    assert list(islice(admissible_points(), 5)) == [
        Fraction(2), Fraction(3, 2), Fraction(4, 3), Fraction(5, 4), Fraction(6, 5)
    ]
    assert all(q0 > 1 for q0 in islice(admissible_points(), 200))


def test_f_eval_value():
    # hand-checked: f_1(2) = 2/3 - 3/2 + 1 - 1/5 = -1/30
    assert f_eval(1, 2) == Fraction(-1, 30)


def test_f_eval_pole_rejected():
    for q0 in (-1, 0, 1, Fraction(-1), Fraction(0), Fraction(1)):
        with pytest.raises(ValueError, match="excluded"):
            f_eval(2, q0)
        with pytest.raises(ValueError, match="excluded"):
            f_eval(0, q0)


def test_rational_identities_reject_a_perturbed_polynomial(monkeypatch):
    d, g = special.d_poly, special.g_star
    monkeypatch.setattr(special, "d_poly", lambda n: d(n) + QPoly.monomial(1))
    monkeypatch.setattr(special, "g_star", lambda n: g(n) + QPoly.monomial(1))
    assert not verify_d_identity(3)
    assert not verify_gstar_identity(3)
    assert not _sampled_d_identity(3)
    assert not _sampled_gstar_identity(3)
    monkeypatch.setattr(special, "d_poly", lambda n: d(n) + (QPoly.monomial(1) if n == 5 else 0))
    monkeypatch.setattr(special, "g_star", lambda n: g(n) + (QPoly.monomial(2) if n == 4 else 0))
    assert [verify_d_identity(n) for n in range(1, 6)] == [True] * 4 + [False]
    assert [verify_gstar_identity(n) for n in range(0, 5)] == [True] * 4 + [False]


# the sampled reference takes its point counts from these degree bounds, not
# from the polynomial under test
@pytest.mark.parametrize("n", range(1, 10))
def test_identity_degree_bounds_are_the_degrees(n):
    assert d_poly(n).degree() == n * (n - 1) // 2
    assert g_star(n).degree() == n * (n - 1)


def _vanishing_at_first_points(k):
    # prod_{i<k} ((i+1) q - (i+2)): zero at the first k admissible points
    p = P(1)
    for i in range(k):
        p = p * P(-(i + 2), i + 1)
    return p


@pytest.mark.parametrize("n", [2, 3, 4])
def test_rational_identities_reject_zero_and_low_degree_polynomials(monkeypatch, n):
    d, g = d_poly(n), g_star(n)
    for wrong_d, wrong_g in [(P(), P()), (P(*d.coeffs[:-1]), P(*g.coeffs[:-1]))]:
        monkeypatch.setattr(special, "d_poly", lambda n: wrong_d)
        monkeypatch.setattr(special, "g_star", lambda n: wrong_g)
        assert not verify_d_identity(n)
        assert not verify_gstar_identity(n)


@pytest.mark.parametrize("n", [2, 3])
def test_rational_identities_check_past_the_bound_for_a_higher_degree(monkeypatch, n):
    # agrees with the true polynomial at the first bound + 1 sample points,
    # which the cleared comparison never uses
    d, g = d_poly(n), g_star(n)
    monkeypatch.setattr(
        special, "d_poly", lambda n: d + _vanishing_at_first_points(n * (n - 1) // 2 + 1))
    monkeypatch.setattr(
        special, "g_star", lambda n: g + _vanishing_at_first_points(n * (n - 1) + 1))
    assert not verify_d_identity(n)
    assert not verify_gstar_identity(n)


@pytest.mark.parametrize("q0", [2, Fraction(3, 2), Fraction(1, 3), Fraction(-2), Fraction(-5, 7)])
@pytest.mark.parametrize("n", range(0, 5))
def test_f_sums_match_their_literal_sums(n, q0):
    q = Fraction(q0)
    f = sum(Fraction(math.comb(2 * n + 1, k) * (-1) ** k) / (1 + q ** (k - n))
            for k in range(2 * n + 2))
    f_star = sum(math.comb(2 * n, k) * (-q) ** k / (1 + q ** (2 * k - 2 * n - 1))
                 for k in range(2 * n + 1))
    assert f_eval(n, q0) == f
    assert f_star_eval(n, q0) == f_star
    assert type(f_eval(n, q0)) is type(f_star_eval(n, q0)) is Fraction


# ---------------------------------------------------------------------------
# even quotient
# ---------------------------------------------------------------------------


def test_even_quotient_trivial():
    assert even_quotient(1) == TQPoly.one()


@pytest.mark.parametrize("n", range(1, 7))
def test_even_quotient_reconstructs_and_is_nonneg(n):
    quot = even_quotient(n)
    assert len(quot.terms) - 1 == 2 * n - 2
    divisor = TQPoly([QLaurent.one(), QLaurent.q_power(n)])
    assert quot * divisor == carlitz_poly(2 * n)
    for c in quot.terms:
        assert c.is_zero() or (c.offset >= 0 and is_nonneg(c))


# ---------------------------------------------------------------------------
# type-B specializations: vanishing, central values, secants
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", range(0, 6))
def test_b_odd_vanish(n):
    assert b_odd_vanish(n)
    # a row that does not vanish is a plain False, never a negative power of
    # q: at every t-degree of B_{2n+1} and two above it, and with a q^-1 term
    poly = typeB_poly(2 * n + 1)
    assert not any(b_odd_vanish(n, poly + TQPoly([0] * d + [1])) for d in range(2 * n + 4))
    assert not b_odd_vanish(n, poly + TQPoly([0, QLaurent.q_power(-1)]))
    # a vanishing value stays True whatever its t-degree or offsets
    assert b_odd_vanish(n, poly * TQPoly([QLaurent.q_power(-1), 0, 0, 1]))


@pytest.mark.parametrize("n", range(0, 6))
def test_b_central_matches_triangle(n):
    assert b_central(n) == gamma_b_entry(2 * n, n)


def test_b_central_value():
    assert b_central(1) == P(0, 1, 2, 1)


def test_e_star_values():
    assert e_star(0) == P(1)
    assert e_star(1) == P(1, 2, 1)
    assert spec_q1(e_star(2)) == 80  # 4^2 * E_4


@pytest.mark.parametrize("n", range(0, 7))
def test_e_star_vs_central_gamma(n):
    lhs = QLaurent(e_star(n)) * QLaurent.q_power(n * n)
    assert lhs == QLaurent(gamma_b_entry(2 * n, n))


@pytest.mark.parametrize("n", range(0, 7))
def test_e_star_at_one_vs_typeB_at_minus_one(n):
    # B_{2n}(t=-1, q=1) == (-1)^n E*_{2n}(1)
    from qeuler.eulerian import typeB_entry

    b_at = sum(spec_q1(typeB_entry(2 * n, k)) * (-1) ** k for k in range(2 * n + 1))
    assert b_at == (-1) ** n * spec_q1(e_star(n))


def test_g_star_values():
    assert g_star(0) == P(1)
    assert g_star(1) == P(1)
    assert spec_q1(g_star(2)) == 5


@pytest.mark.parametrize("n", range(0, 7))
def test_g_star_at_one_is_secant(n):
    assert spec_q1(g_star(n)) == secant_number(n)


@pytest.mark.parametrize("n", range(0, 5))
def test_gstar_identity(n):
    assert verify_gstar_identity(n)


def test_f_star_pole_rejected():
    for q0 in (-1, 0, 1, Fraction(-1), Fraction(0), Fraction(1)):
        with pytest.raises(ValueError, match="excluded"):
            f_star_eval(1, q0)
        with pytest.raises(ValueError, match="excluded"):
            f_star_eval(0, q0)


def test_e_q_secant_values():
    assert e_q_secant(0) == P(1)
    assert e_q_secant(1) == P(2, 0, 2)
    assert spec_q1(e_q_secant(1)) == 4  # 4^1 * E_2


def test_secant_numbers():
    # OEIS A000364
    assert [secant_number(n) for n in range(13)] == [
        1, 1, 5, 61, 1385, 50521, 2702765, 199360981, 19391512145, 2404879675441,
        370371188237525, 69348874393137901, 15514534163557086905,
    ]


# ---------------------------------------------------------------------------
# conjecture scanner
# ---------------------------------------------------------------------------


def test_conjecture_scan_consistent():
    report = conjecture_scan_gstar(6)
    assert report.verdict == "consistent"
    assert [r.value_at_one for r in report.rows[:5]] == [1, 1, 5, 61, 1385]
    for r in report.rows:
        assert r.value_at_one == r.secant
        assert r.min_coeff >= 0
        # palindromicity is recorded as an observation only, never asserted


def test_conjecture_scan_trivial():
    report = conjecture_scan_gstar(0)
    assert report.verdict == "consistent"
    assert report.rows[0].degree == 0


def test_negative_n_rejected():
    for fn in (q_tangent, b_odd_vanish, b_central, e_star, g_star, e_q_secant, secant_number):
        with pytest.raises(ValueError):
            fn(-1)
    with pytest.raises(ValueError):
        d_poly(0)
    with pytest.raises(ValueError):
        even_quotient(0)


# ---------------------------------------------------------------------------
# quotients: exact_div is the reference for d_n, G*_{2n} and the even
# quotient, a wrong dividend of the even quotient raises, and no product of
# two multi-term operands is made
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 26))
def test_d_poly_matches_exact_div(n):
    divisor = poch_num(QLaurent.q_power(1, -1), n)
    assert d_poly(n) == exact_div(q_tangent(n), divisor.base.shift(divisor.offset))


@pytest.mark.parametrize("n", range(0, 21))
def test_g_star_matches_exact_div(n):
    divisor = poch_num(QLaurent.q_power(1, -1), n, step=2) * P(1, 1) ** n
    assert g_star(n) == exact_div(e_star(n), divisor.base.shift(divisor.offset))


@pytest.mark.parametrize("n", range(1, 9))
def test_even_quotient_matches_exact_div(n):
    expected = exact_div(carlitz_poly(2 * n), TQPoly([1, QLaurent.q_power(n)]))
    assert expected is not NOT_DIVISIBLE
    assert even_quotient(n) == expected


@pytest.mark.parametrize(
    "fn, dividend, n", [(even_quotient, "carlitz_poly", 3)], ids=["even_quotient"],
)
def test_quotient_of_a_wrong_dividend_raises(monkeypatch, fn, dividend, n):
    original = getattr(special, dividend)
    monkeypatch.setattr(special, dividend, lambda m: original(m) + 1)
    with pytest.raises(ArithmeticError, match="not divisible"):
        fn(n)


def _monomials(x):
    if isinstance(x, int):
        return 1 if x else 0
    if isinstance(x, QPoly):
        return len(x.coeffs) - x.coeffs.count(0)
    if isinstance(x, QLaurent):
        return _monomials(x.base)
    return sum(_monomials(c) for c in x.terms)


def test_series_and_quotients_make_no_dense_product(monkeypatch):
    dense = []
    for cls in (QPoly, TQPoly):

        def counted(self, other, mul=cls.__mul__):
            if _monomials(self) > 1 and _monomials(other) > 1:
                dense.append((self, other))
            return mul(self, other)

        monkeypatch.setattr(cls, "__mul__", counted)
        monkeypatch.setattr(cls, "__rmul__", counted)
    eulerian._carlitz_row.cache_clear()
    eulerian._typeB_row.cache_clear()
    assert run_suite("series", 10).ok
    d_poly(13)
    g_star(13)
    even_quotient(6)
    assert dense == []
    q_int(3) * q_int(2)  # the counter sees a dense product
    assert len(dense) == 1


def _signed_families(n):
    # every family that scales by +-q^e or substitutes t -> +-q^e, with rows warm
    q_tangent(n)
    d_poly(n + 1)
    e_star(n)
    g_star(n)
    b_central(n)
    e_q_secant(n)
    assert b_odd_vanish(n)
    for k in eulerian.FAMILIES["a"].krange(2 * n + 1):
        a_star(2 * n + 1, k)
    assert reciprocity_A(2 * n + 1)
    assert reciprocity_B(2 * n)


def test_signed_families_make_no_product(monkeypatch):
    calls = []
    for n in range(8):
        _signed_families(n)  # warms the rows
    for cls in (QPoly, QLaurent):

        def counted(self, other, mul=cls.__mul__):
            calls.append((self, other))
            return mul(self, other)

        monkeypatch.setattr(cls, "__mul__", counted)
        monkeypatch.setattr(cls, "__rmul__", counted)
    for n in range(8):
        _signed_families(n)
    assert calls == []
    QLaurent.one() * 2  # the counter sees this product and the QPoly one inside it
    assert len(calls) == 2


def test_brackets_and_tangent_reconstruction_make_no_product(monkeypatch):
    calls = []
    quotient_checks = cli.SUITES["tangent"].blocks[1].checks  # d_n, then A_{2n} rebuilt
    rows = {n: eulerian._carlitz_row(2 * n) for n in range(1, 8)}
    for n in range(1, 8):
        [check(n, rows[n]) for check in quotient_checks]  # warms the central entries
    for cls in (QPoly, QLaurent, TQPoly):

        def counted(self, other, mul=cls.__mul__):
            calls.append((self, other))
            return mul(self, other)

        monkeypatch.setattr(cls, "__mul__", counted)
        monkeypatch.setattr(cls, "__rmul__", counted)
    assert run_suite("brackets", 12).ok
    for n in range(1, 8):
        assert [check(n, rows[n])[1] for check in quotient_checks] == [True, True]
    assert calls == []
    TQPoly([1]) * 2  # the counter sees this product and the two inside it
    assert len(calls) == 3
