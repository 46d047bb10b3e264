import operator
import random
import subprocess
import sys
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qeuler.qring import (
    NOT_DIVISIBLE,
    NotDivisible,
    QLaurent,
    QPoly,
    TQPoly,
    _div_one_plus_q_powers,
    _div_one_plus_t_q_power,
    eval_rat,
    exact_div,
    is_nonneg,
    is_palindromic,
    is_unimodal_ints,
    poch_num,
    poch_t,
    q_binom,
    q_int,
    spec_q1,
    spec_q1_t,
    subst_q_power,
    subst_q_recip,
    subst_t_signed_power,
)


def P(*coeffs):
    return QPoly(coeffs)


# ---------------------------------------------------------------------------
# basic arithmetic
# ---------------------------------------------------------------------------


def test_add_cancellation():
    assert P(1, 1) + P(1, -1) == P(2)


def test_mul_binomial_square():
    assert P(1, 1) * P(1, 1) == P(1, 2, 1)


def test_laurent_offset_arithmetic():
    # q^-1 * (q + q^2) == 1 + q with offset 0
    prod = QLaurent.q_power(-1) * P(0, 1, 1)
    assert prod == QLaurent(P(1, 1), 0)
    assert prod.offset == 0


def test_canonical_trailing_zeros():
    assert QPoly([1, 0, 0]).coeffs == (1,)
    assert QPoly([0, 0]).coeffs == ()
    assert QPoly([0, 0]).is_zero()


def test_laurent_canonical_constant_term():
    v = QLaurent(P(0, 0, 3, 1), -5)
    assert v.base.coeffs[0] != 0
    assert v.offset == -3


def test_laurent_to_qpoly_roundtrip():
    p = P(0, 2, 0, 5)
    assert QLaurent(p).to_qpoly() == p
    with pytest.raises(ValueError):
        QLaurent(p, -3).to_qpoly()


def test_tqpoly_canonical():
    assert TQPoly([1, 0, 0]).t_degree() == 0
    assert TQPoly([]).is_zero()


def test_qpoly_pow():
    assert P(1, 1) ** 3 == P(1, 3, 3, 1)
    assert P(1, 1) ** 0 == P(1)


# ---------------------------------------------------------------------------
# q-combinatorial primitives
# ---------------------------------------------------------------------------


def test_q_int_values():
    assert q_int(0) == QPoly()
    assert q_int(1) == P(1)
    assert q_int(3) == P(1, 1, 1)
    with pytest.raises(ValueError):
        q_int(-1)


def test_q_int_step_vs_substitution():
    for m in range(0, 15):
        assert q_int(m, step=2) == subst_q_power(q_int(m), 2)
    assert q_int(0, step=2) == QPoly()


def test_q_binom_values():
    assert q_binom(4, 2) == P(1, 1, 2, 1, 1)
    assert q_binom(5, 0) == P(1)
    assert q_binom(3, 5) == QPoly()
    assert q_binom(3, -1) == QPoly()


def _q_binom_by_division(n, k):
    # (q;q)_n / ((q;q)_k (q;q)_{n-k}) computed literally
    if k < 0 or k > n:
        return QPoly()
    q = QLaurent.q_power(1)
    num = poch_num(q, n).to_qpoly()
    den = poch_num(q, k).to_qpoly() * poch_num(q, n - k).to_qpoly()
    quot = exact_div(num, den)
    assert not isinstance(quot, NotDivisible)
    return quot


def test_q_binom_matches_division_variant():
    # from a cold cache in a scrambled order, so no value can lean on one
    # computed before it
    pairs = [(n, k) for n in range(0, 9) for k in range(0, n + 1)]
    random.Random(1).shuffle(pairs)
    q_binom.cache_clear()
    for n, k in pairs:
        assert q_binom(n, k) == _q_binom_by_division(n, k)


def test_q_binom_symmetry_and_q1():
    for n in range(0, 21):
        for k in range(0, n + 1):
            assert q_binom(n, k) == q_binom(n, n - k)
            assert spec_q1(q_binom(n, k)) == comb(n, k)


def test_q_binom_builds_without_recursion():
    # [300, 1] on a cold cache is one product-formula loop and calls no other
    # q_binom value, so a recursion limit far below 300 frames is no obstacle.
    code = (
        "import sys\n"
        "from qeuler.qring import q_binom, q_int\n"
        "sys.setrecursionlimit(100)\n"
        "print(q_binom(300, 1) == q_int(300))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True\n"


def test_q_binom_cold_call_is_one_miss():
    # the product formula builds [200, 100] without visiting any other value
    q_binom.cache_clear()
    value = q_binom(200, 100)
    info = q_binom.cache_info()
    assert (info.hits, info.misses) == (0, 1)
    assert is_palindromic(value)
    assert spec_q1(value) == comb(200, 100)


def test_poch_t_examples():
    # (1+tq)(1+tq^2)
    assert poch_t(1, 2, sign=-1) == TQPoly([1, P(0, 1, 1), QPoly.monomial(3)])
    assert poch_t(0, 0) == TQPoly.one()
    # (1+tq)(1+tq^3)
    assert poch_t(1, 2, sign=-1, step=2) == TQPoly([1, P(0, 1, 0, 1), QPoly.monomial(4)])


def test_poch_num_examples():
    assert poch_num(-1, 3) == QLaurent(P(2, 2, 2, 2))  # 2(1+q)(1+q^2)
    assert poch_num(-1, 0) == QLaurent.one()
    assert poch_num(QLaurent(P(0, -1)), 2, step=2) == QLaurent(P(1, 1, 0, 1, 1))


def test_q_binomial_theorem():
    # (z;q)_N == sum_j [N,j] (-z)^j q^(j(j-1)/2), exactly, as t-polynomials
    for N in range(0, 13):
        product = poch_t(0, N, sign=+1)
        total = TQPoly.zero()
        for j in range(N + 1):
            coeff = q_binom(N, j) * QPoly.monomial(j * (j - 1) // 2, (-1) ** j)
            total = total + TQPoly.t_monomial(j, coeff)
        assert product == total


# ---------------------------------------------------------------------------
# evaluation and substitution
# ---------------------------------------------------------------------------


def test_eval_rat():
    assert eval_rat(P(1, 1), 2) == 3
    assert eval_rat(QLaurent(P(1, 1), -1), Fraction(1, 2)) == 3
    p = TQPoly([1, P(0, 1, 1), QPoly.monomial(3)])
    assert eval_rat(p, 2, t0=1) == 15
    with pytest.raises(ValueError):
        eval_rat(p, 2)  # t0 required
    with pytest.raises(ZeroDivisionError):
        eval_rat(QLaurent.q_power(-1), 0)


def test_subst_q_recip():
    assert subst_q_recip(P(5)) == QLaurent(P(5))
    assert subst_q_recip(P(0, 1, 1)) == QLaurent(P(1, 1), -2)  # q+q^2 -> q^-2+q^-1
    assert subst_q_recip(QPoly()) == QLaurent.zero()


def test_subst_q_recip_involution():
    rng = random.Random(7)
    for _ in range(50):
        p = QPoly([rng.randint(-9, 9) for _ in range(rng.randrange(0, 12))])
        assert subst_q_recip(subst_q_recip(p)) == QLaurent(p)


def _accumulated_subst(p, sign, e):
    # Reference: the substitution as a sum of products, each t-coefficient
    # times the monomial ``sign^d q^(e*d)`` added into one accumulator.
    acc = QLaurent.zero()
    for d, c in enumerate(p.terms):
        acc = acc + c * QLaurent.q_power(e * d, sign**d)
    return acc


laurents = st.builds(
    QLaurent, st.lists(st.integers(-50, 50), max_size=10).map(QPoly), st.integers(-8, 8)
)
laurent_terms = st.one_of(st.just(QLaurent.zero()), laurents)


@given(
    st.lists(laurent_terms, max_size=8).map(TQPoly), st.sampled_from([1, -1]), st.integers(-8, 8)
)
def test_subst_t_signed_power_matches_accumulated_products(p, sign, e):
    got = subst_t_signed_power(p, sign, e)
    assert repr(got) == repr(_accumulated_subst(p, sign, e))
    assert got == _accumulated_subst(p, sign, e)


def test_subst_t_signed_power():
    b2 = TQPoly([1, P(0, 1, 0, 1), QPoly.monomial(4)])  # 1 + (q+q^3)t + q^4 t^2
    got = subst_t_signed_power(b2, -1, -2)
    assert got == QLaurent(P(-1, 2, -1), -1)  # 2 - q^-1 - q
    assert subst_t_signed_power(TQPoly.t_monomial(1), +1, 0) == QLaurent.one()
    assert subst_t_signed_power(TQPoly([1, P(0, 1)]), -1, -1).is_zero()


# ---------------------------------------------------------------------------
# exact division
# ---------------------------------------------------------------------------


def test_exact_div_qpoly():
    assert exact_div(P(1, 2, 1), P(1, 1)) == P(1, 1)
    assert exact_div(P(1, 0, 1), P(1, 1)) is NOT_DIVISIBLE
    assert exact_div(P(0, 2), P(2)) == P(0, 1)
    assert exact_div(P(0, 1), P(2)) is NOT_DIVISIBLE  # q/2 not integral
    with pytest.raises(ZeroDivisionError):
        exact_div(P(1), QPoly())


def test_exact_div_qlaurent():
    got = exact_div(QLaurent(P(0, 1, 1)), QLaurent(P(0, 1)))
    assert got == QLaurent(P(1, 1))


def test_exact_div_tqpoly():
    p = TQPoly([1, P(0, 1)])  # 1 + qt
    assert exact_div(p * p, p) == p
    assert exact_div(TQPoly([1, 1]), TQPoly([1, P(0, 1)])) is NOT_DIVISIBLE


def test_exact_div_random_roundtrip():
    rng = random.Random(11)
    for _ in range(80):
        p = QPoly([rng.randint(-6, 6) for _ in range(rng.randrange(0, 10))])
        d = QPoly([rng.randint(-6, 6) for _ in range(rng.randrange(1, 8))])
        if d.is_zero():
            continue
        assert exact_div(p * d, d) == p
    for _ in range(40):
        p = TQPoly([QPoly([rng.randint(-4, 4) for _ in range(4)]) for _ in range(3)])
        d = TQPoly([QPoly([rng.randint(-4, 4) for _ in range(3)]) for _ in range(2)])
        if d.is_zero():
            continue
        assert exact_div(p * d, d) == p


def _fraction_exact_div(p, d):
    # Reference: long division over Q, divisible in Z[q] iff the remainder
    # vanishes and every quotient coefficient is an integer.
    if p.is_zero():
        return QPoly()
    rem = [Fraction(c) for c in p.coeffs]
    dd = d.degree()
    qd = len(rem) - 1 - dd
    if qd < 0:
        return NOT_DIVISIBLE
    quot = [Fraction(0)] * (qd + 1)
    for i in range(qd, -1, -1):
        c = rem[i + dd] / d.coeffs[-1]
        quot[i] = c
        for j, dc in enumerate(d.coeffs):
            rem[i + j] -= c * dc
    if any(rem) or any(c.denominator != 1 for c in quot):
        return NOT_DIVISIBLE
    return QPoly([int(c) for c in quot])


small_polys = st.lists(st.integers(-50, 50), max_size=12).map(QPoly)
# nonzero divisors, leading coefficient +-1, +-2 or +-3
divisors = st.builds(
    lambda low, lead: QPoly(low + [lead]),
    st.lists(st.integers(-9, 9), max_size=5),
    st.sampled_from([1, -1, 2, -2, 3, -3]),
)


@given(small_polys, divisors, st.sampled_from(["any", "multiple", "rational multiple"]))
def test_exact_div_matches_fraction_long_division(p, d, how):
    if how == "multiple":
        p = p * d
    elif how == "rational multiple":  # p / 2 over Q: in Z[q] only when p is even
        p, d = p * d, d * 2
    assert repr(exact_div(p, d)) == repr(_fraction_exact_div(p, d))


# ---------------------------------------------------------------------------
# q=1 specialization and predicates
# ---------------------------------------------------------------------------


def test_spec_q1():
    assert spec_q1(P(0, 1, 1)) == 2
    assert spec_q1(P(0, 2, 4, 2)) == 8  # 2q(1+q)^2
    assert spec_q1(QPoly()) == 0
    assert spec_q1(QLaurent(P(1, 1), -4)) == 2
    assert spec_q1_t(TQPoly([1, P(0, 2, 2), QPoly.monomial(3)])) == [1, 4, 1]


def test_predicates():
    b3_coeff = P(0, 2, 5, 6, 5, 2)
    assert is_palindromic(b3_coeff)
    assert is_nonneg(b3_coeff)
    assert not is_nonneg(P(1, -1))
    assert is_unimodal_ints((1, 4, 1))
    assert not is_unimodal_ints((1, 4, 1, 2))
    assert is_palindromic(QPoly())
    assert is_palindromic(b3_coeff, center=3)
    assert not is_palindromic(b3_coeff, center=2)
    assert is_unimodal_ints(())


# ---------------------------------------------------------------------------
# ring axioms on random triples
# ---------------------------------------------------------------------------


def _rand_qpoly(rng, max_deg=30, bound=40):
    n = rng.randrange(0, max_deg + 2)  # 0 -> zero polynomial
    return QPoly([rng.randint(-bound, bound) for _ in range(n)])


def _rand_qlaurent(rng):
    return QLaurent(_rand_qpoly(rng, max_deg=18), rng.randint(-8, 8))


def _rand_tqpoly(rng):
    return TQPoly([_rand_qlaurent(rng) for _ in range(rng.randrange(0, 5))])


@pytest.mark.parametrize(
    "make,seed",
    [(_rand_qpoly, 101), (_rand_qlaurent, 202), (_rand_tqpoly, 303)],
    ids=["qpoly", "qlaurent", "tqpoly"],
)
def test_ring_axioms_random(make, seed):
    rng = random.Random(seed)
    zero = make(rng) * 0
    for _ in range(200):
        p, r, s = make(rng), make(rng), make(rng)
        assert p + r == r + p
        assert (p + r) + s == p + (r + s)
        assert p * r == r * p
        assert (p * r) * s == p * (r * s)
        assert p * (r + s) == p * r + p * s
        assert p + (-p) == zero
        assert p - r == p + (-r)


# ---------------------------------------------------------------------------
# shifts, subtraction and mixed-type operators
# ---------------------------------------------------------------------------

@given(laurents, st.integers(-12, 12))
def test_laurent_shift_is_monomial_product(x, e):
    assert x.shift(e) == x * QLaurent.q_power(e)
    assert repr(x.shift(e)) == repr(x * QLaurent.q_power(e))


def test_shift_of_zero_is_canonical_zero():
    for e in (-3, 0, 4):
        z = QLaurent.zero().shift(e)
        assert (z.base, z.offset) == (QPoly(), 0)
        assert z == QLaurent.zero()


poly_or_int = st.one_of(st.integers(-(10**20), 10**20), small_polys)


@given(poly_or_int, poly_or_int)
def test_qpoly_sub_is_add_of_negation(a, b):
    if isinstance(a, int) and isinstance(b, int):
        a = QPoly((a,))
    assert a - b == a + (-b)
    assert isinstance(a - b, QPoly)


# A nonzero and a zero sample of each operand type, richest type last.  The
# table also covers the reflected QPoly - QLaurent and QPoly - TQPoly.
OPERAND_SAMPLES = {
    int: (3, 0),
    QPoly: (P(1, 2), P()),
    QLaurent: (QLaurent(P(1, -1), -2), QLaurent()),
    TQPoly: (TQPoly([1, QLaurent(P(0, 1), -1)]), TQPoly()),
}
RANK = list(OPERAND_SAMPLES)
OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul}


@pytest.mark.parametrize("op", list(OPS))
@pytest.mark.parametrize("left", RANK, ids=lambda t: t.__name__)
@pytest.mark.parametrize("right", RANK, ids=lambda t: t.__name__)
def test_mixed_operators_return_richer_type(left, right, op):
    fn = OPS[op]
    want = max(left, right, key=RANK.index)
    for a in OPERAND_SAMPLES[left]:
        for b in OPERAND_SAMPLES[right]:
            got = fn(a, b)
            assert type(got) is want, (a, op, b, got)
            assert TQPoly.coerce(got) == fn(TQPoly.coerce(a), TQPoly.coerce(b)), (a, op, b)


# ---------------------------------------------------------------------------
# mul_q_int against the schoolbook product
# ---------------------------------------------------------------------------

signed_polys = st.lists(st.integers(-(10**30), 10**30), max_size=30).map(QPoly)


@given(signed_polys, st.integers(0, 40), st.integers(0, 5))
def test_mul_q_int_matches_schoolbook(p, m, step):
    expected = p * m if step == 0 else q_int(m, step) * p
    assert p.mul_q_int(m, step) == expected


def test_mul_q_int_rejects_negative_arguments():
    with pytest.raises(ValueError):
        P(1).mul_q_int(-1)
    with pytest.raises(ValueError):
        P(1).mul_q_int(2, step=-1)


# ---------------------------------------------------------------------------
# quotients by 1 + q^e and 1 + t q^e against exact_div
# ---------------------------------------------------------------------------


@given(signed_polys, st.lists(st.integers(1, 12), max_size=4))
def test_div_one_plus_q_powers_matches_exact_div(p, exps):
    divisor = P(1)
    for e in exps:
        divisor = divisor * (P(1) + QPoly.monomial(e))
    assert _div_one_plus_q_powers(p * divisor, exps) == exact_div(p * divisor, divisor)


@given(small_polys, st.integers(1, 12))
def test_div_one_plus_q_powers_agrees_on_divisibility(p, e):
    assert _div_one_plus_q_powers(p, [e]) == exact_div(p, P(1) + QPoly.monomial(e))


def test_div_one_plus_q_powers_rejects_other_factors():
    assert _div_one_plus_q_powers(P(1, 0, 1), [1]) is NOT_DIVISIBLE
    assert _div_one_plus_q_powers(P(1, 1), [2]) is NOT_DIVISIBLE
    assert _div_one_plus_q_powers(P(1, 1), [1, 1]) is NOT_DIVISIBLE
    assert _div_one_plus_q_powers(P(1), [1]) is NOT_DIVISIBLE
    assert _div_one_plus_q_powers(P(0, 1, 1), [1]) == P(0, 1)
    assert _div_one_plus_q_powers(P(), [1, 2]) == P()


tq_polys = st.lists(
    st.builds(QLaurent, small_polys, st.integers(-3, 3)), max_size=6
).map(TQPoly)


@given(tq_polys, st.integers(0, 6), st.booleans())
def test_div_one_plus_t_q_power_matches_exact_div(p, e, multiply):
    d = TQPoly([1, QLaurent.q_power(e)])
    if multiply:
        p = p * d
    assert _div_one_plus_t_q_power(p, e) == exact_div(p, d)
