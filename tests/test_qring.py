import operator
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from math import comb, gcd
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qeuler.eulerian import FAMILIES
from qeuler.qring import (
    NOT_DIVISIBLE,
    NotDivisible,
    QLaurent,
    QPoly,
    TQPoly,
    _div_one_plus_t_q_power,
    _mul_one_plus_t_q_power,
    _mul_q_ratio,
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
    subst_q_power,
    subst_q_recip,
    subst_t_signed_power,
)

# a child process imports qeuler from this checkout's src/, whether or not
# PYTHONPATH names it: pytest puts src/ on its own path only
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, (str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH"))))}


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


def _pop_trimmed(coeffs):
    # the constructor's trim before it kept a given tuple: copy, pop, re-tuple
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


@given(
    st.lists(st.integers(-3, 3), max_size=8),
    st.integers(0, 5),
    st.sampled_from(["tuple", "list", "map"]),
)
def test_constructor_trim_matches_list_and_pop(body, zeros, kind):
    coeffs = body + [0] * zeros
    given_as = {"tuple": tuple, "list": list, "map": lambda cs: map(int, cs)}[kind](coeffs)
    p = QPoly(given_as)
    assert type(p.coeffs) is tuple
    assert p.coeffs == _pop_trimmed(coeffs)
    assert p == QPoly(_pop_trimmed(coeffs)) and hash(p) == hash(QPoly(_pop_trimmed(coeffs)))


def test_constructor_keeps_a_trimmed_tuple():
    cs = (1, 0, 2)
    assert QPoly(cs).coeffs is cs


def test_laurent_canonical_constant_term():
    v = QLaurent(P(0, 0, 3, 1), -5)
    assert v.base.coeffs[0] != 0
    assert v.offset == -3


def test_laurent_slices_leading_zeros_and_keeps_a_canonical_base():
    v = QLaurent(P(0, 0, 1, 2), -1)
    assert v.offset == 1
    assert v.base.coeffs == (1, 2)
    base = P(3, 0, 1)
    assert QLaurent(base, 4).base is base


def _valuation_loop(p):
    for i, c in enumerate(p.coeffs):
        if c != 0:
            return i
    return 0


@pytest.mark.parametrize(
    "coeffs", [(), (0, 0), (7,), (-2,), (0, 1), (0, 0, 1, 2), (0, 0, 0, 0, -5, 0, 3)]
)
def test_valuation_matches_the_loop(coeffs):
    p = QPoly(coeffs)
    assert p.valuation() == _valuation_loop(p)


def test_tqpoly_canonical():
    assert TQPoly([1, 0, 0]).terms == (QLaurent.one(),)
    assert TQPoly([]).is_zero()


def test_qpoly_pow():
    assert P(1, 1) ** 3 == P(1, 3, 3, 1)
    assert P(1, 1) ** 0 == P(1)


@pytest.mark.parametrize("base", [P(0, 0, 1), P(-1, 0, 1), P(1, 1)])
@pytest.mark.parametrize("k", [1, 3])
def test_qpoly_negative_power_raises(base, k):
    with pytest.raises(ValueError, match=r"negative powers leave Z\[q\]"):
        base ** -k


# ``**`` is defined on QPoly only
@pytest.mark.parametrize("base", [QLaurent.q_power(2), QLaurent.q_power(-1, -1), QLaurent(P(1, 1))])
@pytest.mark.parametrize("k", [1, 3])
def test_laurent_negative_power_raises(base, k):
    with pytest.raises(TypeError):
        base ** -k


# ---------------------------------------------------------------------------
# q-combinatorial primitives
# ---------------------------------------------------------------------------


def test_q_int_values():
    assert q_int(0) == QPoly()
    assert q_int(1) == P(1)
    assert q_int(3) == P(1, 1, 1)
    with pytest.raises(ValueError):
        q_int(-1)


def _q_int_loop(n, step):
    # Reference: [n]_{q^step} written out, a 1 at every step-th exponent.
    out = [0] * (step * max(n - 1, 0) + 1) if n else []
    for i in range(n):
        out[step * i] = 1
    return QPoly(out)


@pytest.mark.parametrize("step", range(1, 6))
def test_q_int_matches_the_written_out_sum(step):
    for n in range(41):
        assert q_int(n, step) == _q_int_loop(n, step)


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
    # (q;q)_m has constant term 1, so its QLaurent offset is 0
    q = QLaurent.q_power(1)
    num = poch_num(q, n).base
    den = poch_num(q, k).base * poch_num(q, n - k).base
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


def test_mul_q_ratio_matches_the_dense_product_and_division():
    # (1 - q^a) p / (1 - q^b) is a polynomial when p = r (1 - q^b)/(1 - q^g),
    # g = gcd(a, b); b | a gives g = b and p = r.  The kernel's list must
    # be the dense route's coefficients exactly, its trailing zeros dropped.
    rng = random.Random(7)
    for _ in range(300):
        a, b = rng.randint(1, 12), rng.randint(1, 12)
        g = gcd(a, b)
        r = QPoly([rng.randint(-9, 9) for _ in range(rng.randrange(0, 7))] + [rng.choice((-2, 1, 3))])
        p = r * q_int(b // g, step=g)
        want = exact_div(p * (1 - QPoly.monomial(a)), 1 - QPoly.monomial(b))
        assert want is not NOT_DIVISIBLE
        assert _mul_q_ratio(p.coeffs, a, b) == list(want.coeffs)
        assert _mul_q_ratio(list(p.coeffs), a, b) == list(want.coeffs)


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
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=CHILD_ENV)
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
            total = total + TQPoly([0] * j + [coeff])
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


def _fraction_horner(p, x):
    # the reference: Horner's rule in Fraction arithmetic
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


eval_polys = st.lists(st.integers(-(10**30), 10**30), max_size=61).map(QPoly)
nonzero_points = st.one_of(
    st.integers(-(10**6), 10**6).filter(bool),
    st.builds(Fraction, st.integers(-(10**6), 10**6).filter(bool), st.integers(1, 10**6)),
)
eval_points = st.one_of(st.just(0), st.just(Fraction(0)), nonzero_points)


@given(eval_polys, eval_points)
def test_integer_evaluation_matches_fraction_horner(p, x):
    value = p(x)
    assert type(value) is Fraction
    assert value == _fraction_horner(p, x)


@given(eval_polys, st.integers(-8, 8), st.data())
def test_laurent_evaluation_matches_fraction_horner(p, offset, data):
    x = data.draw(nonzero_points if offset < 0 else eval_points)
    value = QLaurent(p, offset)(x)
    assert type(value) is Fraction
    assert value == _fraction_horner(p, x) * Fraction(x) ** offset


def test_subst_q_recip():
    assert subst_q_recip(P(5)) == QLaurent(P(5))
    assert subst_q_recip(P(0, 1, 1)) == QLaurent(P(1, 1), -2)  # q+q^2 -> q^-2+q^-1
    assert subst_q_recip(QPoly()) == QLaurent.zero()


def test_subst_q_recip_involution():
    rng = random.Random(7)
    for _ in range(50):
        p = QPoly([rng.randint(-9, 9) for _ in range(rng.randrange(0, 12))])
        assert subst_q_recip(subst_q_recip(p)) == QLaurent(p)


def _accumulated_subst(p, e):
    # Reference: the substitution as a sum of products, each t-coefficient
    # times the monomial ``(-1)^d q^(e*d)`` added into one accumulator.
    acc = QLaurent.zero()
    for d, c in enumerate(p.terms):
        acc = acc + c * QLaurent.q_power(e * d, (-1) ** d)
    return acc


laurents = st.builds(
    QLaurent, st.lists(st.integers(-50, 50), max_size=10).map(QPoly), st.integers(-8, 8)
)
laurent_terms = st.one_of(st.just(QLaurent.zero()), laurents)


@given(st.lists(laurent_terms, max_size=8).map(TQPoly), st.integers(-8, 8), st.integers(0, 4))
def test_subst_t_signed_power_matches_accumulated_products(p, e, extra):
    # at the smallest shift that clears the value's negative powers, and
    # ``extra`` above it, the result is the reference times that power of q;
    # one below the smallest, a negative power survives
    want = _accumulated_subst(p, e)
    shift = extra - want.offset
    got = subst_t_signed_power(p, e, shift)
    assert repr(got) == repr(QPoly((0,) * extra + want.base.coeffs))
    assert got == QPoly((0,) * extra + want.base.coeffs)
    if want:
        with pytest.raises(ValueError, match="^negative offset -1: not a polynomial$"):
            subst_t_signed_power(p, e, -want.offset - 1)


def test_subst_t_signed_power():
    b2 = TQPoly([1, P(0, 1, 0, 1), QPoly.monomial(4)])  # 1 + (q+q^3)t + q^4 t^2
    got = subst_t_signed_power(b2, -2, 1)
    assert got == P(-1, 2, -1)  # q (2 - q^-1 - q)
    with pytest.raises(ValueError, match="^negative offset -1: not a polynomial$"):
        subst_t_signed_power(b2, -2, 0)
    assert subst_t_signed_power(TQPoly([1, P(0, 1)]), -1, 0).is_zero()
    assert subst_t_signed_power(TQPoly([1, P(0, 1)]), -1, -5).is_zero()


@given(st.lists(st.integers(-9, 9), max_size=10).map(QPoly), st.integers(0, 6),
       st.integers(0, 12))
def test_qpoly_negative_shift_divides_exactly_or_raises(base, k, m):
    # q^m divides p exactly when p's valuation is at least m; the quotient
    # is p's coefficients past the first m, else the negative offset is named
    p = QPoly((0,) * k + base.coeffs)
    v = p.valuation()
    if p.is_zero() or v >= m:
        assert p.shift(-m) == QPoly(p.coeffs[m:])
        assert p.shift(m).shift(-m) == p
    else:
        with pytest.raises(ValueError, match=f"^negative offset {v - m}: not a polynomial$"):
            p.shift(-m)


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


def test_predicates():
    b3_coeff = P(0, 2, 5, 6, 5, 2)
    assert is_palindromic(b3_coeff)
    assert is_nonneg(b3_coeff)
    assert not is_nonneg(P(1, -1))
    assert is_unimodal_ints((1, 4, 1))
    assert not is_unimodal_ints((1, 4, 1, 2))
    assert is_palindromic(QPoly())
    assert is_unimodal_ints(())


# ---------------------------------------------------------------------------
# the ring types as values
# ---------------------------------------------------------------------------

# drawn from a small space, so that independently drawn pairs are often equal
tiny_polys = st.lists(st.integers(-1, 1), max_size=3).map(QPoly)
tiny_laurents = st.builds(QLaurent, tiny_polys, st.integers(-1, 1))
tiny_values = st.one_of(
    tiny_polys, tiny_laurents, st.lists(tiny_laurents, max_size=2).map(TQPoly)
)
REBUILD = {  # the same value by another construction
    QPoly: lambda p, k: QPoly(list(p.coeffs) + [0] * k),
    QLaurent: lambda p, k: QLaurent(p.base.shift(k), p.offset - k),
    TQPoly: lambda p, k: TQPoly(list(p.terms) + [0] * k),
}


@given(tiny_values, tiny_values, st.integers(0, 3))
def test_equal_values_have_equal_hashes(x, y, k):
    if x == y:
        assert hash(x) == hash(y)
    rebuilt = REBUILD[type(x)](x, k)
    assert rebuilt is not x
    assert rebuilt == x
    assert hash(rebuilt) == hash(x)


def test_values_of_different_types_are_unequal():
    assert (QPoly((1,)) == QLaurent(1)) is False
    assert (TQPoly([1]) == QPoly((1,))) is False
    assert (QPoly(()) == 0) is False
    for value in (P(1), QLaurent(1), TQPoly([1])):
        assert value.__eq__(1) is NotImplemented
        assert value.__eq__((1,)) is NotImplemented


@pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
def test_values_survive_pickle(protocol):
    for value in (P(1, -2, 3), P(), QLaurent(P(1, 1), -3), QLaurent(),
                  TQPoly([1, QLaurent(P(0, 1), -1)]), TQPoly()):
        back = pickle.loads(pickle.dumps(value, protocol))
        assert type(back) is type(value)
        assert back == value
        assert repr(back) == repr(value)


def test_values_have_no_instance_dict():
    for value in (P(1), QLaurent(1), TQPoly([1])):
        assert not hasattr(value, "__dict__")
        with pytest.raises(AttributeError):
            value.note = "x"


def test_family_entries_are_read_only():
    with pytest.raises(AttributeError):
        FAMILIES["A"].first_n = 2


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


def _add_elementwise(a, b):
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return QPoly(out)


@given(
    st.lists(st.integers(-(10**20), 10**20), max_size=12),
    st.lists(st.integers(-(10**20), 10**20), max_size=12),
    st.integers(0, 4),
)
def test_qpoly_add_matches_elementwise(a, b, cancel):
    # the top ``cancel`` coefficients of ``b`` (padded to ``a``) negate those of ``a``
    b = b + [0] * (len(a) - len(b))
    for i in range(max(len(a) - cancel, 0), len(a)):
        b[i] = -a[i]
    got = QPoly(a) + QPoly(b)
    assert got == _add_elementwise(QPoly(a).coeffs, QPoly(b).coeffs)
    assert got == QPoly(b) + QPoly(a)
    assert not got.coeffs or got.coeffs[-1] != 0


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
# quotients by 1 + t q^e against exact_div
# ---------------------------------------------------------------------------

tq_polys = st.lists(
    st.builds(QLaurent, small_polys, st.integers(-3, 3)), max_size=6
).map(TQPoly)


@given(tq_polys, st.integers(0, 6), st.booleans())
def test_div_one_plus_t_q_power_matches_exact_div(p, e, multiply):
    d = TQPoly([1, QLaurent.q_power(e)])
    if multiply:
        p = p * d
    assert _div_one_plus_t_q_power(p, e) == exact_div(p, d)


@given(tq_polys, st.integers(-4, 6))
def test_mul_one_plus_t_q_power_matches_product_and_division(p, e):
    got = _mul_one_plus_t_q_power(p, e)
    assert got == p * TQPoly([1, QLaurent.q_power(e)])
    assert _div_one_plus_t_q_power(got, e) == p


# ---------------------------------------------------------------------------
# TQPoly division against the elimination from the lowest t-degree
# ---------------------------------------------------------------------------


def _t_valuation(p):
    # the lowest t-degree of a nonzero p
    return next(i for i, c in enumerate(p.terms) if c)


def _low_to_high_div(p, d):
    # Reference: eliminate from the lowest t-degree upward, dividing each
    # coefficient's base over Q (_fraction_exact_div); the remainder must
    # vanish within the t-degree an exact quotient can have.
    if d.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if p.is_zero():
        return TQPoly()
    dv = _t_valuation(d)
    dlow = d.coeff(dv)
    max_shift = len(p.terms) - len(d.terms)
    if max_shift < 0:
        return NOT_DIVISIBLE
    quot = {}
    rem = p
    while not rem.is_zero():
        rv = _t_valuation(rem)
        shift = rv - dv
        if shift < 0 or shift > max_shift:
            return NOT_DIVISIBLE
        c = rem.coeff(rv)
        base = _fraction_exact_div(c.base, dlow.base)
        if base is NOT_DIVISIBLE:
            return NOT_DIVISIBLE
        quot[shift] = QLaurent(base, c.offset - dlow.offset)
        rem = rem - TQPoly([0] * shift + [quot[shift]]) * d
    return TQPoly([quot.get(i, QLaurent.zero()) for i in range(max(quot) + 1)])


laurents = st.builds(
    QLaurent, st.lists(st.integers(-9, 9), max_size=5).map(QPoly), st.integers(-3, 3)
)
# nonzero divisors, possibly with t-valuation > 0: t^v (low + lead t^k)
tq_divisors = st.builds(
    lambda v, low, lead: TQPoly(low + [lead]).t_shift(v),
    st.integers(0, 2),
    st.lists(laurents, max_size=2),
    st.builds(QLaurent, divisors, st.integers(-3, 3)),
)


@given(
    st.lists(laurents, max_size=5).map(TQPoly),
    tq_divisors,
    st.sampled_from(["any", "multiple", "rational multiple"]),
)
def test_exact_div_tqpoly_matches_low_to_high_elimination(p, d, how):
    if how == "multiple":
        p = p * d
    elif how == "rational multiple":  # p / 2 over Q: divisible only when p is even
        p, d = p * d, d * 2
    assert repr(exact_div(p, d)) == repr(_low_to_high_div(p, d))


def test_exact_div_tqpoly_edge_cases():
    q = QLaurent.q_power
    d = TQPoly([0, 0, QLaurent(P(1, 1), -2)])  # (q^-2 + q^-1) t^2
    p = TQPoly([0, 0, 0, QLaurent(P(1, 2, 1), -5)])
    assert exact_div(p, d) == TQPoly([0, q(-3) + q(-2)])
    assert exact_div(TQPoly([1]) + p, d) is NOT_DIVISIBLE  # nonzero remainder below t^2
    assert exact_div(TQPoly([0, 0, 1]), d) is NOT_DIVISIBLE  # 1 / (q^-2 + q^-1)
    assert exact_div(TQPoly([0, 1]), d) is NOT_DIVISIBLE  # t-degree too low
    assert exact_div(TQPoly([0, 0, 2]), TQPoly([0, 0, 4])) is NOT_DIVISIBLE  # 1/2
    assert exact_div(TQPoly(), d) == TQPoly()
    assert exact_div(QLaurent(P(2), -1), TQPoly([2])) == TQPoly([q(-1)])
    for p in (TQPoly([1]), QLaurent(P(1)), P(1)):
        for zero in (TQPoly(), QLaurent(), QPoly(), 0):
            with pytest.raises(ZeroDivisionError):
                exact_div(p, zero)
    with pytest.raises(TypeError):
        exact_div(1, 2)
