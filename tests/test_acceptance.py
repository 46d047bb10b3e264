"""Acceptance criteria, one test per criterion.

Every check is exact (integer/rational arithmetic, structural equality);
the stated wall-clock budgets are asserted too.  Each criterion prints a
single ``[acceptance] criterion NN PASS`` line (visible with ``pytest -s``
or in captured output).
"""

import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from qeuler.doubloon import interlaced_gf
from qeuler.eulerian import (
    basis_change_A,
    basis_change_B,
    bracket_identity_A,
    bracket_identity_B,
    carlitz_poly,
    carlitz_entry,
    carlitz_series_oracle,
    classical_gamma_a,
    classical_gamma_b,
    gamma_a_entry,
    gamma_b_entry,
    gamma_expand_A,
    gamma_expand_B,
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
    spec_q1,
)
from qeuler.serialize import dumps, loads
from qeuler.special import (
    a_star,
    b_central,
    b_odd_vanish,
    conjecture_scan_gstar,
    d_poly,
    e_star,
    even_quotient,
    g_star,
    q_tangent,
    secant_number,
    verify_d_identity,
    verify_gstar_identity,
)
from qeuler.unimodality import (
    monotone_check_A,
    monotone_check_B,
    reciprocity_A,
    reciprocity_B,
)

# a child process imports qeuler from this checkout's src/, whether or not
# PYTHONPATH names it: pytest puts src/ on its own path only
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, (str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH"))))}


def P(*coeffs):
    return QPoly(coeffs)


def criterion(num, description, budget_s, body):
    t0 = time.perf_counter()
    body()
    elapsed = time.perf_counter() - t0
    assert elapsed < budget_s, f"criterion {num} took {elapsed:.3f}s (budget {budget_s}s)"
    print(f"[acceptance] criterion {num:2d} PASS ({elapsed:.3f}s): {description}")


def test_criterion_01_q1_triangle_regression():
    def body():
        a = [[spec_q1(gamma_a_entry(n, k)) for k in range(1, (n + 1) // 2 + 1)] for n in range(1, 7)]
        assert a == [[1], [1], [1, 2], [1, 8], [1, 22, 16], [1, 52, 136]]
        assert a[4][1] == 22 and a[4][2] == 16 and a[5][1] == 52 and a[5][2] == 136
        b = [[spec_q1(gamma_b_entry(n, k)) for k in range(0, n // 2 + 1)] for n in range(1, 7)]
        assert b == [[1], [1, 4], [1, 20], [1, 72, 80], [1, 232, 976], [1, 716, 7664, 3904]]
        assert sum(v * 2 ** (6 - 2 * k) for k, v in enumerate(b[5])) == 46080 == 2**6 * math.factorial(6)
        assert classical_gamma_a(6) == a and classical_gamma_b(6) == b

    criterion(1, "q=1 triangles match the published block (with the 7664 correction)", 0.1, body)


def test_criterion_02_displayed_polynomials():
    def body():
        one_plus_q = P(1, 1)
        expected_a = {
            (1, 1): P(1), (2, 1): P(1),
            (3, 1): P(1), (3, 2): P(0, 1, 1),
            (4, 1): P(1), (4, 2): P(0, 2) * one_plus_q**2,
            (5, 1): P(1),
            (5, 2): P(0, 1) * one_plus_q * P(3, 5, 3),
            (5, 3): P(0, 0, 0, 2) * one_plus_q**2 * P(1, 0, 1),
            (6, 1): P(1),
            (6, 2): P(0, 1) * one_plus_q**2 * P(4, 5, 4),
            (6, 3): QPoly.monomial(3) * one_plus_q**2 * P(1, 0, 1) * P(5, 7, 5),
        }
        for (n, k), value in expected_a.items():
            assert gamma_a_entry(n, k) == value, (n, k)
        displayed_b = {
            1: TQPoly([1, P(0, 1)]),
            2: poch_t(1, 2, sign=-1, step=2) + TQPoly([0, P(0, 1, 2, 1)]),
            3: poch_t(1, 3, sign=-1, step=2)
            + P(0, 2, 5, 6, 5, 2) * TQPoly([0, 1, QPoly.monomial(3)]),
            4: poch_t(1, 4, sign=-1, step=2)
            + (P(0, 3, 9, 15, 18, 15, 9, 3) * poch_t(3, 2, sign=-1, step=2)).t_shift(1)
            + TQPoly([0, 0, QPoly.monomial(4) * P(2, 7, 11, 13, 14, 13, 11, 7, 2)]),
        }
        for n, value in displayed_b.items():
            assert typeB_poly(n) == value, n

    criterion(2, "a[n,k](q) table n<=6 and B_n(t,q) n=1..4 match verbatim", 0.1, body)


def test_criterion_03_typeA_expansion_identity():
    def body():
        for n in range(1, 15):
            assert gamma_expand_A(n) == carlitz_poly(n)
            for k in range(1, n + 1):
                assert basis_change_A(n, k) == carlitz_entry(n, k)

    criterion(3, "type-A gamma expansion and change of basis, n <= 14", 10.0, body)


def test_criterion_04_typeB_expansion_identity():
    def body():
        for n in range(1, 15):
            assert gamma_expand_B(n) == typeB_poly(n)
            for k in range(0, n + 1):
                assert basis_change_B(n, k) == typeB_entry(n, k)

    criterion(4, "type-B gamma expansion and change of basis, n <= 14", 20.0, body)


def test_criterion_05_series_oracles():
    def body():
        for n in range(1, 11):
            assert carlitz_series_oracle(n) == carlitz_poly(n)
        for n in range(0, 11):
            assert typeB_series_oracle(n) == typeB_poly(n)

    criterion(5, "defining-series oracles with zero tails through t-degree 2n, n <= 10", 10.0, body)


def test_criterion_06_q_tangent():
    def body():
        for n in range(0, 7):
            t = q_tangent(n)  # construction asserts polynomiality + nonnegativity
            assert is_nonneg(t)
            assert t == a_star(2 * n + 1, n + 1)
        assert q_tangent(1) == P(1, 1)
        assert q_tangent(2) == P(2, 4, 4, 4, 2)
        assert spec_q1(q_tangent(1)) == 2
        assert spec_q1(q_tangent(2)) == 16

    criterion(6, "q-tangent numbers: polynomial, nonnegative, central rescaling", 5.0, body)


def test_criterion_07_even_quotient():
    def body():
        for n in range(1, 7):
            quot = even_quotient(n)
            divisor = TQPoly([QLaurent.one(), QLaurent.q_power(n)])
            assert quot * divisor == carlitz_poly(2 * n)
            for c in quot.terms:
                assert c.is_zero() or (c.offset >= 0 and is_nonneg(c))

    criterion(7, "A_2n(t,q)/(1+tq^n) exact with nonnegative coefficients, n <= 6", 5.0, body)


def test_criterion_08_d_polynomials():
    def body():
        for n in range(1, 9):
            assert is_nonneg(d_poly(n))
        for n in range(1, 6):
            assert verify_d_identity(n)

    criterion(8, "d_n in Z[q] nonnegative (n <= 8) and its rational identity (n <= 5)", 10.0, body)


def test_criterion_09_secant_family():
    def body():
        for n in range(0, 6):
            assert b_odd_vanish(n)
            assert b_central(n) == gamma_b_entry(2 * n, n)
            assert QLaurent(e_star(n)) * QLaurent.q_power(n * n) == QLaurent(
                gamma_b_entry(2 * n, n)
            )
            assert spec_q1(g_star(n)) == secant_number(n)
        assert [secant_number(n) for n in range(5)] == [1, 1, 5, 61, 1385]
        for n in range(0, 5):
            assert verify_gstar_identity(n)

    criterion(9, "type-B vanishing/central values and the G* factorization", 10.0, body)


def test_criterion_10_conjecture_scan():
    def body():
        report = conjecture_scan_gstar(6)
        assert report.verdict == "consistent"
        for row in report.rows:
            assert row.min_coeff >= 0

    criterion(10, "G*_{2n}(q) positivity scan consistent for n <= 6 (reported, not assumed)", 10.0, body)


def test_criterion_11_doubloon_oracle():
    def body():
        t0 = time.perf_counter()
        for n in (1, 2, 3):
            assert interlaced_gf(n) == gamma_a_entry(2 * n + 1, n + 1)
        assert spec_q1(interlaced_gf(1)) == 2
        assert spec_q1(interlaced_gf(2)) == 16
        assert time.perf_counter() - t0 < 1.0  # 7! enumeration within a second

    criterion(11, "interlaced doubloon generating function matches a[2n+1,n+1], n <= 3", 2.0, body)


def test_criterion_12_reciprocity_and_monotonicity():
    def body():
        for n in range(1, 13):
            assert reciprocity_A(n)
        for n in range(0, 13):
            assert reciprocity_B(n)
        hi = (Fraction(3, 2), Fraction(2), Fraction(7, 3), Fraction(5))
        lo = (Fraction(1, 2), Fraction(2, 3))
        for n in range(2, 11):
            for q0 in hi + lo:
                assert monotone_check_A(n, q0)
                assert monotone_check_B(n, q0)

    criterion(12, "row-reversal reciprocity (n <= 12) and strict monotone growth at samples", 5.0, body)


def test_criterion_13_bracket_identities():
    def body():
        for n in range(1, 13):
            for k in range(1, n + 1):
                for s in range(1, k + 1):
                    assert bracket_identity_A(n, k, s)
        for n in range(0, 13):
            for k in range(0, n + 1):
                for s in range(0, k + 1):
                    assert bracket_identity_B(n, k, s)

    criterion(13, "both proof-lemma bracket identities over all triples, n <= 12", 5.0, body)


def test_criterion_14_kernel_properties():
    def body():
        # q-binomial theorem, N <= 12
        for N in range(0, 13):
            lhs = poch_t(0, N, sign=+1)
            rhs = TQPoly.zero()
            for j in range(N + 1):
                rhs = rhs + TQPoly(
                    [0] * j + [q_binom(N, j) * QPoly.monomial(j * (j - 1) // 2, (-1) ** j)]
                )
            assert lhs == rhs
        # ring axioms, 200 seeded random triples
        import random

        rng = random.Random(1405)
        for _ in range(200):
            p, r, s = (
                QPoly([rng.randint(-40, 40) for _ in range(rng.randrange(0, 31))])
                for _ in range(3)
            )
            assert (p + r) + s == p + (r + s)
            assert p * (r + s) == p * r + p * s
            assert (p * r) * s == p * (r * s)
            assert p + (-p) == QPoly.zero()
        # JSON round trip over representative shapes
        samples = [
            QPoly([10**30, -1, 7]),
            QLaurent(P(3, 0, 5), -4),
            typeB_poly(4),
            carlitz_poly(5),
        ]
        for v in samples:
            assert loads(dumps(v)) == v
        # deterministic byte-identical CLI output
        cmd = [sys.executable, "-m", "qeuler", "table", "b", "--max-n", "7", "--format", "json"]
        first = subprocess.run(cmd, capture_output=True, env=CHILD_ENV).stdout
        second = subprocess.run(cmd, capture_output=True, env=CHILD_ENV).stdout
        assert first == second and first
        json.loads(first.decode())

    criterion(14, "kernel: q-binomial theorem, ring axioms, JSON round trip, determinism", 30.0, body)


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-v", "-s"]))
