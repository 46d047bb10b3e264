"""Exact-arithmetic toolkit for Carlitz and Chow-Gessel q-Eulerian
polynomials, their gamma-coefficient triangles, the derived q-tangent and
q-secant families, and a doubloon enumeration of the central coefficients.
"""

from .qring import (
    NOT_DIVISIBLE,
    NotDivisible,
    QLaurent,
    QPoly,
    TQPoly,
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
from .eulerian import (
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
    typeB_entry,
    typeB_poly,
    typeB_series_oracle,
)
from .special import (
    GStarScanReport,
    GStarScanRow,
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
from .doubloon import interlaced_gf
from .unimodality import (
    monotone_check_A,
    monotone_check_B,
    q1_unimodality,
    reciprocity_A,
    reciprocity_B,
)

__version__ = "0.1.0"
