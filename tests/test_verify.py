"""Verifier, exact determinants, and the bound suite."""

import math

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from cretan.constructions import (
    basic_family,
    conference_complex,
    from_values,
    kronecker_cretan,
    sbibd_two_level,
    sign_to_level,
)
from cretan.designs import fixture_difference_set, singer_difference_set
from cretan.hadamard import paley_conference, sylvester
from cretan.scalar import VERIFY_TOL, Scalar
from cretan.verify import (
    bareiss_det,
    check_det_identity,
    det_bounds,
    exact_abs_det,
    log_abs_det,
    verify_complex,
    verify_cretan,
)


def test_bareiss_small():
    assert bareiss_det([[1, 2], [3, 4]]) == -2
    assert bareiss_det([[0, 1], [1, 0]]) == -1      # pivot swap
    assert bareiss_det([[1, 1], [1, 1]]) == 0
    assert bareiss_det([[5]]) == 5


#SBIBD determinant k (k-lam)^((v-1)/2) = 4 * 3^6
def test_bareiss_design_determinant():
    sb = singer_difference_set(2, 3).develop()
    assert abs(bareiss_det(sb.incidence.tolist())) == 2916


def test_log_abs_det_exact_vs_float():
    sb = singer_difference_set(2, 3).develop()
    vals = [[Scalar(int(x)) for x in row] for row in sb.incidence]
    M = from_values(vals, Scalar(1), "incidence")
    assert abs(log_abs_det(M) - math.log(2916)) < 1e-12
    assert exact_abs_det(M) == 2916


def test_log_abs_det_singular():
    vals = [[Scalar(1), Scalar(1)], [Scalar(1), Scalar(1)]]
    M = from_values(vals, Scalar(2), "ones")
    assert log_abs_det(M) == float("-inf")


def test_det_identity_exact_for_hadamard():
    rep = check_det_identity(sign_to_level(sylvester(4)))
    assert rep.exact_zero and rep.residual == 0.0


#omega = 81/4 at order 45: |det| = (9/2)^45 is rational
def test_det_identity_exact_order_45():
    sb = fixture_difference_set("45-12-3").develop()
    M = sbibd_two_level(sb)[0]
    rep = check_det_identity(M)
    assert rep.exact_zero
    from fractions import Fraction
    assert exact_abs_det(M) == Fraction(9, 2) ** 45


def test_det_identity_float_path_quadratic_levels():
    M = sbibd_two_level(singer_difference_set(2, 3).develop())[0]
    rep = check_det_identity(M)
    assert not rep.exact_zero
    assert rep.residual < 1e-9


def test_det_identity_large_order_uses_float():
    sb = fixture_difference_set("45-12-3").develop()
    M45 = sbibd_two_level(sb)[0]
    big = kronecker_cretan(M45, basic_family(4))   # order 180
    rep = check_det_identity(big)
    assert not rep.exact_zero
    assert rep.residual < 1e-6


#bound oracles, recomputed by hand
def test_bounds_oracles():
    b9 = det_bounds(9)
    assert b9.hadamard_exact == 19683
    assert b9.barba_exact is None
    assert abs(b9.barba_value - 16888.2407) < 0.01
    assert b9.brent_osborn_exact == 10 ** 4

    b10 = det_bounds(10)
    assert b10.wojtas_exact == 73728
    assert math.isclose(b10.wojtas_log, math.log(73728))

    b13 = det_bounds(13)
    assert b13.barba_exact == 5 * 12 ** 6 == 14929920

    b4 = det_bounds(4)
    assert b4.hadamard_exact == 16
    assert b4.barba_log is None and b4.wojtas_log is None

    b1 = det_bounds(1)
    assert b1.hadamard_exact == 1 and b1.barba_exact == 1


def test_bounds_dominance():
    for n in range(3, 200, 2):
        b = det_bounds(n)
        assert b.barba_log < b.hadamard_log
        assert b.brent_osborn_log <= b.hadamard_log + 1e-12
    for n in range(6, 200, 4):
        b = det_bounds(n)
        assert b.wojtas_log < b.hadamard_log


def test_bounds_large_order_overflow_safe():
    b = det_bounds(302)
    assert b.wojtas_exact > 0
    assert b.wojtas_log > 0
    assert b.hadamard_value is None
    with pytest.raises(ValueError):
        det_bounds(0)


def identity_matrix(n):
    vals = [[Scalar(1 if i == j else 0) for j in range(n)]
            for i in range(n)]
    return from_values(vals, Scalar(1), "identity")


def test_verify_identity_strict():
    cert = verify_cretan(identity_matrix(5))
    assert cert.passed and cert.strict and cert.relaxed
    assert cert.omega == Scalar(1) and cert.tau == 2
    assert cert.gram_exact and cert.det.exact_zero


def test_verify_recomputes_omega():
    M = basic_family(5)
    assert verify_cretan(M).omega == Scalar(25, 0, 0, 9)
    lying = from_values([[M.entry(i, j) for j in range(5)]
                         for i in range(5)], Scalar(3), "basic")
    cert = verify_cretan(lying)
    assert not cert.omega_claim_ok and not cert.relaxed
    assert cert.omega == Scalar(25, 0, 0, 9)


def test_verify_rejects_modulus_violation():
    vals = [[Scalar(2), Scalar(0)], [Scalar(0), Scalar(2)]]
    cert = verify_cretan(from_values(vals, Scalar(4), "scaled"))
    assert not cert.moduli_ok and not cert.relaxed
    assert cert.gram_exact          # orthogonality itself is fine


def test_verify_non_orthogonal_fails():
    vals = [[Scalar(1), Scalar(1)], [Scalar(0), Scalar(1)]]
    cert = verify_cretan(from_values(vals, Scalar(1), "upper"))
    assert not cert.relaxed and not cert.passed


def test_verify_float_tolerance():
    base = basic_family(5).to_float_array()
    base[2, 3] += 1e-6
    vals = [[Scalar.from_float(float(x)) for x in row] for row in base]
    M = from_values(vals, Scalar.from_float(25 / 9), "perturbed")
    assert not verify_cretan(M, mode="relaxed").relaxed
    loose = verify_cretan(M, mode="relaxed", tolerance=1e-3)
    assert loose.relaxed and loose.max_offdiag > 0


def test_verify_mode_picks_verdict():
    M = basic_family(6)
    strict = verify_cretan(M, mode="strict")
    relaxed = verify_cretan(M, mode="relaxed")
    assert strict.passed and relaxed.passed
    with pytest.raises(ValueError):
        verify_cretan(M, mode="loose")


def test_verify_hadamard_equivalence_invariant():
    rng = np.random.default_rng(20260825)
    H = sylvester(3).entries
    for _ in range(20):
        P = rng.permutation(8)
        Q = rng.permutation(8)
        r = rng.choice([-1, 1], size=8)
        c = rng.choice([-1, 1], size=8)
        A = (H[P][:, Q] * r[:, None]) * c[None, :]
        vals = [[Scalar(int(x)) for x in row] for row in A]
        cert = verify_cretan(from_values(vals, Scalar(8), "equiv"))
        assert cert.strict and cert.gram_exact
        assert cert.omega == Scalar(8) and cert.tau == 2


def test_verify_summary_rows():
    cert = verify_cretan(basic_family(9))
    rows = dict(cert.summary_rows())
    assert rows["order"] == "9"
    assert rows["strict"] == "pass"
    assert "81/49" in rows["radius"]


def test_verify_complex_conference():
    B = conference_complex(paley_conference(5))
    assert verify_complex(B)
    B.entries[0, 1] += 1e-6
    assert not verify_complex(B)


# -- the exact Gram kernel against an independent oracle ----------------------

def _sym(x):
    return (sympy.Integer(x.p) + x.q * sympy.sqrt(x.d)) / x.r


def _oracle_omega(values):
    """omega when S S^T = S^T S = omega I in sympy arithmetic, else None."""
    S = sympy.Matrix([[_sym(x) for x in row] for row in values])
    n = S.rows
    omegas = []
    for G in (S * S.T, S.T * S):
        G = G.applyfunc(sympy.expand)
        w = G[0, 0]
        if any(G[i, j] != (w if i == j else 0)
               for i in range(n) for j in range(n)):
            return None
        omegas.append(w)
    assert omegas[0] == omegas[1]
    return omegas[0]


@st.composite
def _level_matrices(draw):
    """Small square matrices over one Q(sqrt d): Cretan ones (a scaled
    Hadamard or basic-family matrix, possibly Kronecker-multiplied, under
    a random signed permutation), such matrices with one entry changed,
    and matrices with random entries."""
    d = draw(st.sampled_from((2, 3, 5, 37)))
    # denominators near 2^31 push the kernel past float64
    denoms = st.one_of(st.integers(1, 12),
                       st.integers(2 ** 31, 2 ** 31 + 64))
    scalars = st.builds(lambda p, q, r: Scalar(p, q, d, r),
                        st.integers(-9, 9), st.integers(-3, 3), denoms)
    kind = draw(st.sampled_from(("cretan", "changed", "random")))
    if kind == "random":
        n = draw(st.integers(1, 8))
        pool = draw(st.lists(scalars, min_size=1, max_size=4))
        return [[draw(st.sampled_from(pool)) for _ in range(n)]
                for _ in range(n)]

    def base():
        u = draw(scalars.filter(lambda x: not x.is_zero()))
        shape = draw(st.sampled_from(("identity", "hadamard", "basic")))
        if shape == "identity":
            return [[u]]
        if shape == "hadamard":
            return [[u, u], [u, -u]]
        m = basic_family(draw(st.integers(4, 8)))
        return [[u * m.entry(i, j) for j in range(m.order)]
                for i in range(m.order)]

    A = base()
    if len(A) <= 4 and draw(st.booleans()):
        B = base()
        if len(A) * len(B) <= 8:
            A = [[a * b for a in ra for b in rb] for ra in A for rb in B]
    n = len(A)
    rows = draw(st.permutations(range(n)))
    cols = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=2 * n,
                          max_size=2 * n))
    out = [[A[rows[i]][cols[j]] * (signs[i] * signs[n + j])
            for j in range(n)] for i in range(n)]
    if kind == "changed":
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        out[i][j] = draw(scalars)
    return out


@settings(max_examples=100, deadline=None)
@given(_level_matrices())
def test_exact_gram_agrees_with_sympy(values):
    cert = verify_cretan(from_values(values, Scalar(1), "random"))
    want = _oracle_omega(values)
    assert cert.gram_exact == (want is not None)
    if want is not None:
        assert cert.mode == "exact"
        assert sympy.expand(_sym(cert.omega) - want) == 0


def test_exact_gram_checks_the_sqrt_part():
    one, r2 = Scalar(1), Scalar(0, 1, 2)
    # off-diagonal 2 sqrt(2): rational part zero, sqrt(2) part not
    cross = from_values([[one, r2], [r2, one]], Scalar(3), "cross")
    # diagonal 3 + 2 sqrt(2) and 3 - 2 sqrt(2): equal rational parts
    diag = from_values([[one + r2, Scalar(0)], [Scalar(0), one - r2]],
                       Scalar(3), "diag")
    for M in (cross, diag):
        assert _oracle_omega([[M.entry(i, j) for j in range(2)]
                              for i in range(2)]) is None
        assert not verify_cretan(M).gram_exact


def _rotation_square(m: int):
    """Kronecker square of the rational rotation [[a, -b], [b, a]] / c for
    the Pythagorean triple (m^2 - 1, 2m, m^2 + 1)."""
    a, b, c = m * m - 1, 2 * m, m * m + 1
    rot = [[Scalar(a, 0, 0, c), Scalar(-b, 0, 0, c)],
           [Scalar(b, 0, 0, c), Scalar(a, 0, 0, c)]]
    return [[rot[i // 2][j // 2] * rot[i % 2][j % 2] for j in range(4)]
            for i in range(4)]


# the common denominator is (m^2 + 1)^2, so n * max|coordinate|^2 is about
# 2^34 (float64 products) and 2^114 (Python-integer products)
@pytest.mark.parametrize("m", [2 ** 4, 2 ** 14])
def test_exact_gram_large_coordinates(m):
    values = _rotation_square(m)
    cert = verify_cretan(from_values(values, Scalar(1), "rotation"))
    assert cert.gram_exact and cert.mode == "exact"
    assert cert.omega == Scalar(1) and cert.relaxed

    x = values[0][0]
    values[0][0] = Scalar(x.p + 1, 0, 0, x.r)
    nudged = verify_cretan(from_values(values, Scalar(1), "nudged"))
    assert not nudged.gram_exact and nudged.mode == "float"


def test_exact_gram_sees_what_float64_cannot():
    values = _rotation_square(2 ** 14)
    exact = from_values(values, Scalar(1), "rotation")
    x = values[0][0]
    values[0][0] = Scalar(x.p + 1, 0, 0, x.r)
    nudged = from_values(values, Scalar(1), "nudged")
    # the change is about 2^-56, below the float64 spacing near 1
    assert np.array_equal(exact.to_float_array(), nudged.to_float_array())
    assert verify_cretan(exact).gram_exact
    cert = verify_cretan(nudged)
    assert not cert.gram_exact and cert.max_offdiag <= VERIFY_TOL


def test_mixed_radicands_fall_back_to_float():
    a, b = Scalar(0, 1, 10, 5), Scalar(0, 1, 15, 5)    # sqrt(10)/5, sqrt(15)/5
    M = from_values([[a, b], [b, -a]], Scalar(1), "mixed")
    assert M.mode == "exact"
    cert = verify_cretan(M, mode="relaxed")
    assert cert.mode == "float" and not cert.gram_exact
    assert cert.relaxed and abs(cert.omega.to_float() - 1) < 1e-12
