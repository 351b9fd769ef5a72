"""Verifier, exact determinants, and the bound suite."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from cretan.constructions import (
    LevelMatrix,
    basic_family,
    conference_complex,
    from_values,
    kronecker_cretan,
    regular_hadamard_border,
    sbibd_two_level,
    sign_to_level,
)
from cretan.designs import (
    fixture_difference_set,
    qr_difference_set,
    singer_difference_set,
)
from cretan.hadamard import paley_conference, regular_hadamard, sylvester
from cretan.scalar import REFINE_TOL, VERIFY_TOL, FloatLevel, Scalar
from cretan.catalog import catalog_table, construct_best
from cretan.verify import (
    ByDesign,
    ByFactors,
    _exact_gram_check,
    _lift,
    bareiss_det,
    check_det_identity,
    det_bounds,
    exact_abs_det,
    verify_complex,
    verify_cretan,
)


def sympy_det(rows) -> int:
    """Oracle: the determinant of an integer matrix, by sympy's matrices
    over ZZ (exact like sympy.Matrix.det, and much faster on the order-45
    catalog matrices)."""
    return int(DomainMatrix.from_list(rows, sympy.ZZ).det())


def test_bareiss_small():
    for rows, want in (([[1, 2], [3, 4]], -2),
                       ([[0, 1], [1, 0]], -1),      # pivot swap
                       ([[1, 1], [1, 1]], 0),
                       ([[5]], 5)):
        assert bareiss_det(rows) == sympy_det(rows) == want


#SBIBD determinant k (k-lam)^((v-1)/2) = 4 * 3^6
def test_bareiss_design_determinant():
    rows = singer_difference_set(2, 3).develop().incidence.tolist()
    assert abs(bareiss_det(rows)) == abs(sympy_det(rows)) == 2916


# -- the Bareiss determinant against sympy ------------------------------------

P0 = 2 ** 31 - 1      # a prime


def _agree(rows) -> int:
    want = sympy_det(rows)
    assert bareiss_det(rows) == want
    return want


def test_multimodular_det_random_orders_1_to_30():
    rng = np.random.default_rng(6)
    for n in range(1, 31):
        bound = (2, 1000, 2 ** 40)[n % 3]
        _agree(rng.integers(-bound, bound + 1, size=(n, n)).tolist())


def test_multimodular_det_singular():
    rng = np.random.default_rng(7)
    for n in (2, 5, 17):
        rows = rng.integers(-9, 10, size=(n, n)).tolist()
        rows[-1] = list(rows[0])                      # equal rows
        assert _agree(rows) == 0
        rows = rng.integers(-9, 10, size=(n, n)).tolist()
        for r in rows:
            r[n // 2] = 0                             # zero column
        assert _agree(rows) == 0
    assert _agree([[0, 0], [0, 0]]) == 0


def test_multimodular_det_zero_leading_pivot():
    assert _agree([[0, 1, 2], [3, 4, 5], [6, 7, 9]]) == -3
    assert _agree([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
    assert _agree([[0, 2], [0, 3]]) == 0
    # pivots and determinants that are multiples of the prime P0
    assert _agree([[1, 2, 0], [3, 6 + P0, 1], [0, 1, 1]]) == P0 - 1
    assert _agree([[1, 2], [3, 6 + P0]]) == P0
    assert _agree([[P0, 0], [0, P0]]) == P0 * P0
    assert _agree([[P0, 1], [P0, 1 + P0 * P0]]) == P0 ** 3


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: st.lists(
    st.lists(st.one_of(st.integers(-3, 3),
                       st.sampled_from((P0, -P0, 2 * P0, 2 ** 31,
                                        2 ** 63 + 1, -(2 ** 70) - 3))),
             min_size=n, max_size=n),
    min_size=n, max_size=n)))
def test_multimodular_det_matches_bareiss(rows):
    assert bareiss_det(rows) == sympy_det(rows)


def _sympy_abs_det(values):
    S = sympy.Matrix([[sympy.Rational(x.p, x.r) for x in row]
                      for row in values])
    return abs(S.det())


def test_exact_abs_det_large_numerators():
    # lifted numerators past 2^31 (a large denominator) and past 2^63;
    # at n = 12 the determinant's numerator (1158 bits) is past float
    # range, and its log is still read exactly off the ints
    rng = np.random.default_rng(8)
    big = (Scalar(1, 0, 0, 2 ** 31 + 11), Scalar(3, 0, 0, 7),
           Scalar(2 ** 64 + 13), Scalar(-(2 ** 70), 0, 0, 3), Scalar(-1))
    for n in (5, 9, 12):
        codes = rng.integers(0, len(big), size=(n, n))
        codes[0, :5] = range(5)          # every level appears
        values = [[big[i] for i in row] for row in codes]
        M = from_values(values, Scalar(1), "random")
        assert max(map(abs, _lift(M.levels)[0])) > 2 ** 63
        want = _sympy_abs_det(values)
        assert exact_abs_det(M) == want
        assert math.isclose(check_det_identity(M).log_abs_det,
                            float(sympy.log(want)), rel_tol=1e-14)


@pytest.fixture(scope="module")
def candidates_45():
    return [c.matrix for e in catalog_table(45).entries
            for c in e.candidates if c.matrix is not None]


def test_exact_abs_det_matches_bareiss_on_catalog_45(candidates_45):
    checked = 0
    for M in candidates_45:
        got = exact_abs_det(M)
        if M.mode != "exact" or not all(l.is_rational for l in M.levels):
            assert got is None
            continue
        P, _, _, R = _lift(M.levels)
        rows = np.array(P, dtype=object)[M.grid].tolist()
        assert got == Fraction(abs(sympy_det(rows)), R ** M.order)
        checked += 1
    assert checked >= 10


def test_lazy_det_and_bounds_match_eager(candidates_45, monkeypatch):
    import cretan.verify as verify

    calls = []
    real = verify.check_det_identity

    def counting(S, omega=None):
        calls.append(S.order)
        return real(S, omega)

    monkeypatch.setattr(verify, "check_det_identity", counting)
    for M in candidates_45:
        cert = verify_cretan(M, mode="relaxed")
        assert calls == []
        assert cert.det == real(M, cert.omega)
        assert cert.det is cert.det          # computed once, then kept
        assert cert.bounds == det_bounds(M.order)
        assert calls == [M.order]
        calls.clear()


def test_tau_counts_the_used_levels(candidates_45):
    for M in candidates_45:
        assert verify_cretan(M).tau == np.unique(M.grid).size


def test_log_abs_det_exact_vs_float():
    sb = singer_difference_set(2, 3).develop()
    vals = [[Scalar(int(x)) for x in row] for row in sb.incidence]
    M = from_values(vals, Scalar(1), "incidence")
    assert abs(check_det_identity(M).log_abs_det - math.log(2916)) < 1e-12
    assert exact_abs_det(M) == 2916


def test_log_abs_det_singular():
    vals = [[Scalar(1), Scalar(1)], [Scalar(1), Scalar(1)]]
    M = from_values(vals, Scalar(2), "ones")
    rep = check_det_identity(M)
    assert rep.log_abs_det == float("-inf")
    # one side of the identity is -inf: the gap is inf, not inf/inf
    assert rep.residual == math.inf and not rep.exact_zero
    floats = from_values([[FloatLevel(1.0)] * 2] * 2, FloatLevel(2.0), "f")
    assert check_det_identity(floats).residual == math.inf
    # omega 0 claims |det| = 0: a nonsingular matrix misses it by inf
    unit = from_values([[Scalar(1)]], Scalar(1), "unit")
    assert check_det_identity(unit, Scalar(0)).residual == math.inf
    # both sides -inf: the all-zero matrix with omega 0 is exact
    Z = from_values([[Scalar(0)] * 2] * 2, Scalar(0), "zero")
    rep = check_det_identity(Z)
    assert rep.exact_zero and rep.residual == 0.0
    assert rep.log_abs_det == rep.expected_log == float("-inf")


def test_det_identity_exact_for_hadamard():
    rep = check_det_identity(sign_to_level(sylvester(4)))
    assert rep.exact_zero and rep.residual == 0.0


#omega = 81/4 at order 45: |det| = (9/2)^45 is rational
def test_det_identity_exact_order_45():
    sb = fixture_difference_set("45-12-3").develop()
    M = sbibd_two_level(sb)[0]
    rep = check_det_identity(M)
    assert rep.exact_zero
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


def test_strict_needs_a_unit_in_every_row_and_every_column():
    # M M^T = 2 I over Q(sqrt 2), with h = sqrt(2)/2: every row holds a 1,
    # columns 2 and 3 hold none; M^T is the same with rows and columns
    # exchanged, and M^T M = 2 I as well
    h, z, one = Scalar(0, 1, 2, 2), Scalar(0), Scalar(1)
    M = [[one, z, h, h], [one, z, -h, -h],
         [z, one, h, -h], [z, one, -h, h]]
    for rows in (M, [list(col) for col in zip(*M)]):
        cert = verify_cretan(from_values(rows, Scalar(2), "test"))
        assert cert.relaxed and cert.gram_exact and cert.moduli_ok
        assert not cert.strict and not cert.passed


def test_verify_recomputes_omega():
    M = basic_family(5)
    assert verify_cretan(M).omega == Scalar(25, 0, 0, 9)
    lying = from_values([[M.levels[M.grid[i, j]] for j in range(5)]
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
    vals = [[FloatLevel(float(x)) for x in row] for row in base]
    M = from_values(vals, FloatLevel(25 / 9), "perturbed")
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


def test_float_gram_is_one_sided():
    mats = [c.matrix for e in catalog_table(199).entries
            for c in e.candidates
            if c.certificate and c.certificate.gram_path.startswith("float")]
    assert mats
    # CM(77; 4) over Q(sqrt 2) x Q(sqrt 3), checked in float
    mats.append(kronecker_cretan(
        sbibd_two_level(qr_difference_set(7).develop())[0],
        sbibd_two_level(qr_difference_set(11).develop())[0]))
    for S in mats:
        cert = verify_cretan(S, mode="relaxed")
        A = S.to_float_array()
        n = S.order
        resid = [float(np.abs(G - G.diagonal().mean() * np.eye(n)).max())
                 for G in (A @ A.T, A.T @ A)]
        assert cert.max_offdiag == resid[0]
        # verdicts as if both sides were checked
        relaxed = (cert.moduli_ok and cert.omega_claim_ok
                   and max(resid) <= VERIFY_TOL)
        units = np.abs(np.abs(A) - 1) <= REFINE_TOL
        strict = relaxed and units.any(axis=0).all() \
            and units.any(axis=1).all()
        assert (cert.relaxed, cert.strict) == (relaxed, strict)


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
    matrices with random entries, and P + sqrt(d) c Q with P a rational
    Cretan base, Q a signed permutation and c rational: its rational Gram
    part P P^T + d c^2 I passes, and only the sqrt part
    c (P Q^T + Q P^T) can fail."""
    d = draw(st.sampled_from((2, 3, 5, 37)))
    # denominators near 2^31 push the kernel past float64
    denoms = st.one_of(st.integers(1, 12),
                       st.integers(2 ** 31, 2 ** 31 + 64))
    scalars = st.builds(lambda p, q, r: Scalar(p, q, d, r),
                        st.integers(-9, 9), st.integers(-3, 3), denoms)
    kind = draw(st.sampled_from(("cretan", "changed", "random", "sqrt")))
    if kind == "random":
        n = draw(st.integers(1, 8))
        pool = draw(st.lists(scalars, min_size=1, max_size=4))
        return [[draw(st.sampled_from(pool)) for _ in range(n)]
                for _ in range(n)]

    def base(units):
        u = draw(units.filter(lambda x: not x.is_zero()))
        shape = draw(st.sampled_from(("identity", "hadamard", "basic")))
        if shape == "identity":
            return [[u]]
        if shape == "hadamard":
            return [[u, u], [u, -u]]
        m = basic_family(draw(st.integers(4, 8)))
        return [[u * m.levels[m.grid[i, j]] for j in range(m.order)]
                for i in range(m.order)]

    if kind == "sqrt":
        P = base(st.builds(lambda p, r: Scalar(p, 0, 0, r),
                           st.integers(-9, 9), denoms))
        n = len(P)
        perm = draw(st.permutations(range(n)))
        c = draw(st.builds(lambda p, r: Scalar(p, 0, 0, r),
                           st.integers(-3, 3).filter(bool),
                           st.integers(1, 4)))
        c = Scalar(0, 1, d) * c
        for i in range(n):
            P[i][perm[i]] += c * draw(st.sampled_from((1, -1)))
        return P

    A = base(scalars)
    if len(A) <= 4 and draw(st.booleans()):
        B = base(scalars)
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


_ONE, _R2 = Scalar(1), Scalar(0, 1, 2)
# off-diagonal 2 sqrt(2): rational part zero, sqrt(2) part not
_CROSS = [[_ONE, _R2], [_R2, _ONE]]
# diagonal 3 + 2 sqrt(2) and 3 - 2 sqrt(2): equal rational parts
_DIAG = [[_ONE + _R2, Scalar(0)], [Scalar(0), _ONE - _R2]]


@settings(max_examples=100, deadline=None)
@given(_level_matrices())
@example(_CROSS)
@example(_DIAG)
def test_exact_gram_agrees_with_sympy(values):
    cert = verify_cretan(from_values(values, Scalar(1), "random"))
    want = _oracle_omega(values)
    assert cert.gram_exact == (want is not None)
    # one field, so no float fallback can pass what the oracle rejects
    assert cert.relaxed <= cert.gram_exact
    if want is not None:
        assert cert.mode == "exact"
        assert sympy.expand(_sym(cert.omega) - want) == 0


def test_exact_gram_checks_the_sqrt_part():
    for values in (_CROSS, _DIAG):
        assert _oracle_omega(values) is None
        assert not verify_cretan(from_values(values, Scalar(3),
                                             "sqrt")).gram_exact


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
    # a failed exact check is final, whatever the float residual
    assert not nudged.relaxed and not nudged.strict


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
    assert not cert.relaxed and not cert.strict


# -- the lift's kernel at the float32 bound -----------------------------------

def _quaternion(big: int, r: int, d: int = 0):
    """The quaternion array of (big, 5 or 5 sqrt d, 3, 1) / r, whose Gram
    matrix is (sum of the squares) I.  The numerators are prime to r, so
    the lift has R = r and max |P|, |Q| = big, and n big^2 = 4 big^2."""
    a, b, c, e = (Scalar(big, 0, 0, r),
                  Scalar(0, 5, d, r) if d else Scalar(5, 0, 0, r),
                  Scalar(3, 0, 0, r), Scalar(1, 0, 0, r))
    return [[a, b, c, e], [-b, a, -e, c], [-c, e, a, -b], [-e, -c, b, a]]


# 4 * 2047^2 = 2^24 - 16420 and 4 * 2048^2 = 2^24
@pytest.mark.parametrize("big, r, d, path", [
    (2047, 2048, 0, "lift-float32"),
    (2048, 2049, 0, "lift-float64"),
    (2047, 2048, 2, "lift-float32"),
    (2048, 2049, 2, "lift-float64"),
])
def test_lift_kernel_at_the_float32_bound(big, r, d, path):
    values = _quaternion(big, r, d)
    cert = verify_cretan(from_values(values, Scalar(1), "quaternion"))
    assert cert.gram_path == path and cert.gram_exact
    assert sympy.expand(_sym(cert.omega) - _oracle_omega(values)) == 0
    # one flipped sign makes rows 0 and 1 meet at -2 b a
    values[0][1] = -values[0][1]
    assert _oracle_omega(values) is None
    flipped = verify_cretan(from_values(values, Scalar(1), "flipped"))
    assert flipped.gram_path == path and not flipped.gram_exact
    assert not flipped.relaxed


@settings(max_examples=40, deadline=None)
@given(st.integers(1990, 2100), st.sampled_from((0, 2, 3)),
       st.integers(0, 3), st.integers(0, 4))
@example(2047, 0, 0, 4)
@example(2048, 0, 1, 1)
def test_lift_kernel_bound_agrees_with_sympy(big, d, i, j):
    """The quaternion array, with entry (i, j) raised by 1/r when j < 4;
    the kernel follows B = n (max|P|^2 + d max|Q|^2) < 2^24, the verdict
    sympy."""
    r = 2 ** 12 + 1 if big % 2 == 0 else 2 ** 12
    values = _quaternion(big, r, d)
    if j < 4:
        values[i][j] = values[i][j] + Scalar(1, 0, 0, r)
    cert = verify_cretan(from_values(values, Scalar(1), "quaternion"))
    P, Q, _, R = _lift(cert.matrix.levels)
    bp, bq = max(map(abs, P)), max(map(abs, Q))
    assert R == r
    assert cert.gram_path == ("lift-float32"
                              if 4 * (bp * bp + d * bq * bq) < 2 ** 24
                              else "lift-float64")
    want = _oracle_omega(values)
    assert cert.gram_exact == (want is not None)
    if want is not None:
        assert sympy.expand(_sym(cert.omega) - want) == 0


def test_float32_bound_keeps_a_rounded_off_diagonal():
    # 2^24 + 1 is no float32: rounded to 2^24, the rows (2^24, 1) and
    # (-1, 2^24) are orthogonal with equal norms 2^48 + 1, itself rounded
    # to 2^48, in any summation order; a float32 kernel run past its bound
    # would pass the matrix, whose exact off-diagonal is -1
    N = 2 ** 24
    rows = [[N + 1, 1], [-1, N]]
    rounded = np.array(rows, dtype=np.float32)
    assert np.array_equal(rounded @ rounded.T, np.diag([2.0 ** 48] * 2))
    exact = np.array(rows, dtype=object)
    assert (exact @ exact.T)[0, 1] == -1
    cert = verify_cretan(from_values([[Scalar(x) for x in row]
                                      for row in rows],
                                     Scalar(N * N), "rounded"))
    assert cert.gram_path == "lift-float64" and not cert.gram_exact
    assert not cert.relaxed


def test_float32_products_are_combined_in_float64():
    # diag(B(1), B(0)) with B(a) = [[a, b], [-b, a]] and b = 2047 sqrt 7
    # has orthogonal rows of norms 7 * 2047^2 + 1 and 7 * 2047^2, both
    # above 2^24, where a float32 sum would round both norms to one value.
    # Each product's partial sums stay below 4 * 2047^2 < 2^24, but B =
    # 4 (1 + 7 * 2047^2) > 2^24 bounds the combination too, so the whole
    # lift runs in float64.
    q = np.float32(7) * np.float32(2047 ** 2)
    assert q + np.float32(1) == q
    b, zero = Scalar(0, 2047, 7), Scalar(0)
    values = [[Scalar(1), b, zero, zero], [-b, Scalar(1), zero, zero],
              [zero, zero, zero, b], [zero, zero, -b, zero]]
    assert _oracle_omega(values) is None
    cert = verify_cretan(from_values(values, Scalar(1), "two norms"))
    assert cert.gram_path == "lift-float64" and not cert.gram_exact
    assert not cert.relaxed


# c H for the order-4 Hadamard matrix H and c = (p + q sqrt d) / 4097:
# the lift has bp = p and bq = q, and every row meets the bound, since
# R^2 S S^T = 4 (p^2 + d q^2) I + 8 p q sqrt(d) I, with B = 4 (p^2 +
# d q^2).  The last two cases put the sqrt part 8 p q near 2^24, where B
# is far above it.
@pytest.mark.parametrize("p, q, d, path", [
    pytest.param(2047, 1, 4094, "lift-float32",      # B = 2^24 - 4
                 id="2047-1-4094"),
    pytest.param(2047, 1, 4097, "lift-float64",      # B = 2^24 + 8
                 id="2047-1-4097"),
    pytest.param(1182, 1182, 2, "lift-float32",      # B = 2^24 - 11728
                 id="1182-1182-2"),
    pytest.param(1183, 1183, 2, "lift-float64",      # B = 2^24 + 16652
                 id="1183-1183-2"),
    pytest.param(1448, 1448, 2, "lift-float64",      # 8 p q = 2^24 - 3584
                 id="1448-1448-2"),
    pytest.param(1449, 1449, 2, "lift-float64",      # 8 p q = 2^24 + 19592
                 id="1449-1449-2"),
])
def test_float32_combination_at_its_bound(p, q, d, path):
    c = Scalar(p, q, d, 4097)
    values = [[c if h > 0 else -c for h in row]
              for row in sylvester(2).entries]
    S = from_values(values, 4 * c * c, "scaled hadamard")
    P, Q, _, R = _lift(S.levels)
    assert (max(map(abs, P)), max(map(abs, Q)), R) == (p, q, 4097)
    assert (4 * (p * p + d * q * q) < 2 ** 24) == (path == "lift-float32")
    omega, got = _exact_gram_check(S)
    assert got == verify_cretan(S).gram_path == path
    assert sympy.expand(_sym(omega) - _oracle_omega(values)) == 0
    # one flipped entry makes row 0 meet every other row at +-2 c^2
    values[0][0] = -c
    flipped = from_values(values, 4 * c * c, "flipped")
    assert _oracle_omega(values) is None
    assert _exact_gram_check(flipped) == (None, path)
    assert verify_cretan(flipped).gram_path == path


def test_lift_kernel_float64_below_its_bound():
    # the quaternion array with a = (2^24 + 1) / 2^25 and b = 5 sqrt 7 /
    # 2^25: B = 4 ((2^24 + 1)^2 + 7 * 25) < 2^53 although (d + 1) n
    # max|P, Q|^2 = 32 (2^24 + 1)^2 > 2^53, and every entry of the Gram
    # matrix is an integer above 2^50
    big, r = 2 ** 24 + 1, 2 ** 25
    values = _quaternion(big, r, 7)
    assert 4 * (big * big + 7 * 25) < 2 ** 53 <= 8 * 4 * big * big
    cert = verify_cretan(from_values(values, Scalar(1), "quaternion"))
    assert cert.gram_path == "lift-float64" and cert.gram_exact
    assert sympy.expand(_sym(cert.omega) - _oracle_omega(values)) == 0
    # one flipped sign makes rows 0 and 1 meet at -2 b a, a sqrt(7) part
    values[0][1] = -values[0][1]
    assert _oracle_omega(values) is None
    flipped = verify_cretan(from_values(values, Scalar(1), "flipped"))
    assert flipped.gram_path == "lift-float64" and not flipped.gram_exact
    assert not flipped.relaxed


def test_failed_exact_gram_fails_both_verdicts():
    near = Scalar(-999999999999, 0, 0, 10 ** 12)
    M = from_values([[Scalar(1), Scalar(1)], [Scalar(1), near]],
                    Scalar(2), "near")
    cert = verify_cretan(M)
    assert cert.mode == "float" and not cert.gram_exact
    assert 0 < cert.max_offdiag <= VERIFY_TOL
    assert cert.omega == FloatLevel(1.999999999999)
    assert cert.moduli_ok and cert.omega_claim_ok
    assert not cert.relaxed and not cert.strict and not cert.passed


def test_mixed_radicands_fall_back_to_float():
    a, b = Scalar(0, 1, 10, 5), Scalar(0, 1, 15, 5)    # sqrt(10)/5, sqrt(15)/5
    M = from_values([[a, b], [b, -a]], Scalar(1), "mixed")
    assert M.mode == "exact"
    cert = verify_cretan(M, mode="relaxed")
    assert cert.mode == "float" and not cert.gram_exact
    assert cert.relaxed and abs(cert.omega.to_float() - 1) < 1e-12


# -- structural Gram proofs against the lift ----------------------------------

def _verdict(cert):
    return (cert.omega, cert.mode, cert.gram_exact, cert.max_offdiag,
            cert.omega_claim_ok, cert.tau, cert.strict, cert.relaxed)


def _with_grid(S, grid):
    return LevelMatrix(S.order, S.levels, grid, S.omega, S.method)


def _flipped(S, i=0, j=1):
    grid = S.grid.copy()
    grid[i, j] = (grid[i, j] + 1) % S.tau
    return _with_grid(S, grid)


def _product(a: int, b: int):
    left, right = construct_best(a).best, construct_best(b).best
    return (kronecker_cretan(left.matrix, right.matrix),
            ByFactors(left.certificate, right.certificate))


def _paley_7():
    sb = qr_difference_set(7).develop()
    return sbibd_two_level(sb)[0], ByDesign(sb.incidence, sb.k, sb.lam)


def _basic_9():
    return basic_family(9), ByDesign(np.eye(9, dtype=np.int8), 1, 0)


def _unit_1():
    # X = J = I at v = 1 (k = v = 1, lam = 0): the level 0 goes unused
    ones = np.ones((1, 1), dtype=np.int8)
    return (LevelMatrix(1, (Scalar(0), Scalar(1)), ones.astype(np.int16),
                        Scalar(1), "unit"), ByDesign(ones, 1, 0))


@pytest.mark.parametrize("build, path", [
    (lambda: _product(3, 5), "by-factors"),
    (lambda: _product(3, 7), "by-factors"),
    (_paley_7, "by-design"),
    (_basic_9, "by-design"),
    (_unit_1, "by-design"),
])
def test_proof_agrees_with_lift(build, path):
    S, proof = build()
    cert = verify_cretan(S, gram=proof)
    assert cert.gram_path == path and cert.strict
    lift = verify_cretan(S)
    assert lift.gram_path == "lift-float32"
    assert _verdict(cert) == _verdict(lift)


def _mutants():
    """(name, S, proof, whether S is Cretan) with a proof that fails a
    check; a proof that misses a Cretan matrix leaves it to the lift."""
    S, proof = _product(3, 7)
    yield "flipped product entry", _flipped(S), proof, False
    yield "factor not exact", S, ByFactors(
        dataclasses.replace(proof.left, gram_exact=False), proof.right), True
    yield "factors swapped", S, ByFactors(proof.right, proof.left), True
    S, proof = _paley_7()
    b = S.levels[0]
    yield "perturbed b", LevelMatrix(
        S.order, (b + Scalar(1, 0, 0, 1000), Scalar(1)), S.grid, S.omega,
        S.method), proof, False
    yield "top level not 1", LevelMatrix(
        S.order, (b, Scalar(99, 0, 0, 100)), S.grid, S.omega, S.method), \
        proof, False
    yield "flipped design entry", _flipped(S, 2, 3), proof, False
    yield "other incidence", S, ByDesign(np.roll(S.grid, 1, axis=0),
                                         proof.k, proof.lam), True
    yield "all-ones incidence (k = v)", _with_grid(
        S, np.ones_like(S.grid)), ByDesign(np.ones_like(S.grid), 7, 7), False
    S, proof = _basic_9()
    yield "flipped identity", _flipped(S, 0, 0), proof, False


@pytest.mark.parametrize("name, S, proof, cretan", list(_mutants()),
                         ids=[m[0] for m in _mutants()])
def test_failed_proof_gives_the_lift_verdict(name, S, proof, cretan):
    cert = verify_cretan(S, mode="relaxed", gram=proof)
    assert cert.gram_path == "lift-float32"
    assert _verdict(cert) == _verdict(verify_cretan(S, mode="relaxed"))
    assert cert.relaxed == cretan


def test_all_ones_mutant_has_one_level():
    name, S, proof, _ = [m for m in _mutants() if "k = v" in m[0]][0]
    assert verify_cretan(S, gram=proof).tau == 1


def test_product_of_a_relaxed_factor_is_relaxed():
    # the border of the order-4 regular Hadamard matrix has no unit in
    # its core rows, so the product has rows without a unit too
    R = regular_hadamard_border(regular_hadamard(1))
    P, _ = _paley_7()
    S = kronecker_cretan(R, P)
    proof = ByFactors(verify_cretan(R, mode="relaxed"),
                      verify_cretan(P, mode="relaxed"))
    cert = verify_cretan(S, mode="relaxed", gram=proof)
    assert cert.gram_path == "by-factors" and S._grid is None
    # levels {-1/2, 0, 1/2, 1} x {b, 1}: 0 b and 0 1 merge
    assert cert.relaxed and not cert.strict and cert.tau == 7
    assert _verdict(cert) == _verdict(verify_cretan(S, mode="relaxed"))


def test_by_factors_declines_a_product_across_fields():
    a = sbibd_two_level(singer_difference_set(2, 3).develop())[0]  # sqrt 3
    b = sbibd_two_level(qr_difference_set(7).develop())[0]         # sqrt 2
    S = kronecker_cretan(a, b)
    proof = ByFactors(verify_cretan(a), verify_cretan(b))
    assert S.mode == "float"
    cert = verify_cretan(S, mode="relaxed", gram=proof)
    assert cert.gram_path == "float: float levels" and cert.relaxed


@pytest.mark.parametrize("a, b", [(3, 5), (3, 7)])
def test_by_factors_omega_matches_sympy(a, b):
    S, proof = _product(a, b)
    cert = verify_cretan(S, gram=proof)
    assert cert.gram_path == "by-factors"
    values = [[S.levels[S.grid[i, j]] for j in range(S.order)]
              for i in range(S.order)]
    assert sympy.expand(_sym(cert.omega) - _oracle_omega(values)) == 0


def test_gram_path_names_the_float_reason():
    a, b = Scalar(0, 1, 10, 5), Scalar(0, 1, 15, 5)    # sqrt(10)/5, sqrt(15)/5
    M = from_values([[a, b], [b, -a]], Scalar(1), "mixed")
    assert verify_cretan(M).gram_path == \
        "float: levels span sqrt(10) and sqrt(15)"
    F = from_values([[FloatLevel(0.6), Scalar(1)],
                     [Scalar(1), FloatLevel(-0.6)]],
                    FloatLevel(1.36), "float")
    assert verify_cretan(F).gram_path == "float: float levels"
    # a proof is not tried on a float matrix
    assert verify_cretan(F, gram=ByDesign(np.eye(2), 1, 0)).gram_path == \
        "float: float levels"
    I = from_values([[Scalar(1), Scalar(0)], [Scalar(0), Scalar(1)]],
                    FloatLevel(1.0), "float omega")
    assert verify_cretan(I).gram_path == "float: float omega"
    big = verify_cretan(from_values(_rotation_square(2 ** 14), Scalar(1),
                                    "rotation"))
    assert big.gram_path == "lift-object" and big.gram_exact
