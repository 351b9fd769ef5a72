"""Construction layer: level matrices from designs, borders, products."""

import math

import numpy as np
import pytest
import sympy

from cretan.constructions import (
    BLAS_MAX_GROUP,
    STAR,
    ComplexLevelMatrix,
    GroupCensusReport,
    GroupMatrix,
    ModulusViolation,
    basic_family,
    bordered_solver,
    characteristic_roots,
    conference_complex,
    direct_sum,
    from_codes,
    from_values,
    gh_from_field,
    gh_to_complex,
    gh_z3_order6,
    gw_z3_order5,
    group_orthogonality_check,
    kron_pair_codes,
    kronecker_cretan,
    regular_hadamard_border,
    sbibd_two_level,
    sign_to_level,
)
from cretan.designs import (
    Sbibd,
    biquadratic_difference_set,
    build_family,
    fixture_difference_set,
    qr_difference_set,
    registered_designs,
    singer_difference_set,
)
from cretan.fields import factor_prime_power, is_prime_power, make_field
from cretan.files import serialize_matrix
from cretan.hadamard import paley_conference, regular_hadamard, sylvester
from cretan import catalog
from cretan.catalog import catalog_table, construct_best
from cretan.scalar import (
    FloatLevel,
    IncompatibleRadicands,
    Scalar,
    parse_scalar,
)
from cretan.verify import verify_complex, verify_cretan
from test_fields import poly_mul, poly_trace


def sb321():
    return qr_difference_set(3).develop().complement()


# off-diagonal entry is -2/(n-2), rechecked by hand
def test_basic_family_values():
    m7 = basic_family(7)
    assert m7.omega == Scalar(49, 0, 0, 25)
    assert m7.levels == (Scalar(-2, 0, 0, 5), Scalar(1))
    assert basic_family(9).omega == Scalar(81, 0, 0, 49)
    m4 = basic_family(4)
    assert m4.omega == Scalar(4)
    assert m4.levels[0] == Scalar(-1)


def test_basic_family_errors():
    with pytest.raises(ModulusViolation):
        basic_family(3)
    with pytest.raises(ValueError):
        basic_family(2)


def test_basic_family_verifies_strict():
    cert = verify_cretan(basic_family(9))
    assert cert.strict and cert.gram_exact
    assert cert.omega == Scalar(81, 0, 0, 49)
    assert cert.tau == 2


#roots of 3 + 18 b + 24 b^2 are -1/2 and -1/4
def test_two_level_45_12_3():
    sb = fixture_difference_set("45-12-3").develop()
    mats = sbibd_two_level(sb)
    assert [m.omega for m in mats] == [Scalar(81, 0, 0, 4),
                                       Scalar(225, 0, 0, 16)]
    for m in mats:
        cert = verify_cretan(m)
        assert cert.strict and cert.gram_exact


#b = -(3+sqrt 3)/6 gives omega = 7 + (3/2) sqrt 3 ~ 9.598
def test_two_level_13_4_1():
    sb = singer_difference_set(2, 3).develop()
    mats = sbibd_two_level(sb)
    assert len(mats) == 2
    assert mats[0].omega == Scalar(14, 3, 3, 2)
    assert abs(mats[0].omega.to_float() - 9.598076211353316) < 1e-12
    assert mats[0].levels[0] == Scalar(-3, -1, 3, 6)
    cert = verify_cretan(mats[0])
    assert cert.strict and cert.gram_exact


def test_two_level_degenerate_3_2_1():
    mats = sbibd_two_level(sb321())
    assert len(mats) == 1
    assert mats[0].levels[0] == Scalar(-1, 0, 0, 2)
    assert mats[0].omega == Scalar(9, 0, 0, 4)
    assert verify_cretan(mats[0]).strict


def test_two_level_complements_are_empty():
    for ds in (biquadratic_difference_set(37),
               fixture_difference_set("45-12-3")):
        assert sbibd_two_level(ds.develop().complement()) == []


def test_two_level_keeps_b_below_one_on_the_incidence_grid():
    # the quadratic is v at b = 1, so no kept root reaches the level 1
    designs = [build_family(fam, **kw).develop()
               for _, _, _, fam, kw in registered_designs()]
    designs += [qr_difference_set(q).develop() for q in range(3, 200, 4)
                if is_prime_power(q)]
    built = 0
    for sb in designs + [d.complement() for d in designs]:
        for m in sbibd_two_level(sb):
            b, one = m.levels
            assert one == Scalar(1) and b < one
            assert np.array_equal(m.grid, sb.incidence)
            built += 1
    assert built >= len(designs)


def test_characteristic_root_substitution_is_exact_zero():
    for v, k, lam in [(13, 4, 1), (45, 12, 3), (37, 9, 2), (7, 3, 1)]:
        for b in characteristic_roots(v, k, lam):
            val = Scalar(lam) + 2 * (k - lam) * b \
                + (v - 2 * k + lam) * b * b
            assert val.is_zero()


def test_regular_hadamard_border_small():
    m = regular_hadamard_border(regular_hadamard(1))
    assert m.order == 5 and m.omega == Scalar(1) and m.tau == 4
    assert m.levels == (Scalar(-1, 0, 0, 2), Scalar(0),
                        Scalar(1, 0, 0, 2), Scalar(1))
    cert = verify_cretan(m, mode="relaxed")
    assert cert.relaxed and not cert.strict and cert.gram_exact


def test_regular_hadamard_border_37():
    m = regular_hadamard_border(regular_hadamard(3))
    assert m.order == 37 and m.omega == Scalar(1)
    assert "relaxed" in m.notes
    assert verify_cretan(m, mode="relaxed").passed


def test_border_requires_regular_core():
    with pytest.raises(ValueError):
        regular_hadamard_border(sylvester(2))


def brute_feasible(v, k, lam, step=1e-4):
    """Core levels b on a grid whose corner x and border s^2 have
    modulus <= 1, computed here from the two constraint equations."""
    out = []
    b = -1.0
    while b <= 1.0 + 1e-12:
        x = -(k + (v - k) * b)
        s2 = -(lam + 2 * (k - lam) * b + (v - 2 * k + lam) * b * b)
        if -1e-12 <= s2 <= 1 + 1e-12 and abs(x) <= 1 + 1e-12:
            out.append(b)
        b += step
    return out


def test_bordered_solver_7_3_1():
    mats = bordered_solver(qr_difference_set(7).develop())
    assert mats, "expected at least one bordered solution"
    grid = brute_feasible(7, 3, 1)
    assert grid, "oracle disagrees: no feasible band found"
    for m in mats:
        assert m.order == 8 and m.mode == "exact"
        b = parse_scalar(m.params["b"])
        assert b in m.levels
        assert min(abs(b.to_float() - g) for g in grid) < 2e-4
        cert = verify_cretan(m, mode="relaxed")
        assert cert.relaxed and cert.gram_exact
    # b = -1 borders the core to the +-1 Hadamard matrix of order 8
    H = [m for m in mats if m.params["b"] == "-1"][0]
    assert H.levels == (Scalar(-1), Scalar(1)) and H.omega == Scalar(8)
    assert verify_cretan(H, mode="strict").det.exact_zero


def test_bordered_solver_degenerate_is_empty():
    inc = (np.ones((4, 4)) - np.eye(4)).astype(np.int8)
    sb = Sbibd(4, 3, 2, inc)
    assert bordered_solver(sb) == []
    assert brute_feasible(4, 3, 2) == []


def test_bordered_solver_respects_modulus():
    for sb in (singer_difference_set(2, 3).develop(),
               fixture_difference_set("45-12-3").develop()):
        for m in bordered_solver(sb):
            assert all(l.abs_le_one() for l in m.levels)
            assert verify_cretan(m, mode="relaxed").passed


def _sym(x):
    return (sympy.Integer(x.p) + x.q * sympy.sqrt(x.d)) / x.r


def test_bordered_gram_is_exact_against_sympy():
    mats = []
    for ds in (qr_difference_set(7), singer_difference_set(2, 3),
               singer_difference_set(2, 4)):
        design = ds.develop()
        for sb in (design, design.complement()):
            mats += bordered_solver(sb)
    assert len(mats) == 12
    for m in mats:
        assert m.mode == "exact"
        values = [[m.levels[m.grid[i, j]] for j in range(m.order)]
                  for i in range(m.order)]
        S = sympy.Matrix([[_sym(x) for x in row] for row in values])
        G = (S * S.T).applyfunc(sympy.expand)
        assert G == _sym(m.omega) * sympy.eye(m.order)
        assert verify_cretan(m, mode="relaxed").gram_exact
        # negate one border entry: the exact check must catch it
        values[0][1] = -values[0][1]
        flipped = from_values(values, m.omega, "bordered")
        cert = verify_cretan(flipped, mode="relaxed")
        assert not cert.gram_exact and not cert.relaxed


def test_bordered_radius_match_vanishes_on_valid_parameters():
    # corner row norm x^2 + v s^2 minus core row norm s^2 + k + (v-k) b^2,
    # with x = -(k + (v-k) b) and s^2 = -(lam + 2(k-lam) b + (v-2k+lam) b^2)
    v, k, lam, b = sympy.symbols("v k lam b")
    x = -(k + (v - k) * b)
    s2 = -(lam + 2 * (k - lam) * b + (v - 2 * k + lam) * b ** 2)
    g = sympy.expand(x ** 2 + v * s2 - (s2 + k + (v - k) * b ** 2))
    c0 = k * k - (v - 1) * lam - k
    c1 = 2 * k * (v - k) - 2 * (v - 1) * (k - lam)
    c2 = (v - k) ** 2 - (v - 1) * (v - 2 * k + lam) - (v - k)
    assert sympy.expand(g - (c0 + c1 * b + c2 * b ** 2)) == 0
    # every coefficient is a multiple of the parameter identity, which
    # Sbibd.validate() enforces, so no radius-match root search is needed
    identity = k * (k - 1) - lam * (v - 1)
    for c, m in zip((c0, c1, c2), (1, -2, 1)):
        assert sympy.expand(c - m * identity) == 0
    assert sympy.expand(g - identity * (1 - b) ** 2) == 0


def unit_matrix():
    return from_values([[Scalar(1)]], Scalar(1), "unit")


def test_kronecker_radius_multiplies_exactly():
    a = sbibd_two_level(sb321())[0]            # omega 9/4
    b7 = sbibd_two_level(qr_difference_set(7).develop().complement())[0]
    m = kronecker_cretan(a, b7)
    assert m.order == 21
    assert m.omega == a.omega * b7.omega
    assert abs(m.omega.to_float() - 2.25 * 5.029437) < 1e-3
    assert verify_cretan(m).strict


def test_kronecker_identity_and_levels():
    a = sbibd_two_level(sb321())[0]
    assert kronecker_cretan(a, unit_matrix()) == a
    sq = kronecker_cretan(a, a)
    # levels {a^2, ab, b^2} for a two-level factor
    assert sq.tau == 3
    assert sq.levels == (Scalar(-1, 0, 0, 2), Scalar(1, 0, 0, 4), Scalar(1))


def test_kronecker_mixed_radicands_degrades_to_float():
    a = sbibd_two_level(singer_difference_set(2, 3).develop())[0]  # sqrt 3
    b = sbibd_two_level(qr_difference_set(7).develop())[0]         # sqrt 2
    m = kronecker_cretan(a, b)
    assert m.mode == "float"
    assert verify_cretan(m, mode="relaxed").max_offdiag < 1e-9


def _hexes(levels) -> set:
    return {l.to_float().hex() for l in levels}


def test_float_products_follow_to_float():
    # a product that leaves exact arithmetic is the float product of the
    # factors' to_float values, levels and radius alike
    s3 = sbibd_two_level(singer_difference_set(2, 3).develop())[0]
    s2 = sbibd_two_level(qr_difference_set(7).develop())[0]
    cross = kronecker_cretan(s3, s2)
    # a float-mode factor makes every product a float, exact ones too
    for A, B in ((s3, s2), (s2, s3), (cross, basic_family(5)),
                 (basic_family(4), cross)):
        m = kronecker_cretan(A, B)
        assert m.mode == "float" and all(l.is_float for l in m.levels)
        assert _hexes(m.levels) == {(a.to_float() * b.to_float()).hex()
                                    for a in A.levels for b in B.levels}
        assert m.omega.f.hex() == \
            (A.omega.to_float() * B.omega.to_float()).hex()


def test_direct_sum_floats_follow_to_float():
    s13 = sbibd_two_level(singer_difference_set(2, 3).develop())[0]
    s11 = sbibd_two_level(qr_difference_set(11).develop())[0]
    s7 = sbibd_two_level(qr_difference_set(7).develop())[0]
    cross = kronecker_cretan(s13, s7)       # a float radius

    def scaled(lo, hi, ratio):
        return _hexes(FloatLevel(l.to_float() * math.sqrt(ratio))
                      for l in hi.levels)

    # omega_11 / omega_13 = (436 - 190 sqrt 3)/169 is exact in Q(sqrt 3),
    # and its float differs in the last bit from the quotient of floats
    ratio = (s11.omega / s13.omega).to_float()
    assert ratio != s11.omega.to_float() / s13.omega.to_float()
    cases = [(s11, s13, ratio)]
    # radii in two fields, or a float radius: the quotient of floats
    for lo, hi in ((s7, s13), (s11, cross), (s7, s11)):
        cases.append((lo, hi, lo.omega.to_float() / hi.omega.to_float()))
    for lo, hi, ratio in cases:
        m = direct_sum(hi, lo)
        assert m.omega is lo.omega and m.mode == "float"
        assert _hexes(l for l in m.levels if l.is_float) == \
            scaled(lo, hi, ratio)
        # lo's levels and the zero off the blocks stay as they were
        assert set(lo.levels) | {Scalar(0)} <= set(m.levels)


def test_float_level_never_merges_into_an_exact_level():
    m = from_codes((Scalar(1), FloatLevel(1.0), Scalar(0), FloatLevel(0.0)),
                   np.array([[0, 2], [3, 1]]), FloatLevel(1.0), "split")
    assert m.tau == 4 and m.mode == "float"
    assert Scalar(1) in m.levels and FloatLevel(1.0) in m.levels


def eager_kronecker(A, B):
    """The oracle: the product as kronecker_cretan built it before it kept
    its factors, with the grid gathered at once from the factor grids."""
    try:
        prods = [a * b for a in A.levels for b in B.levels]
        omega = A.omega * B.omega
    except (IncompatibleRadicands, TypeError):
        # two fields, or a float-mode factor (a FloatLevel takes no
        # arithmetic)
        prods = [FloatLevel(a.to_float() * b.to_float())
                 for a in A.levels for b in B.levels]
        omega = FloatLevel(A.omega.to_float() * B.omega.to_float())
    return from_codes(prods, kron_pair_codes(A.grid, B.grid, B.tau), omega,
                      "kronecker",
                      {"left": (A.method, A.order),
                       "right": (B.method, B.order)},
                      sorted(set(A.notes) | set(B.notes)))


def _catalog_products() -> list:
    """Every Kronecker candidate of the catalog, and the nested products
    (a factor that is itself a product) at 225 and 441."""
    entries = catalog_table(199).entries + [construct_best(225),
                                            construct_best(441)]
    products = [c.matrix for e in entries for c in e.candidates
                if c.method == "kronecker" and c.matrix is not None]
    nested = {S.order for S in products
              if any(F.factors is not None for F in S.factors[:2])}
    assert len(products) == 74 + 4 + 4 and {225, 441} <= nested
    return products


def test_factored_products_match_the_eager_product():
    for S in _catalog_products():
        A, B, _ = S.factors
        want = eager_kronecker(A, B)
        assert S == want and S.grid.dtype == want.grid.dtype
        assert (S.method, S.params, S.notes, S.mode) == \
            (want.method, want.params, want.notes, want.mode)
        # an exact level rounds the exact product once, np.kron multiplies
        # two rounded factors: a few ulps apart at most
        np.testing.assert_allclose(
            S.to_float_array(),
            np.kron(A.to_float_array(), B.to_float_array()),
            rtol=1e-15, atol=0)
        assert S.grid is S.grid
        with pytest.raises(ValueError):
            S.grid[0, 0] = 0


def _unbuilt(S):
    """S made again from its factors, recursively: no product grid is
    built, whatever other tests read of the catalog's matrices."""
    if S.factors is None:
        return S
    A, B, _ = S.factors
    return kronecker_cretan(_unbuilt(A), _unbuilt(B))


def test_factored_writer_matches_the_eager_grid():
    for S in map(_unbuilt, _catalog_products()):
        text = serialize_matrix(S)
        # the writer builds no grid of S or of a factored right factor
        # (it reads the grid of a left factor)
        right = S
        while right.factors is not None:
            assert right._grid is None
            right = right.factors[1]
        A, B, _ = S.factors
        assert text == serialize_matrix(eager_kronecker(A, B))


def test_catalog_builds_no_grid_of_a_proved_product(monkeypatch):
    # a fresh memo: other tests read the grids of the shared one
    monkeypatch.setattr(catalog, "_MEMO", {})
    report = catalog_table(199)
    proved = [c.matrix for e in report.entries for c in e.candidates
              if c.certificate and c.certificate.gram_path == "by-factors"]
    assert len(proved) == 69
    assert all(S._grid is None for S in proved)


def test_direct_sum_equal_radius():
    a = basic_family(4)
    m = direct_sum(a, a)
    assert m.order == 8 and m.omega == a.omega
    assert Scalar(0) in m.levels
    assert verify_cretan(m, mode="relaxed").relaxed


def test_direct_sum_rescales_larger_block():
    five = regular_hadamard_border(regular_hadamard(1))     # omega 1
    thirteen = sbibd_two_level(singer_difference_set(2, 3).develop())[0]
    m = direct_sum(five, thirteen)
    assert m.order == 18
    assert m.omega == Scalar(1)
    assert "not one 1 per row and column" in m.notes
    cert = verify_cretan(m, mode="relaxed")
    assert cert.relaxed and cert.max_offdiag < 1e-9


def test_direct_sum_exact_rational_scale():
    a = basic_family(4)          # omega 4
    b = sbibd_two_level(sb321())[0]   # omega 9/4
    m = direct_sum(a, b)
    # scale sqrt((9/4)/4) = 3/4 keeps the matrix exact
    assert m.mode == "exact"
    assert m.omega == Scalar(9, 0, 0, 4)
    assert verify_cretan(m, mode="relaxed").gram_exact


def test_conference_complex():
    for q in (5, 9):
        W = paley_conference(q)
        B = conference_complex(W)
        n = q + 1
        gram = B.entries @ B.entries.conj().T
        assert np.abs(gram - n * np.eye(n)).max() < 1e-9
        assert verify_complex(B)


def test_conference_complex_rejects_asymmetric():
    skew = np.array([[0, 1], [-1, 0]], dtype=np.int8)
    from cretan.hadamard import SignMatrix
    W = SignMatrix(2, skew, "conference", 1)
    with pytest.raises(ValueError):
        conference_complex(W)


def test_gh_from_field_small():
    g = gh_from_field(3, 1)
    assert g.entries.tolist() == [[0, 0, 0], [0, 1, 2], [0, 2, 1]]
    rep = group_orthogonality_check(g)
    assert rep.passed and rep.uniform_count == 1


def test_gh_from_field_gf4_matches_hadamard():
    g = gh_from_field(2, 2)
    H = np.where(g.entries == 0, 1, -1).astype(np.int64)
    assert (H @ H.T == 4 * np.eye(4, dtype=np.int64)).all()


def test_gh_from_field_gf9_census():
    g = gh_from_field(3, 2)
    rep = group_orthogonality_check(g)
    assert rep.passed and rep.uniform_count == 3


def test_gh_cap():
    with pytest.raises(ValueError):
        gh_from_field(2, 9)


def test_published_group_matrices_pass():
    rep = group_orthogonality_check(gh_z3_order6())
    assert rep.passed and rep.uniform_count == 2
    rep = group_orthogonality_check(gw_z3_order5())
    assert rep.passed and rep.uniform_count == 1


def test_perturbed_gh_fails():
    g = gh_z3_order6()
    g.entries[3, 4] = (g.entries[3, 4] + 1) % 3
    assert not group_orthogonality_check(g).passed


def census_by_row_pairs(G):
    """The per-pair census: a bincount of differences for each ordered
    pair i != j.  Oracle for group_orthogonality_check."""
    E = G.entries
    n, g = G.order, G.group_order
    if G.kind == "GW":
        per_col = (E != STAR).sum(axis=0)
        if not (per_col == G.weight).all():
            return GroupCensusReport(False, G.kind, 0,
                                     "column star counts are uneven")
    expect = n // g if G.kind == "GH" else None
    uniform = expect or 0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            mask = (E[i] != STAR) & (E[j] != STAR)
            diffs = (E[i][mask] - E[j][mask]) % g
            counts = np.bincount(diffs, minlength=g)
            want = expect if expect is not None else counts[0]
            if not (counts == want).all():
                return GroupCensusReport(
                    False, G.kind, 0,
                    "rows %d,%d: counts %s" % (i, j, counts.tolist()))
            uniform = int(want)
    return GroupCensusReport(True, G.kind, uniform, "ok")


def gw_conference(q):
    """GW(q + 1, q) over Z_(q-1) for a prime q: a star diagonal, a zero
    border, and log(x - y) to a primitive root elsewhere.  Rows x, y meet
    in the border (ratio 1) and in z -> (x - z)/(y - z), which takes every
    other unit once, so every N_d is 1."""
    r = next(r for r in range(2, q)
             if len({pow(r, e, q) for e in range(q - 1)}) == q - 1)
    log = {pow(r, e, q): e for e in range(q - 1)}
    E = np.zeros((q + 1, q + 1), dtype=np.int16)
    for x in range(q):
        E[x + 1, 1:] = [log.get((x - y) % q, STAR) for y in range(q)]
    E[0, 0] = STAR
    return GroupMatrix(q + 1, q - 1, E, "GW", weight=q)


def census_cases():
    """Field GH matrices up to GF(11^2), the published GH(6) and GW(5),
    GW(q + 1, q) conference matrices on both sides of BLAS_MAX_GROUP, a
    GW copy of each GH matrix with a star diagonal, and copies of each
    with one entry perturbed, one entry starred, and one entry moved by
    -2g (the census reads entries mod g)."""
    fields = [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 1),
              (3, 2), (3, 3), (3, 4), (5, 1), (5, 2), (7, 1), (7, 2),
              (11, 1), (11, 2), (13, 1), (31, 1)]
    base = [gh_from_field(p, k) for p, k in fields] + [gh_z3_order6()]
    for G in list(base):
        E = G.entries.copy()
        np.fill_diagonal(E, STAR)
        base.append(GroupMatrix(G.order, G.group_order, E, "GW",
                                G.order - 1))
    base += [gw_z3_order5(), gw_conference(7), gw_conference(17)]
    rng = np.random.default_rng(7)
    cases = list(base)
    for G in base:
        g = G.group_order
        for _ in range(2):
            E = G.entries.copy()
            i, j = rng.integers(G.order, size=2)
            if E[i, j] == STAR:
                E[i, j] = rng.integers(g)
            else:
                E[i, j] = (E[i, j] + rng.integers(1, g)) % g
            cases.append(GroupMatrix(G.order, g, E, G.kind, G.weight))
        E = G.entries.copy()
        E[rng.integers(G.order), rng.integers(G.order)] = STAR
        cases.append(GroupMatrix(G.order, g, E, G.kind, G.weight))
        E = G.entries.copy()
        i, j = np.argwhere(E != STAR)[rng.integers((E != STAR).sum())]
        E[i, j] -= 2 * g
        cases.append(GroupMatrix(G.order, g, E, G.kind, G.weight))
    return cases


def test_census_matches_row_pair_oracle():
    verdicts = set()
    for G in census_cases():
        rep = group_orthogonality_check(G)
        assert rep == census_by_row_pairs(G)
        verdicts.add((G.group_order <= BLAS_MAX_GROUP, G.kind, rep.passed))
    # both kernels pass and fail both kinds
    assert len(verdicts) == 8


@pytest.mark.parametrize("p,k", [(2, 8), (3, 5), (251, 1)])
def test_gh_from_field_at_the_cap(p, k):
    G = gh_from_field(p, k)
    n = p ** k
    rep = group_orthogonality_check(G)
    assert rep.passed and rep.uniform_count == n // p
    H = np.exp(2j * np.pi * G.entries / p)
    assert np.abs(H @ H.conj().T - n * np.eye(n)).max() < 1e-9


def test_gh_from_field_passes_the_census_at_every_field():
    # gh_from_field runs no census of its own: the trace form is a GH
    # matrix by theorem, checked here at every p^k <= 256
    fields = [factor_prime_power(q) for q in range(2, 257)
              if is_prime_power(q)]
    assert len(fields) == 70
    for p, k in fields:
        G = gh_from_field(p, k)
        rep = group_orthogonality_check(G)
        assert rep.passed and rep.uniform_count == p ** (k - 1), (p, k)


def test_gh_from_field_matches_the_polynomial_trace():
    # entry (i, j) is Tr(x y) for the elements x, y whose coefficient
    # tuples are the base-p digits of i and j, with the product and trace
    # taken on polynomials (no field table); a matrix with its rows or
    # columns permuted passes the census but not this.  Every pair up to
    # 64 elements, 2000 seeded pairs in the four largest extension fields
    rng = np.random.default_rng(25)
    fields = [factor_prime_power(q) for q in range(2, 257)
              if is_prime_power(q)]
    for p, k in fields:
        n = p ** k
        if n <= 64:
            pairs = [(i, j) for i in range(n) for j in range(n)]
        elif (p, k) in ((3, 4), (2, 7), (3, 5), (2, 8)):
            pairs = rng.integers(n, size=(2000, 2)).tolist()
        else:
            continue
        E = gh_from_field(p, k).entries
        f = make_field(p, k)
        tup = [tuple(c // p ** t % p for t in range(k)) for c in range(n)]
        trace = {x: poly_trace(f, x) for x in tup}
        for i, j in pairs:
            want = trace[poly_mul(f, tup[i], tup[j])]
            assert E[i, j] == want, (p, k, i, j)


def test_gh_to_complex():
    b = gh_to_complex(gh_from_field(3, 1))
    gram = b.entries @ b.entries.conj().T
    assert np.abs(gram - 3 * np.eye(3)).max() < 1e-12
    six = gh_to_complex(gh_z3_order6())
    gram = six.entries @ six.entries.conj().T
    assert np.abs(gram - 6 * np.eye(6)).max() < 1e-9
    assert np.allclose(np.abs(six.entries), 1)
    gw = gh_to_complex(gw_z3_order5())
    assert np.allclose(np.abs(np.diag(gw.entries)), 0)
    gram = gw.entries @ gw.entries.conj().T
    assert np.abs(gram - 4 * np.eye(5)).max() < 1e-9


def test_sign_to_level():
    m = sign_to_level(sylvester(2))
    assert m.omega == Scalar(4) and m.tau == 2
    assert verify_cretan(m).strict


def test_sign_to_level_keeps_the_values_present():
    ones = sylvester(2)
    ones.entries[:] = 1
    for M in (sylvester(8), paley_conference(13), regular_hadamard(3),
              ones):
        m = sign_to_level(M)
        assert [int(l.p) for l in m.levels] == \
            np.unique(M.entries).tolist()
        assert m.tau == np.unique(M.entries).size


def test_radius_never_exceeds_order():
    outputs = [
        basic_family(11),
        sbibd_two_level(singer_difference_set(2, 4).develop())[0],
        regular_hadamard_border(regular_hadamard(2)),
        kronecker_cretan(sbibd_two_level(sb321())[0],
                         basic_family(5)),
    ]
    for m in outputs:
        assert m.omega.to_float() <= m.order + 1e-9
