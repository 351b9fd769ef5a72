"""Difference set families, census validation, and SBIBD development."""

import dataclasses

import numpy as np
import pytest

from cretan.designs import (
    DESIGN_REGISTRY,
    BadFixture,
    GroupDesc,
    MissingFixture,
    NotADifferenceSet,
    Sbibd,
    biquadratic_difference_set,
    build_family,
    cyclic,
    difference_census,
    fixture_difference_set,
    fixture_path,
    format_fixture,
    load_fixture,
    make_difference_set,
    parse_fixture,
    qr_difference_set,
    registered_designs,
    singer_difference_set,
)
from cretan.fields import (
    factor_prime_power,
    is_prime_power,
    make_field,
    relative_trace,
)
from test_fields import poly_mul, quadratic_character


def complement(ds):
    """The complementary difference set, with lambda v - 2k + lambda."""
    inside = set(ds.elements)
    comp = tuple(g for g in ds.group.elements() if g not in inside)
    return make_difference_set(ds.group, comp, ds.v - 2 * ds.k + ds.lam)


def test_group_desc_arithmetic():
    g = GroupDesc((3, 5))
    assert g.order == 15
    assert len(g.elements()) == 15
    assert g.sub((0, 0), (1, 1)) == (2, 4)
    assert str(g) == "Z3 x Z5"
    with pytest.raises(ValueError):
        GroupDesc(())


#squares mod 7 are {1, 2, 4}
def test_qr_7():
    ds = qr_difference_set(7)
    assert ds.elements == ((1,), (2,), (4,))
    assert ds.params == (7, 3, 1)


def test_develop_first_row_qr7():
    B = qr_difference_set(7).develop().incidence
    assert "".join(str(x) for x in B[0]) == "0110100"
    # each later row is the cyclic shift of the previous one
    assert (B[1] == np.roll(B[0], 1)).all()


def test_qr_prime_power_27():
    ds = qr_difference_set(27)
    assert ds.params == (27, 13, 6)
    assert ds.group.orders == (3, 3, 3)
    ds.develop().validate()


def test_qr_rejects_wrong_residue_class():
    with pytest.raises(ValueError):
        qr_difference_set(13)  # 13 = 1 mod 4
    with pytest.raises(ValueError):
        qr_difference_set(1009)


#fourth powers mod 13 are {1, 3, 9}: not a difference set
def test_biquadratic_13_fails_census():
    with pytest.raises(NotADifferenceSet):
        biquadratic_difference_set(13)


def test_biquadratic_37():
    ds = biquadratic_difference_set(37)
    assert ds.params == (37, 9, 2)
    counts = difference_census(ds.group, ds.elements)
    assert set(counts.values()) == {2}


def test_biquadratic_109_with_zero():
    ds = biquadratic_difference_set(109, with_zero=True)
    assert ds.params == (109, 28, 7)
    assert (0,) in ds.elements


#hyperplanes of projective planes give (q^2+q+1, q+1, 1)
def test_singer_plane_orders():
    assert singer_difference_set(2, 3).params == (13, 4, 1)
    assert singer_difference_set(2, 4).params == (21, 5, 1)
    assert singer_difference_set(2, 7).params == (57, 8, 1)


def test_singer_higher_dimension():
    ds = singer_difference_set(3, 4)
    assert ds.params == (85, 21, 5)
    ds = singer_difference_set(4, 3)
    assert ds.params == (121, 40, 13)


def singer_cases():
    """(n, q) with v = (q^(n+1)-1)/(q-1) <= 1000 and GF(q^(n+1)) of
    degree at most 10 over its prime field."""
    for q in range(2, 32):
        if not is_prime_power(q):
            continue
        p, j = factor_prime_power(q)
        n = 2
        while j * (n + 1) <= 10 and (q ** (n + 1) - 1) // (q - 1) <= 1000:
            yield n, q
            n += 1


def test_singer_sets_match_relative_trace():
    cases = list(singer_cases())
    assert len(cases) == 31
    for n, q in cases:
        p, j = factor_prime_power(q)
        f = make_field(p, j * (n + 1))
        v = (q ** (n + 1) - 1) // (q - 1)
        want = [i for i in range(v)
                if relative_trace(f, int(f.codes[i]), j) == 0]
        got = singer_difference_set(n, q).elements
        assert [i for (i,) in got] == want, (n, q)


def test_qr_prime_powers_are_the_squares():
    # every prime power q = 3 (mod 4) below 1000: the Legendre symbol at
    # a prime, polynomial squares at the proper powers 27, 243 and 343
    qs = [q for q in range(3, 1000, 4) if is_prime_power(q)]
    assert len(qs) == 90
    for q in qs:
        p, k = factor_prime_power(q)
        if k == 1:
            squares = {(a,) for a in range(1, q)
                       if quadratic_character(a, q) == 1}
        else:
            f = make_field(p, k)
            squares = {poly_mul(f, x, x)
                       for x in map(tuple, f.digits[1:].tolist())}
        ds = qr_difference_set(q)
        assert ds.group == GroupDesc((p,) * k), q
        assert ds.elements == tuple(sorted(squares)), q
        assert ds.params == (q, (q - 1) // 2, (q - 3) // 4), q
        assert ds.source == "qr(%d)" % q


def test_census_rejects_non_difference_set():
    with pytest.raises(NotADifferenceSet):
        make_difference_set(cyclic(7), [(0,), (1,), (2,)], 1)


def test_census_forces_the_parameter_identity():
    # every subset of every group of order <= 9, with each lambda the
    # census could give: whatever passes satisfies lambda (v-1) = k (k-1)
    passed = 0
    for orders in ((1,), (2,), (3,), (4,), (2, 2), (5,), (6,), (7,), (8,),
                   (2, 4), (2, 2, 2), (9,), (3, 3)):
        group = GroupDesc(orders)
        els = group.elements()
        for mask in range(2 ** len(els)):
            subset = [e for b, e in enumerate(els) if mask >> b & 1]
            k, v = len(subset), group.order
            for lam in range(k + 1):
                try:
                    make_difference_set(group, subset, lam)
                except NotADifferenceSet:
                    continue
                assert lam * (v - 1) == k * (k - 1)
                passed += 1
    assert passed > 100


def test_develop_reads_the_checked_coordinates(monkeypatch):
    # make_difference_set range-checked the elements; develop reuses them
    ds = qr_difference_set(7)
    monkeypatch.setattr(GroupDesc, "coords", lambda self, els: pytest.fail(
        "develop checked the coordinates again"))
    sb = ds.develop()
    assert sb.incidence[0].tolist() == [0, 1, 1, 0, 1, 0, 0]
    sb.validate()


def test_develop_and_validate_small():
    sb = qr_difference_set(11).develop()
    assert sb.params == (11, 5, 2)
    sb.validate()
    B = sb.incidence.astype(np.int64)
    assert (B @ B.T == 3 * np.eye(11, dtype=np.int64) + 2).all()


def test_complement_parameters():
    sb = qr_difference_set(7).develop()
    c = sb.complement()
    assert c.params == (7, 4, 2)
    c.validate()
    ds = complement(qr_difference_set(7))
    assert ds.params == (7, 4, 2)


#|det B| = k (k - lam)^((v-1)/2); for (13,4,1) that is 4 * 3^6
def test_sbibd_determinant_small():
    B = singer_difference_set(2, 3).develop().incidence.astype(float)
    assert round(abs(np.linalg.det(B))) == 4 * 3 ** 6


def test_fixture_files_load_and_validate():
    for name, params in [("45-12-3", (45, 12, 3)),
                         ("36-15-6", (36, 15, 6)),
                         ("133-33-8", (133, 33, 8))]:
        ds = fixture_difference_set(name)
        assert ds.params == params
        ds.develop().validate()


def test_fixture_round_trip():
    for name in ("45-12-3", "36-15-6", "133-33-8"):
        fx = load_fixture(name)
        assert parse_fixture(format_fixture(fx)) == fx


def test_missing_fixture():
    with pytest.raises(MissingFixture):
        fixture_path("no-such-fixture")


def test_fixture_dir_env(tmp_path, monkeypatch):
    src = fixture_path("36-15-6").read_text()
    (tmp_path / "custom-name.txt").write_text(src)
    monkeypatch.setenv("CRETAN_FIXTURE_DIR", str(tmp_path))
    ds = fixture_difference_set("custom-name")
    assert ds.params == (36, 15, 6)


def test_registry_is_fully_buildable():
    assert len(DESIGN_REGISTRY) == 12
    for (v, k, lam, fam, kw) in DESIGN_REGISTRY:
        ds = build_family(fam, **kw)
        assert ds.params == (v, k, lam), (fam, kw)


def test_registered_designs_filter():
    rows = registered_designs(45)
    assert len(rows) == 1 and rows[0][:3] == (45, 12, 3)
    assert build_family(rows[0][3], **rows[0][4]).params == (45, 12, 3)
    assert registered_designs(15) == ()


def test_build_family_unknown():
    with pytest.raises(ValueError):
        build_family("mystery")


# -- integer-position kernels against the tuple-loop oracle -------------------

def _oracle_census(group, elements):
    counts = {g: 0 for g in group.elements()}
    els = list(elements)
    for a in els:
        for b in els:
            if a != b:
                counts[group.sub(a, b)] += 1
    del counts[group.identity()]
    return counts


def _oracle_develop(ds):
    els = ds.group.elements()
    inside = set(ds.elements)
    B = np.zeros((ds.v, ds.v), dtype=np.int8)
    for i, g in enumerate(els):
        for j, h in enumerate(els):
            if ds.group.sub(h, g) in inside:
                B[i, j] = 1
    return B


def _oracle_census_message(group, elements, lam):
    els = tuple(sorted(set(elements)))
    bad = [g for g, c in _oracle_census(group, els).items() if c != lam]
    assert bad
    return ("census mismatch for %s in %s: %d elements deviate from "
            "lambda=%d" % (sorted(els)[:4], group, len(bad), lam))


# every registry row and its complement (the 45-12-3 and 133-33-8 fixtures
# are registry rows), the 36-15-6 fixture, and QR sets over Z3^3, Z3^5
# and Z7^3
_ORACLE_CASES = [(fam, kw, comp) for (_, _, _, fam, kw) in DESIGN_REGISTRY
                 for comp in (False, True)]
_ORACLE_CASES += [("fixture", {"name": "36-15-6"}, False)]
_ORACLE_CASES += [("qr", {"q": q}, False) for q in (27, 243, 343)]


@pytest.mark.parametrize(
    "family, kw, comp", _ORACLE_CASES,
    ids=["%s-%s%s" % (fam, "-".join(str(x) for x in kw.values()),
                      "-complement" if comp else "")
         for fam, kw, comp in _ORACLE_CASES])
def test_kernels_match_tuple_oracle(family, kw, comp):
    ds = build_family(family, **kw)
    if comp:
        ds = complement(ds)
    assert difference_census(ds.group, ds.elements) == \
        _oracle_census(ds.group, ds.elements)
    B = ds.develop().incidence
    assert B.dtype == np.int8
    assert np.array_equal(B, _oracle_develop(ds))
    # one element swapped for a non-member fails with the same message
    outside = next(g for g in ds.group.elements() if g not in ds.elements)
    swapped = (outside,) + ds.elements[1:]
    with pytest.raises(NotADifferenceSet) as err:
        make_difference_set(ds.group, swapped, ds.lam)
    assert str(err.value) == _oracle_census_message(ds.group, swapped, ds.lam)


def test_positions_follow_element_order():
    g = GroupDesc((3, 2, 5))
    C = g.all_coords()
    assert C.dtype == np.int32
    assert [tuple(c) for c in C.tolist()] == g.elements()
    assert g.positions(C).tolist() == list(range(30))
    D = g.diff_positions(C, C)
    assert D.dtype == np.int32
    els = g.elements()
    assert all(els[D[i, j]] == g.sub(els[j], els[i])
               for i in range(30) for j in range(30))


def test_elements_outside_the_group_are_rejected():
    z3z5 = GroupDesc((3, 5))
    for bad in [(1,), (0, 16), (0, -1), (3, 0), (0, 1, 2)]:
        with pytest.raises(NotADifferenceSet, match="not in Z3 x Z5"):
            make_difference_set(z3z5, [(0, 0), bad], 1)
        with pytest.raises(ValueError):
            difference_census(z3z5, [(0, 0), bad])
    # 8 = 1 (mod 7): the census must not wrap it onto a member
    with pytest.raises(NotADifferenceSet, match="not in Z7"):
        make_difference_set(cyclic(7), [(8,), (2,), (4,)], 1)
    with pytest.raises(NotADifferenceSet, match="not in Z45"):
        make_difference_set(cyclic(45), [(0,), (46,)], 1)


def test_qr_983_develops_and_validates():
    ds = qr_difference_set(983)
    ds.develop().validate()
    complement(ds).develop().validate()


def test_validate_rejects_one_flipped_entry():
    sb = qr_difference_set(11).develop()
    sb.incidence[3, 4] ^= 1
    sb.incidence[4, 3] ^= 1
    with pytest.raises(ValueError):
        sb.validate()
    # halves have the row and column sums of a (2, 1, 0) design
    with pytest.raises(ValueError, match="0/1"):
        Sbibd(2, 1, 0, np.full((2, 2), 0.5)).validate()


# -- malformed fixtures -------------------------------------------------------

def _write_fixture(tmp_path, monkeypatch, name, text):
    (tmp_path / (name + ".txt")).write_text(text)
    monkeypatch.setenv("CRETAN_FIXTURE_DIR", str(tmp_path))


def test_unparsable_fixture_is_bad_fixture(tmp_path, monkeypatch):
    src = fixture_path("45-12-3").read_text()
    cases = [src.replace("params", "parameters"),
             src.replace("cretan-fixture 1", "cretan-fixture 9"),
             src.replace("params 45 12 3", "params 45 twelve 3"),
             src.replace("params 45 12 3", "params 45 12"),
             src.replace("group 3 3 5", "group 3 5")]
    for text in cases:
        assert text != src
        _write_fixture(tmp_path, monkeypatch, "45-12-3", text)
        with pytest.raises(BadFixture, match="45-12-3"):
            fixture_difference_set("45-12-3")


def test_fixture_integers_and_headers_are_strict():
    src = fixture_path("133-33-8").read_text()
    assert "group 133\n" in src and "elements\n2 7 " in src
    sign = "cretan-fixture 1\nkind sign-matrix\norder 2\nrows\n++\n+-\n"
    assert parse_fixture(sign).order == 2
    # int() would read 1_33 as 133 and an Arabic-Indic seven as 7
    cases = [(src.replace("group 133", "group 1_33"), "malformed integer"),
             (src.replace("params 133 ", "params \u0661\u0663\u0663 "),
              "malformed integer"),
             (src.replace("elements\n2 7 ", "elements\n2 \u0667 "),
              "malformed integer"),
             (sign.replace("order 2", "order +2"), "malformed integer"),
             (src.replace("group 133\n", "group 133\ngroup 7 19\n"),
              "repeated group header"),
             (src.replace("kind difference-set\n",
                          "kind difference-set\nkind sign-matrix\n"),
              "repeated kind header"),
             (sign.replace("order 2\n", "order 2\norder 2\n"),
              "repeated order header")]
    for text, message in cases:
        with pytest.raises(ValueError, match=message):
            parse_fixture(text)


def test_census_failing_fixture_is_bad_fixture(tmp_path, monkeypatch):
    fx = load_fixture("45-12-3")
    moved = ((0, 0, 0),) + fx.elements[1:]
    assert moved[0] not in fx.elements
    _write_fixture(tmp_path, monkeypatch, "45-12-3",
                   format_fixture(dataclasses.replace(fx, elements=moved)))
    with pytest.raises(BadFixture, match="census mismatch"):
        fixture_difference_set("45-12-3")
