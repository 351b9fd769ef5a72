"""Serialization round trips, parse failures, and rendering."""

import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cretan import files
from cretan.constructions import (
    STAR,
    ComplexLevelMatrix,
    GroupMatrix,
    LevelMatrix,
    basic_family,
    conference_complex,
    from_codes,
    from_values,
    gh_from_field,
    gh_to_complex,
    gw_z3_order5,
    kronecker_cretan,
    sbibd_two_level,
)
from cretan import cli
from cretan.cli import main
from cretan.designs import qr_difference_set, singer_difference_set
from cretan.files import (
    MATRIX_MAGIC,
    STAR_TOKEN,
    ParseError,
    load_matrix,
    parse_matrix,
    save_matrix,
    serialize_matrix,
)
from cretan.hadamard import paley_conference
from cretan.render import render, render_pgm, render_svg, shade_grid
from cretan.scalar import (
    FloatLevel,
    Scalar,
    format_scalar,
    parse_int,
    parse_scalar,
)


def identity2():
    vals = [[Scalar(1), Scalar(0)], [Scalar(0), Scalar(1)]]
    return from_values(vals, Scalar(1), "identity")


def float_product():
    """CM(77; 4) from two-level factors over Q(sqrt 2) and Q(sqrt 3):
    no one field holds the products, so the levels are floats."""
    return kronecker_cretan(
        sbibd_two_level(qr_difference_set(7).develop())[0],
        sbibd_two_level(qr_difference_set(11).develop())[0])


def v1_text(m) -> str:
    """The `cretan-matrix 1` text of m, as the v1 writer made it: the
    same header lines with no levels line, then each entry written as
    its token, the tokens of a row separated by spaces."""
    head = serialize_matrix(m).split("\nlevels ")[0]
    if isinstance(m, GroupMatrix):
        rows = [[STAR_TOKEN if x == STAR else str(x) for x in row]
                for row in m.entries.tolist()]
    elif isinstance(m, ComplexLevelMatrix):
        rows = [["%r,%r" % (z.real, z.imag) for z in row]
                for row in m.entries.tolist()]
    else:
        toks = [format_scalar(l) for l in m.levels]
        rows = [[toks[u] for u in row] for row in m.grid.tolist()]
    head = head.replace("cretan-matrix 2", "cretan-matrix 1", 1)
    return head + "\nentries\n" + "".join(" ".join(r) + "\n" for r in rows)


def _bits(entries) -> np.ndarray:
    """Complex entries as their bit patterns: -0.0 and the sign of a nan
    count."""
    return np.ascontiguousarray(entries, dtype=np.complex128).view("V16")


def test_exact_round_trip_rational():
    m = basic_family(9)
    text = serialize_matrix(m)
    assert "-2/7" in text
    again = parse_matrix(text)
    assert again == m
    assert serialize_matrix(again) == text


def test_exact_round_trip_quadratic():
    m = sbibd_two_level(singer_difference_set(2, 3).develop())[0]
    text = serialize_matrix(m)
    assert "sqrt(3)" in text
    again = parse_matrix(text)
    assert again == m
    assert again.omega == Scalar(14, 3, 3, 2)


def test_float_round_trip():
    m = float_product()
    assert m.mode == "float" and m.tau == 4
    text = serialize_matrix(m)
    again = parse_matrix(text)
    assert again == m
    assert serialize_matrix(again) == text


def test_complex_round_trip():
    m = conference_complex(paley_conference(5))
    text = serialize_matrix(m)
    again = parse_matrix(text)
    assert again.order == m.order and again.omega == m.omega
    assert np.array_equal(again.entries, m.entries)
    assert serialize_matrix(again) == text


def _odd_complex():
    """Entries holding -0.0, nan with either sign bit, and +-inf."""
    nan, inf = float("nan"), float("inf")
    E = np.array([[complex(-0.0, 0.0), complex(nan, -0.0), complex(inf, 1)],
                  [complex(-inf, nan), 0j, complex(0.0, -0.0)],
                  [complex(-nan, 0), 1 + 1j, complex(0.1, 1 / 3)]])
    return ComplexLevelMatrix(3, E, 3.0, "odd", {})


_COMPLEX = ([conference_complex(paley_conference(q))
             for q in (5, 9, 13, 17, 25, 29)]
            + [gh_to_complex(gh_from_field(p, k))
               for p, k in ((2, 3), (3, 2), (5, 1), (7, 1))])


@pytest.mark.parametrize("m", _COMPLEX + [_odd_complex()],
                         ids=lambda m: "%s-%d" % (m.method, m.order))
def test_complex_writer_matches_the_per_entry_text(m):
    # the levels line lists each token of the per-entry v1 text once,
    # and the file reads back as that text does, bit for bit
    text, v1 = serialize_matrix(m), v1_text(m)
    levels = re.search(r"^levels (.*)$", text, re.M).group(1).split()
    assert sorted(levels) == sorted(set(v1.split("entries\n")[1].split()))
    again, old = parse_matrix(text), parse_matrix(v1)
    assert (_bits(again.entries) == _bits(old.entries)).all()
    assert serialize_matrix(again) == serialize_matrix(old)
    assert serialize_matrix(again) == text
    # equal to m, -0.0 included, but for the sign of a nan, which repr
    # does not write
    assert np.array_equal(again.entries, m.entries, equal_nan=True)
    for part in (np.real, np.imag):
        a, b = part(again.entries), part(m.entries)
        assert (np.signbit(a) == np.signbit(b))[~np.isnan(b)].all()


@pytest.mark.parametrize("bad, message", [
    ("1.0;0.0", "expected re,im pair, got '1.0;0.0'"),
    ("1.0,x", "bad complex entry '1.0,x'"),
    ("1.0,0.0,0.0", "bad complex entry '1.0,0.0,0.0'"),
    ("1_0.0,0.0", "bad complex entry '1_0.0,0.0'"),
])
def test_bad_complex_token_keeps_its_message_and_line(bad, message):
    lines = v1_text(conference_complex(paley_conference(5))).splitlines()
    body = lines.index("entries") + 1
    # a token first seen on the fourth entry row, after good ones
    row = lines[body + 3].split()
    row[2] = bad
    lines[body + 3] = " ".join(row)
    with pytest.raises(ParseError) as err:
        parse_matrix("\n".join(lines) + "\n")
    assert err.value.line == body + 4
    assert str(err.value) == "line %d: %s" % (body + 4, message)


def test_group_round_trip():
    m = gw_z3_order5()
    text = serialize_matrix(m)
    assert "⋆" in text
    again = parse_matrix(text)
    assert (again.kind, again.group_order, again.weight) == ("GW", 3, 4)
    assert np.array_equal(again.entries, m.entries)
    assert serialize_matrix(again) == text


def test_golden_file_shape():
    want = (
        "cretan-matrix 2\n"
        "mode exact\n"
        "order 2\n"
        "tau 2\n"
        "omega 1\n"
        "method identity\n"
        "levels 0 1\n"
        "entries\n"
        "10\n"
        "01\n"
    )
    assert serialize_matrix(identity2()) == want


def test_save_and_load(tmp_path):
    p = tmp_path / "m.cm"
    m = basic_family(5)
    save_matrix(m, p)
    assert load_matrix(p) == m


def test_save_that_cannot_serialize_keeps_the_old_file(tmp_path):
    p = tmp_path / "m.cm"
    save_matrix(basic_family(5), p)
    before = p.read_bytes()
    with pytest.raises(TypeError):
        save_matrix(object(), p)
    assert p.read_bytes() == before


def test_parse_bad_magic():
    with pytest.raises(ParseError) as err:
        parse_matrix("something else\n")
    assert err.value.line == 1


def test_parse_truncated_grid():
    text = serialize_matrix(basic_family(5))
    clipped = "\n".join(text.splitlines()[:-1]) + "\n"
    with pytest.raises(ParseError) as err:
        parse_matrix(clipped)
    assert "entry rows" in str(err.value)


def test_parse_bad_token_reports_line():
    text = v1_text(identity2())
    broken = text.replace("0 1", "0 wat")
    with pytest.raises(ParseError) as err:
        parse_matrix(broken)
    assert err.value.line == 9
    assert "line 9" in str(err.value)


def test_parse_missing_entries_marker():
    with pytest.raises(ParseError):
        parse_matrix(MATRIX_MAGIC + "\nmode exact\norder 1\nomega 1\n")


def test_parse_unknown_mode():
    text = serialize_matrix(identity2()).replace("mode exact", "mode iffy")
    with pytest.raises(ParseError) as err:
        parse_matrix(text)
    assert "mode" in str(err.value)


@pytest.mark.parametrize("after, repeat, line, what", [
    ("omega 1", "omega 5", 6, "repeated omega header"),
    ("order 2", "order 3", 4, "repeated order header"),
    ("method identity", "param a 1\nparam a 2", 8, "repeated param a"),
])
def test_parse_repeated_key(after, repeat, line, what):
    text = serialize_matrix(identity2())
    with pytest.raises(ParseError) as err:
        parse_matrix(text.replace(after, after + "\n" + repeat, 1))
    assert err.value.line == line and what in str(err.value)


def test_parse_repeated_note():
    text = serialize_matrix(identity2()).replace(
        "method identity", "method identity\nnote a\nnote a")
    assert parse_matrix(text).notes == ("a", "a")


def test_parse_empty():
    with pytest.raises(ParseError):
        parse_matrix("")


def test_parse_bad_complex_pair():
    text = serialize_matrix(conference_complex(paley_conference(5)))
    broken = text.replace("1.0,0.0", "1.0;0.0", 1)
    with pytest.raises(ParseError):
        parse_matrix(broken)


def test_parse_group_range_check():
    text = serialize_matrix(gw_z3_order5()).replace(" 2", " 7", 1)
    with pytest.raises(ParseError):
        parse_matrix(text)


def test_pgm_golden_unit():
    unit = from_values([[Scalar(1)]], Scalar(1), "unit")
    assert render_pgm(unit) == "P2\n1 1\n255\n255\n"


def test_pgm_identity_shades():
    out = render_pgm(identity2())
    assert out == "P2\n2 2\n255\n255 128\n128 255\n"


def test_shades_interpolate():
    m = sbibd_two_level(qr_difference_set(3).develop().complement())[0]
    shades = shade_grid(m)
    # levels 1 and -1/2 only
    assert set(shades.ravel().tolist()) == {64, 255}


def test_shades_complex_and_group():
    c = conference_complex(paley_conference(5))
    assert shade_grid(c)[0, 0] == 128          # i on the diagonal
    g = gw_z3_order5()
    sg = shade_grid(g)
    assert sg[0, 0] == 128                     # star cell
    assert sg[0, 1] == 255                     # exponent 0 -> +1


def test_svg_structure():
    unit = from_values([[Scalar(1)]], Scalar(1), "unit")
    svg = render_svg(unit)
    assert svg.startswith('<svg xmlns="http://www.w3.org/2000/svg"')
    assert svg.count("<rect") == 1
    assert 'fill="#ffffff"' in svg
    m13 = sbibd_two_level(singer_difference_set(2, 3).develop())[0]
    svg13 = render_svg(m13)
    assert svg13.count("<rect") == 169
    assert svg13 == render_svg(m13)


def test_render_dispatch():
    unit = from_values([[Scalar(1)]], Scalar(1), "unit")
    assert render(unit, "pgm").startswith("P2")
    assert render(unit).startswith("<svg")
    with pytest.raises(ValueError):
        render(unit, "png")


def test_certificate_report():
    import json

    from cretan.files import serialize_certificate
    from cretan.verify import verify_cretan

    cert = verify_cretan(basic_family(9))
    doc = json.loads(serialize_certificate(cert))
    assert doc["strict"] is True
    assert doc["radius"] == "81/49"
    assert doc["tau"] == 2 and doc["gram_path"] == "lift-float32"
    assert doc["bounds"]["hadamard_log"] > doc["det"]["log_abs_det"] / 1e9


def test_singular_matrix_certificate_is_strict_json(tmp_path, capsys):
    import json

    from cretan.files import serialize_certificate
    from cretan.verify import verify_cretan

    def refuse(token):
        raise ValueError("not JSON: %s" % token)

    ones = from_values([[Scalar(1)] * 2] * 2, Scalar(2), "ones")
    zero = from_values([[Scalar(0)] * 2] * 2, Scalar(0), "zero")
    for m, exact, residual in ((ones, False, None), (zero, True, 0.0)):
        doc = json.loads(serialize_certificate(verify_cretan(m)),
                         parse_constant=refuse)
        # log |det| is -inf, written as null
        assert doc["det"] == {"exact": exact, "residual": residual,
                              "log_abs_det": None}
        path = tmp_path / ("%s.txt" % m.method)
        save_matrix(m, path)
        assert main(["verify", str(path)]) == (1 if m is ones else 0)
        out = capsys.readouterr().out
        assert "nan" not in out
        assert re.search(r"^det identity +%s$" % (
            "exact" if exact else "residual inf"), out, re.M)


def test_float_token_never_merges_into_exact_level():
    # the row that holds a float token in an exact file is named
    text = v1_text(identity2()).replace("0 1\n", "0 f1.0\n")
    with pytest.raises(ParseError) as err:
        parse_matrix(text)
    assert err.value.line == 9 and "float entry" in str(err.value)
    # f1.0 equals no exact level, so a float file reads three levels: 0,
    # 1 and f1.0, against the tau 2 header
    with pytest.raises(ParseError) as err:
        parse_matrix(text.replace("mode exact", "mode float"))
    assert "header says tau 2, but the entries take 3" in str(err.value)
    with pytest.raises(ParseError):
        parse_matrix(serialize_matrix(identity2())
                     .replace("omega 1", "omega f1.0"))


def test_parse_rejects_zero_denominator_and_order():
    text = v1_text(identity2())
    for token in ("1/0", "(1+1*sqrt(2))/0"):
        with pytest.raises(ParseError) as err:
            parse_matrix(text.replace("0 1\n", "0 %s\n" % token))
        assert err.value.line == 9
    with pytest.raises(ParseError) as err:
        parse_matrix(text.replace("omega 1", "omega 1/0"))
    for order in ("0", "-1"):
        bad = text.replace("order 2", "order " + order)
        with pytest.raises(ParseError) as err:
            parse_matrix(bad)
        assert err.value.line == 3      # the order header's own line


def test_parse_large_radicand_tokens():
    p = 100000000000031
    # the replaced token adds a third value
    text = v1_text(identity2()).replace("tau 2", "tau 3")
    m = parse_matrix(text.replace("0 1\n", "0 (0+1*sqrt(%d))/1\n"
                                  % (3 * p * p)))
    assert Scalar(0, p, 3) in m.levels
    m = parse_matrix(text.replace("0 1\n", "0 (0+1*sqrt(%d))/1\n"
                                  % (2 * p ** 3)))
    assert Scalar(0, p, 2 * p) in m.levels
    # p^2 q with two 14-digit primes cannot be split within the budget
    q, r = 70000000000009, 30000000000011       # primes
    with pytest.raises(ParseError) as err:
        parse_matrix(text.replace("0 1\n", "0 (0+1*sqrt(%d))/1\n"
                                  % (q * q * r)))
    assert err.value.line == 9


def test_parse_refuses_radicands_past_the_cap():
    # refused before int(): Python 3.11 and later refuse 4400 digits
    # themselves, 3.10 would factor them
    text = v1_text(identity2()).replace("tau 2", "tau 3")
    for digits in (51, 4400):
        token = "(0+1*sqrt(%s))/1" % ("7" * digits)
        with pytest.raises(ParseError, match="longer than 50 digits") as err:
            parse_matrix(text.replace("0 1\n", "0 %s\n" % token))
        assert err.value.line == 9


def test_parse_rejects_non_finite_floats():
    text = v1_text(float_product())
    head, body = text.split("entries\n")
    first_row = head.count("\n") + 2
    for token in ("fnan", "finf", "f-inf"):
        bad = head + "entries\n" + token + body[body.index(" "):]
        with pytest.raises(ParseError) as err:
            parse_matrix(bad)
        assert err.value.line == first_row and "non-finite" in str(err.value)


def test_parse_group_header_errors():
    text = serialize_matrix(gw_z3_order5())
    # a bad header is reported at its own line (5), a missing one at the
    # entries marker (line 7 once the header is gone: the levels line
    # comes before it)
    for old, new, line in (("group-order 3\n", "", 7),
                           ("group-order 3", "group-order 0", 5),
                           ("group-order 3", "group-order 40000", 5),
                           ("kind GW", "kind GX", 4)):
        with pytest.raises(ParseError) as err:
            parse_matrix(text.replace(old, new))
        assert err.value.line == line


def test_parse_takes_ascii_digits_only():
    exact = v1_text(identity2())
    group = v1_text(gw_z3_order5())
    cmplx = v1_text(conference_complex(paley_conference(5)))
    cases = [(exact, "0 1\n", "0 \u0661\n", 9),
             (exact, "order 2", "order \u0662", 3),
             (exact, "order 2", "order 0_2", 3),
             (group, " 2", " 0_2", None),
             (group, " 2", " \u0662", None),
             (group, "group-order 3", "group-order 0_3", 5),
             (group, "group-order 3", "group-order \u0663", 5),
             (group, "weight 4", "weight 0_4", 6),
             (cmplx, "1.0,0.0", "1_0.0,0.0", None),
             (cmplx, "1.0,0.0", "\u0661.0,0.0", None)]
    for text, old, new, line in cases:
        assert old in text
        with pytest.raises(ParseError) as err:
            parse_matrix(text.replace(old, new, 1))
        if line is not None:
            assert err.value.line == line


def test_parse_more_levels_than_int16_indexes(tmp_path, capsys):
    # 190^2 = 36100 distinct entries, above the 32768 levels an int16
    # grid can index: a ParseError, and exit 2 without a traceback
    n = 190
    rows = [" ".join("%d/%d" % (i * n + j + 1, n * n) for j in range(n))
            for i in range(n)]
    text = ("cretan-matrix 1\nmode exact\norder %d\nomega 1\nentries\n"
            % n) + "\n".join(rows) + "\n"
    with pytest.raises(ParseError, match="int16") as err:
        parse_matrix(text)
    assert err.value.line == 5
    path = tmp_path / "levels.txt"
    path.write_text(text)
    assert main(["verify", str(path)]) == 2
    assert "int16" in capsys.readouterr().err


def test_tau_header_is_checked():
    hadamard = ("cretan-matrix 1\nmode exact\norder 2\ntau 2\nomega 2\n"
                "method hand\nentries\n1 1\n1 -1\n")
    assert parse_matrix(hadamard).tau == 2
    # the header is optional
    assert parse_matrix(hadamard.replace("tau 2\n", "")).tau == 2
    # tau is an integer header, read like order: 02 is 2
    assert parse_matrix(hadamard.replace("tau 2", "tau 02")).tau == 2
    for tau in ("3", "1", "x"):
        with pytest.raises(ParseError) as err:
            parse_matrix(hadamard.replace("tau 2", "tau " + tau))
        # the error names the tau header's own line
        assert err.value.line == 4 and "tau" in str(err.value)
    # tau counts the values after equal tokens merge: 1 and 2/2 are one
    merged = hadamard.replace("1 1\n1 -1", "1 2/2\n-1 1")
    assert parse_matrix(merged).tau == 2
    with pytest.raises(ParseError):
        parse_matrix(merged.replace("tau 2", "tau 3"))


def test_header_errors_name_their_own_line():
    text = ("cretan-matrix 1\nmethod hand\ntau 2\nomega 2\norder 2\n"
            "mode exact\nentries\n1 1\n1 -1\n")
    assert parse_matrix(text).omega == Scalar(2)
    cases = [("mode exact", "mode bogus", 6),
             ("mode exact", "mode float", 6),   # disagrees with the entries
             ("order 2", "order x", 5),
             ("omega 2", "omega 2/0", 4),
             ("omega 2\n", "", 6),             # missing: the entries marker
             ("tau 2", "tau 1", 3)]
    for old, new, line in cases:
        with pytest.raises(ParseError) as err:
            parse_matrix(text.replace(old, new))
        assert err.value.line == line, (old, new, str(err.value))


def test_every_mode_swap_raises_parse_error():
    samples = [identity2(), float_product(),
               conference_complex(paley_conference(5)), gw_z3_order5()]
    modes = ("exact", "float", "complex", "group")
    for m in samples:
        text = serialize_matrix(m)
        mode = re.search(r"^mode (\w+)$", text, re.M).group(1)
        for other in modes:
            if other != mode:
                with pytest.raises(ParseError):
                    parse_matrix(text.replace("mode " + mode,
                                              "mode " + other))


# -- round-trip properties ----------------------------------------------------

_ints = st.integers(-40, 40)
_dens = st.integers(1, 12)


@st.composite
def exact_matrices(draw):
    d = draw(st.sampled_from([0, 2, 3, 5]))
    levels = draw(st.lists(st.builds(Scalar, _ints, _ints, st.just(d), _dens),
                           min_size=1, max_size=4))
    n = draw(st.integers(1, 6))
    grid = draw(st.lists(st.lists(st.sampled_from(levels), min_size=n,
                                  max_size=n), min_size=n, max_size=n))
    omega = draw(st.builds(Scalar, _ints, _ints, st.just(d), _dens))
    return from_values(grid, omega, "random")


_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def float_matrices(draw):
    levels = draw(st.lists(st.one_of(_finite.map(FloatLevel),
                                     st.builds(Scalar, _ints)),
                           min_size=1, max_size=4))
    n = draw(st.integers(1, 6))
    grid = draw(st.lists(st.lists(st.sampled_from(levels), min_size=n,
                                  max_size=n), min_size=n, max_size=n))
    omega = FloatLevel(draw(_finite))
    return from_values(grid, omega, "random")


@st.composite
def group_matrices(draw):
    n = draw(st.integers(1, 6))
    g = draw(st.integers(1, 5))
    cells = st.sampled_from([STAR] + list(range(g)))
    entries = draw(st.lists(st.lists(cells, min_size=n, max_size=n),
                            min_size=n, max_size=n))
    kind = draw(st.sampled_from(["GH", "GW"]))
    return GroupMatrix(n, g, np.array(entries), kind,
                       draw(st.integers(0, n)))


@settings(max_examples=60, deadline=None)
@given(st.one_of(exact_matrices(), float_matrices()))
def test_level_round_trip_property(m):
    text = serialize_matrix(m)
    again = parse_matrix(text)
    assert again == m and again.mode == m.mode
    assert serialize_matrix(again) == text


@settings(max_examples=60, deadline=None)
@given(group_matrices())
def test_group_round_trip_property(m):
    again = parse_matrix(serialize_matrix(m))
    assert (again.order, again.group_order, again.kind, again.weight) == \
        (m.order, m.group_order, m.kind, m.weight)
    assert np.array_equal(again.entries, m.entries)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.one_of(st.integers(-3, 3), st.integers(-2 ** 15, 2 ** 15 - 1)),
    min_size=n * n, max_size=n * n)))
def test_group_rows_write_each_int16_entry(values):
    # a negative entry must not pick another entry's token
    n = int(round(len(values) ** 0.5))
    m = GroupMatrix(n, 3, np.array(values).reshape(n, n), "GH")
    lines = serialize_matrix(m).splitlines()
    levels = lines[-n - 2].split(" ")
    assert levels[0] == "levels" and len(levels) == len(set(values)) + 1
    width = len(str(len(levels) - 2))
    for i, row in enumerate(lines[-n:]):
        codes = [int(row[k:k + width]) for k in range(0, len(row), width)]
        assert [levels[1 + c] for c in codes] == [
            "\u22c6" if x == STAR else str(x)
            for x in values[i * n:(i + 1) * n]]


_token_alphabet = "0123456789-+/*().,fsqrtina \u22c6\n"
_replacements = st.one_of(
    st.text(_token_alphabet, max_size=10),
    st.sampled_from(["fnan", "finf", "f-inf", "1/0", "(1+1*sqrt(2))/0",
                     "\u22c6", "*", "exact", "float", "complex", "group",
                     "GW", "0", "-1", "40000", "f1.0", "1,0", "entries",
                     "(1+1*sqrt(100000000000031))/3"]))


@settings(max_examples=200, deadline=None)
@given(st.one_of(exact_matrices(), float_matrices(), group_matrices(),
                 st.just(conference_complex(paley_conference(5)))),
       st.data())
def test_one_token_mutation_raises_only_parse_error(m, data):
    # v1 rows are tokens; the v2 rows are mutated a character at a time
    # below
    text = v1_text(m)
    body = text.index("\nentries\n")
    spans = [t.span() for t in re.finditer(r"\S+", text)]
    # header and body tokens are picked equally often
    a, b = data.draw(st.one_of(
        st.sampled_from([s for s in spans if s[0] < body]),
        st.sampled_from([s for s in spans if s[0] > body])))
    mutated = text[:a] + data.draw(_replacements) + text[b:]
    try:
        parse_matrix(mutated)
    except ParseError:
        pass


# -- the v1 row codec against the per-entry code it replaced ------------------

def _oracle_parse_level(header, params, notes, rows, body_at, order):
    try:
        omega = parse_scalar(header["omega"])
    except (KeyError, ValueError):
        raise ParseError("missing or bad omega header", header.line("omega"))
    exact = header["mode"] == "exact"
    ids: dict = {}
    values = []
    codes = np.empty((order, order), dtype=np.intp)
    for i, row in enumerate(rows):
        line = body_at + 1 + i
        if exact and "f" in row:
            raise ParseError("float entry in a mode exact file", line)
        toks = files._tokens(row, order, line)
        for t in dict.fromkeys(toks):
            if t not in ids:
                try:
                    values.append(parse_scalar(t))
                except ValueError as exc:
                    raise ParseError(str(exc), line)
                ids[t] = len(ids)
        codes[i] = [ids[t] for t in toks]
    try:
        m = from_codes(values, codes, omega, header.get("method", ""),
                       params, tuple(notes))
    except ValueError as exc:
        raise ParseError(str(exc), body_at)
    if m.mode != header["mode"]:
        raise ParseError("header says mode %s, but the entries and omega "
                         "are %s" % (header["mode"], m.mode),
                         header.line("mode"))
    if "tau" in header and header.integer("tau") != m.tau:
        raise ParseError("header says tau %s, but the entries take %d "
                         "values" % (header["tau"], m.tau),
                         header.line("tau"))
    return m


def _oracle_parse_group(header, rows, body_at, order):
    g = header.integer("group-order")
    weight = header.integer("weight", "0")
    if not 1 <= g <= np.iinfo(np.int16).max:
        raise ParseError("group order %d out of range" % g,
                         header.line("group-order"))
    kind = header.get("kind", "GH")
    if kind not in ("GH", "GW"):
        raise ParseError("kind must be GH or GW", header.line("kind"))
    values = {STAR_TOKEN: STAR, "*": STAR}
    entries = np.zeros((order, order), dtype=np.int16)
    for i, row in enumerate(rows):
        line = body_at + 1 + i
        toks = files._tokens(row, order, line)
        for t in dict.fromkeys(toks):
            if t in values:
                continue
            try:
                val = parse_int(t)
            except ValueError:
                raise ParseError("bad group entry %r" % t, line)
            if not 0 <= val < g:
                raise ParseError("entry %d outside group of order %d"
                                 % (val, g), line)
            values[t] = val
        entries[i] = [values[t] for t in toks]
    return GroupMatrix(order, g, entries, kind, weight)


def _oracle_parse(text: str):
    """parse_matrix with the per-row parsers in place of the row codec."""
    with mock.patch.object(files, "_parse_level", _oracle_parse_level), \
            mock.patch.object(files, "_parse_group", _oracle_parse_group):
        return parse_matrix(text)


def _outcome(parse, text):
    """The matrix parse gives, or the message and line of its error."""
    try:
        return parse(text), None
    except ParseError as exc:
        return None, (str(exc), exc.line)


def _same_matrix(a, b) -> bool:
    if isinstance(a, GroupMatrix):
        return (a.order, a.group_order, a.kind, a.weight) == \
            (b.order, b.group_order, b.kind, b.weight) \
            and a.entries.dtype == b.entries.dtype \
            and np.array_equal(a.entries, b.entries)
    return a == b and a.mode == b.mode and a.grid.dtype == b.grid.dtype


@st.composite
def codec_level_matrices(draw):
    """Level grids with 1 to 40 levels, exact or float; with two or more
    levels, one of them first appears on a late row."""
    n = draw(st.integers(1, 9))
    tau = draw(st.integers(1, min(40, n * n)))
    kind = draw(st.sampled_from(("rational", "quadratic", "float")))
    d = draw(st.sampled_from((2, 3, 5)))
    if kind == "float":
        level = st.one_of(_finite.map(FloatLevel),
                          st.builds(Scalar, _ints))
    elif kind == "quadratic":
        level = st.builds(Scalar, _ints, _ints, st.just(d), _dens)
    else:
        level = st.builds(Scalar, _ints, st.just(0), st.just(0), _dens)
    values = draw(st.lists(level, min_size=tau, max_size=tau,
                           unique_by=lambda l: (l.is_float, l)))
    # the last value first appears on row `first`, in the later half
    first = draw(st.integers(n // 2, n - 1)) if tau > 1 else 0
    codes = [draw(st.integers(0, tau - (2 if k < first * n else 1)))
             for k in range(n * n)]
    late = draw(st.integers(first * n, n * n - 1))
    codes[late] = tau - 1
    # every other value appears too, at distinct cells
    cells = [c for c in draw(st.permutations(range(n * n))) if c != late]
    for u in range(tau - 1):
        codes[cells[u]] = u
    codes = np.array(codes, dtype=np.intp).reshape(n, n)
    omega = values[0] if kind == "float" else draw(level)
    params = draw(st.dictionaries(st.sampled_from("abc"),
                                  st.integers(0, 9).map(str), max_size=2))
    notes = tuple(draw(st.lists(st.sampled_from(("x", "y z")),
                                max_size=2)))
    if kind == "float" and not omega.is_float:
        omega = FloatLevel(0.5)
    return from_codes(values, codes, omega, "random", params, notes)


@st.composite
def codec_group_matrices(draw):
    n = draw(st.integers(1, 9))
    g = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["GH", "GW"]))
    cells = st.sampled_from([STAR] + list(range(g)))
    entries = draw(st.lists(cells, min_size=n * n, max_size=n * n))
    return GroupMatrix(n, g, np.array(entries).reshape(n, n), kind,
                       draw(st.integers(0, n)))


@settings(max_examples=150, deadline=None)
@given(st.one_of(codec_level_matrices(), codec_group_matrices()))
def test_row_codec_matches_the_per_entry_oracle(m):
    text = v1_text(m)
    got, want = _outcome(parse_matrix, text), _outcome(_oracle_parse, text)
    assert got[1] is None and want[1] is None
    assert _same_matrix(got[0], want[0]) and _same_matrix(got[0], m)
    assert serialize_matrix(got[0]) == serialize_matrix(m)


def _bad_tokens(m):
    """Tokens that break a row of m."""
    if isinstance(m, GroupMatrix):
        return st.sampled_from([
            str(m.group_order), "40000", "-1", "x", "1_0", "١"])
    toks = ["1/0", "x", "(1+1*sqrt(2))/0", "sqrt", "١", "2/"]
    if m.mode == "exact":
        toks += ["f0.5", "f1.0"]
    return st.sampled_from(toks)


@settings(max_examples=200, deadline=None)
@given(st.one_of(codec_level_matrices(), codec_group_matrices()),
       st.data())
def test_row_codec_errors_match_the_oracle(m, data):
    """One to three rows broken, each by a bad token, a float token in a
    mode exact file, a group entry out of range, or a wrong count: the
    codec raises the oracle's message on the oracle's line."""
    lines = v1_text(m).splitlines()
    body = lines.index("entries") + 1
    for _ in range(data.draw(st.integers(1, 3))):
        i = body + data.draw(st.integers(0, m.order - 1))
        toks = lines[i].split(" ")
        how = data.draw(st.sampled_from(("token", "drop", "add")))
        if how == "token":
            toks[data.draw(st.integers(0, len(toks) - 1))] = \
                data.draw(_bad_tokens(m))
        elif how == "drop":
            toks.pop(data.draw(st.integers(0, len(toks) - 1)))
        else:
            toks.append(toks[0])
        lines[i] = " ".join(toks)
    text = "\n".join(lines) + "\n"
    got, want = _outcome(parse_matrix, text), _outcome(_oracle_parse, text)
    assert got[1] == want[1]
    if want[1] is None:
        assert _same_matrix(got[0], want[0])


@pytest.mark.parametrize("faults, message", [
    # a bad token on row 2, a wrong count on row 3
    ([(2, 1, "x"), (3, None, "1")], "line 11: malformed scalar token: 'x'"),
    # the float check comes before the count on the same row
    ([(2, None, "f0.5")], "line 11: float entry in a mode exact file"),
    # two new bad tokens on one row: the first in row order is named
    ([(4, 0, "x"), (4, 2, "1/0")], "line 13: malformed scalar token: 'x'"),
])
def test_row_codec_names_the_first_bad_row(faults, message):
    lines = v1_text(basic_family(6)).splitlines()
    body = lines.index("entries") + 1
    for row, j, tok in faults:
        toks = lines[body + row].split()
        if j is None:
            toks.append(tok)
        else:
            toks[j] = tok
        lines[body + row] = " ".join(toks)
    text = "\n".join(lines) + "\n"
    got, want = _outcome(parse_matrix, text), _outcome(_oracle_parse, text)
    assert got[1] == want[1] and got[1][0].startswith(message)


# -- v2 files: the levels line and the fixed-width code rows ------------------

_IDENTITY_V2 = serialize_matrix(identity2())    # levels on line 7, rows 9-10
_GROUP_V2 = serialize_matrix(gw_z3_order5())     # levels on line 7
_COMPLEX_V2 = serialize_matrix(conference_complex(paley_conference(5)))


@pytest.mark.parametrize("text, old, new, line, message", [
    (_IDENTITY_V2, "levels 0 1\n", "", 7, "missing levels line"),
    (_IDENTITY_V2, "levels 0 1", "levels", 7, "empty levels line"),
    (_IDENTITY_V2, "levels 0 1", "levels  ", 7, "empty levels line"),
    (_IDENTITY_V2, "levels 0 1", "levels 0 wat", 7,
     "malformed scalar token: 'wat'"),
    (_IDENTITY_V2, "levels 0 1", "levels 0 1/0", 7,
     "malformed scalar token: '1/0'"),
    (_IDENTITY_V2, "levels 0 1", "levels 0 f1.0", 7,
     "float entry in a mode exact file"),
    (_GROUP_V2, "levels ⋆ 0 1 2", "levels ⋆ 0 1 7", 7,
     "entry 7 outside group of order 3"),
    (_COMPLEX_V2, "levels ", "levels 1.0;0.0 ", 7,
     "expected re,im pair, got '1.0;0.0'"),
    # the rows: exactly order codes of width digits, ASCII only
    (_IDENTITY_V2, "10\n01\n", "10\n0\n", 10, "2 codes of 1 ASCII digits"),
    (_IDENTITY_V2, "10\n01\n", "100\n01\n", 9, "2 codes of 1 ASCII digits"),
    (_IDENTITY_V2, "10\n01\n", "1 0\n01\n", 9, "ASCII digits"),
    (_IDENTITY_V2, "10\n01\n", "10\n+1\n", 10, "ASCII digits"),
    # str.isdigit alone takes digits of other scripts
    (_IDENTITY_V2, "10\n01\n", "10\n0٣\n", 10, "ASCII digits"),
    (_IDENTITY_V2, "10\n01\n", "10\n0١\n", 10, "ASCII digits"),
    # a lone surrogate, which has no UTF-8 encoding
    (_IDENTITY_V2, "10\n01\n", "10\n0\ud800\n", 10, "ASCII digits"),
    (_IDENTITY_V2, "levels 0 1\n", "levels 0 1 2 3 4 5 6 7 8 9 10\n", 9,
     "2 codes of 2 ASCII digits"),
    # a code at or past the table: the first such row is named
    (_IDENTITY_V2, "10\n01\n", "10\n02\n", 10, "code past the 2-entry"),
    (_IDENTITY_V2, "10\n01\n", "19\n92\n", 9, "code past the 2-entry"),
    # a token no entry uses: named on the levels line
    (_IDENTITY_V2, "levels 0 1", "levels 0 1 1/2", 7,
     "levels token '1/2' is used by no entry"),
    (_GROUP_V2, "levels ⋆ 0 1 2", "levels ⋆ 0 1 2 ⋆", 7,
     "levels token '⋆' is used by no entry"),
])
def test_v2_parse_errors_name_their_line(text, old, new, line, message):
    assert text.count(old) == 1
    with pytest.raises(ParseError) as err:
        parse_matrix(text.replace(old, new))
    assert err.value.line == line
    assert message in str(err.value), str(err.value)


def test_v2_mode_and_tau_checks_still_run():
    # a float token in a float file reads as a third level against tau 2
    text = _IDENTITY_V2.replace("mode exact", "mode float").replace(
        "levels 0 1", "levels 0 1 f1.0").replace("01\n", "02\n")
    with pytest.raises(ParseError) as err:
        parse_matrix(text)
    assert err.value.line == 4 and "header says tau 2" in str(err.value)
    # equal tokens merge after the table is read: 1 and 2/2 are one
    merged = _IDENTITY_V2.replace("levels 0 1", "levels 0 1 2/2").replace(
        "01\n", "02\n")
    assert parse_matrix(merged) == identity2()


def _wide(kind: str, tau: int):
    """An order-11 matrix of the kind with tau distinct entries."""
    n = 11
    codes = np.arange(n * n).reshape(n, n) % tau
    if kind == "level":
        return from_codes([Scalar(k, 0, 0, 101) for k in range(tau)], codes,
                          Scalar(1), "wide", {"tau": str(tau)}, ("wide",))
    if kind == "group":
        return GroupMatrix(n, tau, codes - 1, "GW", 3)
    return ComplexLevelMatrix(n, np.exp(2j * np.pi * codes / tau), 1.0,
                              "wide", {})


@pytest.mark.parametrize("kind", ["level", "group", "complex"])
@pytest.mark.parametrize("tau, width", [(2, 1), (10, 1), (11, 2), (100, 2),
                                        (101, 3)])
def test_v2_round_trip_at_each_code_width(kind, tau, width):
    m = _wide(kind, tau)
    text = serialize_matrix(m)
    lines = text.splitlines()
    assert len(lines[-13].split()) == tau + 1 and lines[-12] == "entries"
    assert all(len(row) == 11 * width for row in lines[-11:])
    again = parse_matrix(text)
    assert serialize_matrix(again) == text
    if kind == "complex":
        assert (_bits(again.entries) == _bits(m.entries)).all()
    else:
        assert _same_matrix(again, m)


_complex_cells = st.complex_numbers(allow_nan=False)


@st.composite
def complex_matrices(draw):
    n = draw(st.integers(1, 6))
    values = draw(st.lists(_complex_cells, min_size=1, max_size=14))
    cells = draw(st.lists(st.sampled_from(values), min_size=n * n,
                          max_size=n * n))
    return ComplexLevelMatrix(n, np.array(cells).reshape(n, n),
                              draw(_finite), "random", {})


def _same_written_matrix(a, b) -> bool:
    """a and b equal in all a file keeps: level matrices in levels, grid,
    omega, method, params (as text) and notes; complex entries bit for
    bit."""
    if isinstance(a, ComplexLevelMatrix):
        return (a.order, a.omega, a.method, a.params) == \
            (b.order, b.omega, b.method, b.params) \
            and (_bits(a.entries) == _bits(b.entries)).all()
    if isinstance(a, GroupMatrix):
        return _same_matrix(a, b)
    return _same_matrix(a, b) and (a.method, a.notes) == (b.method, b.notes) \
        and {k: str(v) for k, v in a.params.items()} == \
        {k: str(v) for k, v in b.params.items()}


@settings(max_examples=80, deadline=None)
@given(st.one_of(codec_level_matrices(), codec_group_matrices(),
                 complex_matrices()))
def test_v2_round_trip_is_the_identity(m):
    # with params, notes, up to 41 levels, and complex entries; the
    # level and group properties above draw the plain cases
    text = serialize_matrix(m)
    again = parse_matrix(text)
    assert _same_written_matrix(again, m)
    assert serialize_matrix(again) == text


_char_alphabet = "0123456789 \n\t-+/*().,fsqrtinaelv⋆٣ x"


@settings(max_examples=300, deadline=None)
@given(st.one_of(exact_matrices(), float_matrices(), group_matrices(),
                 complex_matrices(),
                 st.just(conference_complex(paley_conference(5)))),
       st.data())
def test_v2_one_character_mutation_raises_only_parse_error(m, data):
    text = serialize_matrix(m)
    # the body and the header are picked equally often
    body = text.index("\nentries\n") + 9
    i = data.draw(st.one_of(st.integers(0, body - 1),
                            st.integers(body, len(text) - 1)))
    how = data.draw(st.sampled_from(("replace", "delete", "insert")))
    c = data.draw(st.sampled_from(_char_alphabet))
    mutated = {"replace": text[:i] + c + text[i + 1:],
               "delete": text[:i] + text[i + 1:],
               "insert": text[:i] + c + text[i:]}[how]
    try:
        parse_matrix(mutated)
    except ParseError:
        pass


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(exact_matrices(), float_matrices()),
                min_size=2, max_size=3),
       st.booleans())
def test_factored_writer_matches_the_writer_on_the_built_grid(ms, right):
    """A factored product, nested on the right or on the left when there
    are three factors, is written as its built grid is."""
    if len(ms) == 2:
        S = kronecker_cretan(*ms)
    elif right:
        S = kronecker_cretan(ms[0], kronecker_cretan(ms[1], ms[2]))
    else:
        S = kronecker_cretan(kronecker_cretan(ms[0], ms[1]), ms[2])
    built = LevelMatrix(S.order, S.levels, S.factors and
                        kronecker_cretan(*S.factors[:2]).grid,
                        S.omega, S.method, S.params, S.notes)
    text = serialize_matrix(S)
    assert S._grid is None
    assert text == serialize_matrix(built)


# -- v1 files written before the v2 format still read -------------------------

_V1_DIR = Path(__file__).parent / "data" / "v1"
# each committed v1 file and what wrote it: `cretan construct` with
# (method, order), or gw_z3_order5
_V1_FILES = {
    "exact-13.txt": ("auto", 13),
    "direct-sum-12.txt": ("direct-sum", 12),
    "conference-6.txt": ("conference", 6),
    "gh-4.txt": ("gh", 4),
    "gw-z3-5.txt": None,
}


@pytest.mark.parametrize("name", sorted(_V1_FILES))
def test_v1_file_reads_as_its_v2_rewrite(name, tmp_path, capsys):
    v1 = _V1_DIR / name
    assert v1.read_text(encoding="utf-8").startswith("cretan-matrix 1\n")
    m = load_matrix(v1)
    # the same matrix the v1 writer was given
    how = _V1_FILES[name]
    made = gw_z3_order5() if how is None else cli._CONSTRUCTORS[how[0]](how[1])
    assert _same_written_matrix(m, made)
    v2 = tmp_path / name
    save_matrix(m, v2)
    assert v2.read_text(encoding="utf-8").startswith("cretan-matrix 2\n")
    assert _same_written_matrix(load_matrix(v2), m)
    # cretan verify prints the same report for both
    reports = []
    for path in (v1, v2):
        code = main(["verify", str(path)])
        reports.append((code, capsys.readouterr()))
    assert reports[0] == reports[1] and reports[0][0] == 0
