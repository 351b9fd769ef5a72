"""Serialization round trips, parse failures, and rendering."""

import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cretan import files
from cretan.constructions import (
    STAR,
    ComplexLevelMatrix,
    GroupMatrix,
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


def _complex_text_per_entry(m) -> str:
    """Oracle for the complex writer: every entry formatted on its own,
    row by row, after the same header lines."""
    head = serialize_matrix(m).split("\nentries\n")[0]
    rows = [" ".join("%r,%r" % (float(z.real), float(z.imag)) for z in row)
            for row in m.entries]
    return head + "\nentries\n" + "".join(r + "\n" for r in rows)


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
    text = serialize_matrix(m)
    assert text == _complex_text_per_entry(m)
    assert serialize_matrix(parse_matrix(text)) == text


@pytest.mark.parametrize("bad, message", [
    ("1.0;0.0", "expected re,im pair, got '1.0;0.0'"),
    ("1.0,x", "bad complex entry '1.0,x'"),
    ("1.0,0.0,0.0", "bad complex entry '1.0,0.0,0.0'"),
    ("1_0.0,0.0", "bad complex entry '1_0.0,0.0'"),
])
def test_bad_complex_token_keeps_its_message_and_line(bad, message):
    lines = serialize_matrix(conference_complex(paley_conference(5))) \
        .splitlines()
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
        "cretan-matrix 1\n"
        "mode exact\n"
        "order 2\n"
        "tau 2\n"
        "omega 1\n"
        "method identity\n"
        "entries\n"
        "1 0\n"
        "0 1\n"
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
    text = serialize_matrix(identity2())
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
    text = serialize_matrix(identity2()).replace("0 1\n", "0 f1.0\n")
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
    text = serialize_matrix(identity2())
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
    text = serialize_matrix(identity2()).replace("tau 2", "tau 3")
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


def test_parse_rejects_non_finite_floats():
    text = serialize_matrix(float_product())
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
    # entries marker (line 6 once the header is gone)
    for old, new, line in (("group-order 3\n", "", 6),
                           ("group-order 3", "group-order 0", 5),
                           ("group-order 3", "group-order 40000", 5),
                           ("kind GW", "kind GX", 4)):
        with pytest.raises(ParseError) as err:
            parse_matrix(text.replace(old, new))
        assert err.value.line == line


def test_parse_takes_ascii_digits_only():
    exact = serialize_matrix(identity2())
    group = serialize_matrix(gw_z3_order5())
    cmplx = serialize_matrix(conference_complex(paley_conference(5)))
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
    body = serialize_matrix(m).splitlines()[-n:]
    assert body == [" ".join("\u22c6" if x == STAR else str(x)
                             for x in values[i * n:(i + 1) * n])
                    for i in range(n)]


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
    text = serialize_matrix(m)
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


# -- the row codec against the per-entry code it replaced ---------------------

def _oracle_header(pairs) -> list:
    return [MATRIX_MAGIC] + ["%s %s" % (k, v) for k, v in pairs] + ["entries"]


def _oracle_serialize_level(m) -> str:
    pairs = [("mode", m.mode), ("order", m.order), ("tau", m.tau),
             ("omega", format_scalar(m.omega)), ("method", m.method)]
    pairs += [("param %s" % k, v) for k, v in sorted(m.params.items(),
                                                     key=lambda kv: kv[0])]
    pairs += [("note", n) for n in m.notes]
    lines = _oracle_header(pairs)
    toks = [format_scalar(l) for l in m.levels]
    for row in m.grid.tolist():
        lines.append(" ".join([toks[u] for u in row]))
    return "\n".join(lines) + "\n"


def _oracle_serialize_group(m) -> str:
    pairs = [("mode", "group"), ("order", m.order), ("kind", m.kind),
             ("group-order", m.group_order), ("weight", m.weight)]
    lines = _oracle_header(pairs)
    lo, hi = int(m.entries.min()), int(m.entries.max())
    toks = [STAR_TOKEN if x == STAR else str(x) for x in range(lo, hi + 1)]
    for row in m.entries.tolist():
        lines.append(" ".join([toks[x - lo] for x in row]))
    return "\n".join(lines) + "\n"


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


def _oracle_serialize(m) -> str:
    if isinstance(m, GroupMatrix):
        return _oracle_serialize_group(m)
    return _oracle_serialize_level(m)


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
    text = serialize_matrix(m)
    assert text == _oracle_serialize(m)
    got, want = _outcome(parse_matrix, text), _outcome(_oracle_parse, text)
    assert got[1] is None and want[1] is None
    assert _same_matrix(got[0], want[0]) and _same_matrix(got[0], m)


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
    lines = serialize_matrix(m).splitlines()
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
    lines = serialize_matrix(basic_family(6)).splitlines()
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
