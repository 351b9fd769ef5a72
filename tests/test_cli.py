"""End-to-end runs of the command-line driver."""

import contextlib
import math
import random
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from cretan import cli
from cretan.cli import main
from cretan.designs import MissingFixture
from cretan.files import load_matrix
from cretan.scalar import Scalar
from cretan.verify import det_bounds


def test_construct_basic_stdout(capsys):
    assert main(["construct", "--order", "9", "--method", "basic"]) == 0
    out = capsys.readouterr().out
    assert "omega 81/49" in out
    assert out.startswith("cretan-matrix 2")


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_construct_auto_writes_file(tmp_path, capsys):
    target = tmp_path / "m45.cm"
    code = main(["construct", "--order", "45", "--out", str(target)])
    assert code == 0
    m = load_matrix(target)
    assert m.omega == Scalar(81, 0, 0, 4)


def test_construct_sbibd_orders(capsys):
    assert main(["construct", "--order", "13", "--method", "sbibd"]) == 0
    assert "sqrt(3)" in capsys.readouterr().out
    assert main(["construct", "--order", "11", "--method", "sbibd"]) == 0
    out = capsys.readouterr().out
    assert "omega (42-15*sqrt(3))/2" in out


def test_construct_regular_hadamard_exit_codes(capsys):
    assert main(["construct", "--order", "17",
                 "--method", "regular-hadamard"]) == 0
    capsys.readouterr()
    assert main(["construct", "--order", "37",
                 "--method", "regular-hadamard"]) == 0
    capsys.readouterr()
    # fixture for m=5 is not shipped
    assert main(["construct", "--order", "101",
                 "--method", "regular-hadamard"]) == 3
    err = capsys.readouterr().err
    assert "fixture" in err
    assert main(["construct", "--order", "15",
                 "--method", "regular-hadamard"]) == 2


def test_construct_bordered(capsys):
    assert main(["construct", "--order", "8", "--method", "bordered"]) == 0
    out = capsys.readouterr().out
    assert "mode exact" in out and "omega 8\n" in out
    # a product of factors from two fields is still written in float
    assert main(["construct", "--order", "77", "--method", "kronecker"]) == 0
    assert "mode float" in capsys.readouterr().out


def test_construct_kronecker(capsys):
    assert main(["construct", "--order", "15",
                 "--method", "kronecker"]) == 0
    assert "omega 25/4" in capsys.readouterr().out
    assert main(["construct", "--order", "11",
                 "--method", "kronecker"]) == 2


def test_construct_direct_sum(capsys):
    assert main(["construct", "--order", "6",
                 "--method", "direct-sum"]) == 0
    out = capsys.readouterr().out
    assert "omega 9/4" in out and "order 6" in out


def test_construct_conference(capsys):
    assert main(["construct", "--order", "6",
                 "--method", "conference"]) == 0
    assert "mode complex" in capsys.readouterr().out
    assert main(["construct", "--order", "7",
                 "--method", "conference"]) == 2


def test_construct_checks_a_broken_conference_core(capsys, monkeypatch):
    # the builders do not re-check their output; construct's check does
    from cretan import hadamard

    def flipped(q):
        W = hadamard.paley_conference(q)
        W.entries[1, 2] *= -1
        W.entries[2, 1] *= -1    # still symmetric, no longer orthogonal
        return W

    monkeypatch.setattr(cli, "paley_conference", flipped)
    assert main(["construct", "--order", "14",
                 "--method", "conference"]) == 1
    assert "failed verification" in capsys.readouterr().err


def test_broken_menon_core_fails_its_consumers(capsys, monkeypatch):
    from cretan import catalog, hadamard

    def flipped(sb):
        M = menon(sb)
        M.entries[1, 0] *= -1    # off row 0, which sets the row sums
        return M

    menon = hadamard.menon_hadamard_from_design
    monkeypatch.setattr(hadamard, "menon_hadamard_from_design", flipped)
    monkeypatch.setattr(catalog, "_MEMO", {})
    entry = catalog.construct_best(37)
    [cand] = [c for c in entry.candidates if c.method == "regular-hadamard"]
    # built, then refused by the verifier
    assert cand.certificate is not None and cand.verdict == "failed"
    assert main(["construct", "--order", "37",
                 "--method", "regular-hadamard"]) == 1
    assert "failed verification" in capsys.readouterr().err


def test_broken_design_fails_the_bordered_consumers(capsys, monkeypatch):
    # the bordered route checks no design: a flipped incidence entry gives
    # matrices, and the code that relies on them refuses each one
    from cretan import catalog
    from cretan.constructions import bordered_solver
    from cretan.designs import qr_difference_set
    from cretan.verify import verify_cretan

    sb = qr_difference_set(7).develop()
    sb.incidence[0, 0] ^= 1
    monkeypatch.setattr(catalog, "design_sources",
                        lambda v: [("paley-sbibd", "", lambda: sb)])
    mats = bordered_solver(sb)
    assert mats
    assert not any(verify_cretan(m, mode="relaxed").relaxed for m in mats)
    assert main(["construct", "--method", "bordered", "--order", "8"]) == 1
    assert capsys.readouterr().err == \
        "constructed matrix failed verification\n"


def test_no_route_validates_a_design(tmp_path, capsys, monkeypatch):
    # each design's one check is the census of its difference set, so no
    # route runs Sbibd.validate's O(v^3) Gram product on it again
    from cretan import catalog
    from cretan.designs import FIXTURE_DIR_ENV, Sbibd

    def refuse(self):
        raise AssertionError("Sbibd.validate called on %s" % self.source)

    monkeypatch.setattr(Sbibd, "validate", refuse)
    monkeypatch.setattr(catalog, "_MEMO", {})
    monkeypatch.delenv(FIXTURE_DIR_ENV, raising=False)
    golden = Path(__file__).parent / "data" / "catalog-199-diff.txt"
    assert main(["catalog", "--max", "199", "--diff"]) == 0
    assert capsys.readouterr().out == golden.read_text()
    for method, n in (("sbibd", 983), ("bordered", 984)):
        out = str(tmp_path / ("%s%d.txt" % (method, n)))
        assert main(["construct", "--method", method, "--order", str(n),
                     "--out", out]) == 0


def test_design_routes_above_the_qr_cap(capsys):
    # 1019 is a prime 3 mod 4 above designs.QR_MAX_Q: no source is listed
    assert main(["construct", "--order", "1019", "--method", "sbibd"]) == 2
    assert capsys.readouterr().err == \
        "no sbibd-ds or paley-sbibd construction at order 1019\n"
    assert main(["construct", "--order", "1020",
                 "--method", "bordered"]) == 2
    assert capsys.readouterr().err == \
        "no bordered construction at order 1020\n"


@pytest.mark.parametrize("n", [20, 14])
def test_construct_auto_takes_bordered_at_even_orders(n, tmp_path, capsys):
    # the bordered route is in the route table, so auto ranks its members
    # against basic: at 20 a strict Hadamard matrix, radius 20 against 100/81
    target = tmp_path / ("a%d.txt" % n)
    assert main(["construct", "--order", str(n), "--out", str(target)]) == 0
    assert load_matrix(target).method == "bordered"
    assert main(["verify", "--strict", str(target)]) == 0


def test_bordered_rank_picks_the_largest_radius():
    # every even order up to 1002 with a design at n - 1 has one source,
    # and rank picks the member of largest radius among its solutions
    from cretan.catalog import design_sources
    from cretan.cli import _best_of
    from cretan.constructions import bordered_solver
    from cretan.files import serialize_matrix

    orders = [n for n in range(4, 1003, 2) if design_sources(n - 1)]
    assert len(orders) == 102
    for n in orders:
        (_, _, develop), = design_sources(n - 1)
        widest = max(bordered_solver(develop()),
                     key=lambda m: m.omega.to_float())
        assert serialize_matrix(_best_of(("bordered",), n)) == \
            serialize_matrix(widest), n


def test_construct_gh(capsys):
    assert main(["construct", "--order", "9", "--method", "gh"]) == 0
    out = capsys.readouterr().out
    assert "mode group" in out and "kind GH" in out
    assert main(["construct", "--order", "6", "--method", "gh"]) == 0
    capsys.readouterr()
    assert main(["construct", "--order", "10", "--method", "gh"]) == 2


def test_construct_auto_small_orders(capsys):
    assert main(["construct", "--order", "1"]) == 0
    capsys.readouterr()
    assert main(["construct", "--order", "4"]) == 0
    capsys.readouterr()
    assert main(["construct", "--order", "2"]) == 2


@pytest.mark.parametrize("n, method", [
    (1001, "kronecker"), (1157, "kronecker"), (1997, "basic")])
def test_construct_auto_above_the_catalog(n, method, tmp_path, capsys):
    # odd orders past the catalog's 999 come from the same route table: a
    # Kronecker product of catalog orders, or the basic family at a prime
    target = tmp_path / ("a%d.txt" % n)
    assert main(["construct", "--order", str(n), "--out", str(target)]) == 0
    assert load_matrix(target).method == method
    assert main(["verify", str(target)]) == 0


def test_render_outputs(tmp_path, capsys, monkeypatch):
    svg = tmp_path / "m.svg"
    pgm = tmp_path / "m.pgm"
    assert main(["construct", "--order", "13", "--render", str(svg)]) == 0
    assert svg.read_text().startswith("<svg")
    assert main(["construct", "--order", "13", "--render", str(pgm)]) == 0
    assert pgm.read_text().startswith("P2")
    capsys.readouterr()
    # the suffix is refused before anything is built or written
    calls = []
    monkeypatch.setitem(cli._CONSTRUCTORS, "auto", calls.append)
    out = tmp_path / "m.cm"
    assert main(["construct", "--order", "13", "--out", str(out),
                 "--render", str(tmp_path / "m.png")]) == 2
    assert "must end in .svg or .pgm" in capsys.readouterr().err
    assert calls == [] and not out.exists()


def test_file_errors_exit_2_in_one_line(tmp_path, capsys, monkeypatch):
    missing = tmp_path / "missing" / "dir"
    for argv in (["verify", str(tmp_path)],
                 ["construct", "--order", "9", "--out",
                  str(missing / "x.cm")],
                 ["construct", "--order", "9", "--render",
                  str(missing / "x.svg")]):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(tmp_path) in err, (argv, err)
    # a missing fixture is a FileNotFoundError too, but keeps exit 3

    def no_fixture(n):
        raise MissingFixture("no fixture 45-12-3.txt")

    monkeypatch.setitem(cli._CONSTRUCTORS, "basic", no_fixture)
    assert main(["construct", "--order", "9", "--method", "basic"]) == 3
    assert capsys.readouterr().err == "no fixture 45-12-3.txt\n"


def test_construct_writes_all_files_or_none(tmp_path, capsys):
    ok = tmp_path / "ok.txt"
    missing = tmp_path / "missing"
    # a render path that cannot be opened: the --out file is not created
    assert main(["construct", "--order", "9", "--out", str(ok),
                 "--render", str(missing / "x.svg")]) == 2
    assert "missing" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == []
    # nor is an existing one changed, whichever of the two paths fails
    ok.write_text("old\n")
    svg = tmp_path / "m.svg"
    for argv in (["--out", str(ok), "--render", str(missing / "x.svg")],
                 ["--out", str(missing / "x.cm"), "--render", str(svg)],
                 ["--out", str(tmp_path), "--render", str(svg)]):
        assert main(["construct", "--order", "9"] + argv) == 2, argv
        assert capsys.readouterr().out == ""
        assert ok.read_text() == "old\n" and not svg.exists(), argv
    # both paths good: both written, reported in order
    assert main(["construct", "--order", "9", "--out", str(ok),
                 "--render", str(svg)]) == 0
    assert capsys.readouterr().out == "wrote %s\nrendered %s\n" % (ok, svg)
    assert ok.read_text().startswith("cretan-matrix 2")
    assert svg.read_text().startswith("<svg")


def test_construct_computes_no_determinant(tmp_path, monkeypatch):
    import cretan.verify as verify

    calls = []

    def refuse(name):
        return lambda *args, **kwargs: calls.append(name)

    for name in ("check_det_identity", "exact_abs_det"):
        monkeypatch.setattr(verify, name, refuse(name))
    for n in (45, 459):
        out = tmp_path / ("m%d.cm" % n)
        assert main(["construct", "--order", str(n), "--out", str(out)]) == 0
    assert calls == []


def test_verify_radicand_past_the_cap_exits_2(capsys):
    # a 51-digit product of two 26-digit primes: refused unfactored
    path = Path(__file__).parent / "data" / "radicand-past-cap.txt"
    assert main(["verify", str(path)]) == 2
    assert "line 7: radicand longer than 50 digits" in capsys.readouterr().err


def test_verify_non_utf8_file_is_a_parse_error(tmp_path, capsys):
    rng = random.Random(18)
    f = tmp_path / "noise.cm"
    seen = 0
    for _ in range(300):
        data = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 64)))
        f.write_bytes(data)
        code = main(["verify", str(f)])
        err = capsys.readouterr().err
        assert code == 2, data
        assert err.startswith("cannot parse %s: " % f), (data, err)
        assert "Traceback" not in err and err.count("\n") == 1
        try:
            data.decode("utf-8")
        except UnicodeDecodeError:
            seen += 1
            assert "not UTF-8" in err
    assert seen > 250


def test_verify_pipeline(tmp_path, capsys):
    f = tmp_path / "ok.cm"
    assert main(["construct", "--order", "9", "--out", str(f)]) == 0
    capsys.readouterr()
    assert main(["verify", str(f)]) == 0
    assert "pass" in capsys.readouterr().out


def test_verify_tampered_file(tmp_path, capsys):
    f = tmp_path / "bad.cm"
    main(["construct", "--order", "9", "--method", "basic",
          "--out", str(f)])
    capsys.readouterr()
    lines = f.read_text().splitlines(keepends=True)
    # levels -2/7 1: flipping one code digit of the first row turns an
    # off-diagonal -2/7 into a 1, and the file still parses
    assert "levels -2/7 1\n" in lines
    row = lines.index("entries\n") + 1
    assert lines[row] == "100000000\n"
    lines[row] = "110000000\n"
    f.write_text("".join(lines))
    assert main(["verify", str(f)]) == 1
    out = capsys.readouterr().out
    assert "fail" in out


def test_verify_strict_vs_relaxed(tmp_path, capsys):
    f = tmp_path / "border5.cm"
    main(["construct", "--order", "5", "--method", "regular-hadamard",
          "--out", str(f)])
    capsys.readouterr()
    assert main(["verify", str(f)]) == 0
    assert main(["verify", str(f), "--strict"]) == 1


def test_verify_usage_errors(tmp_path, capsys):
    assert main(["verify", str(tmp_path / "missing.cm")]) == 2
    junk = tmp_path / "junk.cm"
    junk.write_text("not a matrix\n")
    assert main(["verify", str(junk)]) == 2
    err = capsys.readouterr().err
    assert "parse" in err


def _exact_file(order: int, rows) -> str:
    return ("cretan-matrix 1\nmode exact\norder %d\ntau 2\nomega 2\n"
            "method hand\nentries\n" % order) + "".join(r + "\n" for r in rows)


def test_verify_zero_denominator(tmp_path, capsys):
    f = tmp_path / "zero.cm"
    f.write_text(_exact_file(2, ["1 1/0", "1 -1"]))
    assert main(["verify", str(f)]) == 2
    err = capsys.readouterr().err
    assert "line 8" in err and "1/0" in err


def test_verify_non_finite_float(tmp_path, capsys):
    f = tmp_path / "nan.cm"
    f.write_text(_exact_file(2, ["fnan fnan", "fnan fnan"])
                 .replace("mode exact", "mode float"))
    assert main(["verify", str(f)]) == 2
    err = capsys.readouterr().err
    assert "line 8" in err and "non-finite" in err


@pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
def test_verify_tolerance_is_finite_and_not_negative(tol, tmp_path, capsys):
    # the largest off-diagonal Gram entry is 1.5: an infinite tolerance
    # would pass it, and nan or a negative one would fail every float check
    f = tmp_path / "gram.cm"
    f.write_text(_exact_file(2, ["f1.0 f1.0", "f1.0 f0.5"])
                 .replace("mode exact", "mode float"))
    assert main(["verify", str(f), "--tolerance", tol]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--tolerance: must be finite and >= 0" in captured.err
    assert main(["verify", str(f), "--tolerance", "0"]) == 1
    assert "max off-diagonal 1.5" in capsys.readouterr().out


def test_verify_level_with_integers_past_float_range(tmp_path, capsys):
    from cretan.scalar import Scalar, format_scalar

    # a = (1 + 10^400 sqrt 2) / (2 * 10^400), about 0.707, over a 2 x 2
    # Hadamard matrix: radius 2 a^2
    a = Scalar(1, 10 ** 400, 2, 2 * 10 ** 400)
    A, B, W = map(format_scalar, (a, -a, 2 * a * a))
    f = tmp_path / "big.cm"
    f.write_text(_exact_file(2, [A + " " + A, A + " " + B])
                 .replace("omega 2", "omega " + W))
    assert main(["verify", str(f)]) == 0
    rows = dict(ln.split(None, 1) for ln in
                capsys.readouterr().out.splitlines())
    assert rows["radius"] == "%s (1)" % W
    assert rows["gram"] == "exact zero" and rows["relaxed"] == "pass"


@pytest.mark.parametrize("mode, rows", [
    ("float", ["f0.5 f0.5", "f0.5 f-0.5"]),
    ("exact", ["1 1", "1 -1"]),
])
def test_verify_omega_past_float_range_is_a_parse_error(tmp_path, capsys,
                                                        mode, rows):
    f = tmp_path / "omega.cm"
    f.write_text(_exact_file(2, rows).replace("mode exact", "mode " + mode)
                 .replace("omega 2", "omega 1" + "0" * 400))
    assert main(["verify", str(f)]) == 2
    err = capsys.readouterr().err
    assert "line 5: missing or bad omega header" in err
    assert "Traceback" not in err


def test_verify_failed_exact_gram_is_not_rescued_by_tolerance(tmp_path,
                                                            capsys):
    # off-diagonal 10^-12, inside the float tolerance, but not zero
    f = tmp_path / "near.cm"
    f.write_text(_exact_file(2, ["1 1", "1 -999999999999/1000000000000"]))
    for argv in (["verify", str(f)], ["verify", "--strict", str(f)]):
        assert main(argv) == 1
        rows = dict(ln.split(None, 1) for ln in
                    capsys.readouterr().out.splitlines()
                    if ln.split()[0] in ("radius", "gram", "strict",
                                         "relaxed"))
        assert rows["radius"].startswith("f1.999999999999 ")
        assert rows["gram"].startswith("max off-diagonal")
        assert rows["strict"] == "fail" and rows["relaxed"] == "fail"


def test_verify_omega_claim_from_another_field(tmp_path, capsys):
    from cretan.constructions import sbibd_two_level
    from cretan.designs import singer_difference_set
    from cretan.files import serialize_matrix
    from cretan.scalar import parse_scalar
    from cretan.verify import verify_cretan

    # the (13,4,1) radius (14+3 sqrt 3)/2 = 9.598..., claimed in Q(sqrt 2)
    # to within 1e-9 but as a different number
    m = max(sbibd_two_level(singer_difference_set(2, 3).develop()),
            key=lambda m: m.omega.to_float())
    claim = "(0+59183239*sqrt(2))/8720262"
    assert abs(parse_scalar(claim).to_float() - m.omega.to_float()) < 1e-9
    f = tmp_path / "claim.cm"
    f.write_text(serialize_matrix(m).replace(
        "omega (14+3*sqrt(3))/2", "omega " + claim))
    cert = verify_cretan(load_matrix(f))
    assert cert.gram_exact and cert.moduli_ok
    assert not cert.omega_claim_ok and not cert.relaxed
    assert main(["verify", str(f)]) == 1
    assert "relaxed              fail" in capsys.readouterr().out


def test_verify_wrong_tau_header(tmp_path, capsys):
    f = tmp_path / "tau.cm"
    f.write_text(_exact_file(2, ["1 1", "1 -1"]).replace("tau 2", "tau 3"))
    assert main(["verify", str(f)]) == 2
    err = capsys.readouterr().err
    assert "cannot parse" in err and "tau 3" in err


def test_verify_order_zero(tmp_path, capsys):
    f = tmp_path / "empty.cm"
    f.write_text(_exact_file(0, []))
    assert main(["verify", str(f)]) == 2
    err = capsys.readouterr().err
    assert "cannot parse" in err and "order must be positive" in err


def test_verify_complex_and_group_files(tmp_path, capsys):
    cf = tmp_path / "conf.cm"
    main(["construct", "--order", "6", "--method", "conference",
          "--out", str(cf)])
    gf = tmp_path / "gh.cm"
    main(["construct", "--order", "6", "--method", "gh", "--out", str(gf)])
    capsys.readouterr()
    assert main(["verify", str(cf)]) == 0
    assert main(["verify", str(gf)]) == 0
    text = gf.read_text().splitlines()
    text[-1] = text[-1].replace("0", "1", 1)
    gf.write_text("\n".join(text) + "\n")
    assert main(["verify", str(gf)]) == 1


def test_catalog_text_and_diff(capsys):
    assert main(["catalog", "--max", "21", "--diff"]) == 0
    out = capsys.readouterr().out
    assert "order  best-method" in out
    assert "conflicts: 0" in out


def test_catalog_structured(capsys):
    import json
    assert main(["catalog", "--max", "15", "--format", "structured"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["v_max"] == 15
    assert [e["order"] for e in doc["entries"]] == [3, 5, 7, 9, 11, 13, 15]


def test_catalog_max_out_of_range_exits_2(capsys):
    for v_max, why in (("1001", "v_max above 999"), ("2", "v_max below 3"),
                       ("1", "v_max below 3"), ("-5", "v_max below 3")):
        assert main(["catalog", "--max", v_max]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert why in captured.err


def test_bounds_output(capsys):
    assert main(["bounds", "9"]) == 0
    out = capsys.readouterr().out
    assert "19683" in out
    assert "16888.2" in out
    assert main(["bounds", "0"]) == 2


def test_bounds_text_matches_golden(capsys):
    # the whole text: odd orders print barba and brent-osborn, orders
    # 2 (mod 4) wojtas; the bounds print as exact integers (hundreds of
    # digits at 302) or, at 9 and 13, as floats
    golden = Path(__file__).parent / "data" / "bounds-golden.txt"
    for n in (1, 2, 9, 10, 13, 302):
        assert main(["bounds", str(n)]) == 0
    assert capsys.readouterr().out == golden.read_text()


def test_bounds_of_large_orders(capsys):
    # a bound above 4300 digits is printed by its log alone
    assert main(["bounds", "10000"]) == 0
    out = capsys.readouterr().out
    assert "hadamard      exp(46051.701860)" in out
    # around the 4300-digit edge every exact bound still prints
    for n in range(2500, 2560):
        assert main(["bounds", str(n)]) == 0
    capsys.readouterr()
    # no n^(n/2)-size integer is built, so these return at once
    n = 10 ** 9
    b = det_bounds(n)
    assert b.hadamard_exact is None
    assert math.isclose(b.hadamard_log, 0.5 * n * math.log(n))
    b = det_bounds(n + 1)
    assert b.barba_exact is None and b.brent_osborn_exact is None
    b = det_bounds(n + 2)
    assert b.wojtas_exact is None
    assert math.isclose(b.wojtas_log, math.log(2 * (n + 1))
                        + 0.5 * n * math.log(n))


def test_construct_order_out_of_range_exits_2(monkeypatch, capsys):
    # rejected before any builder runs, so 10^6 allocates nothing
    calls = []

    def builder(n):
        calls.append(n)
        raise cli.CliError("stub builder")

    for method in list(cli._CONSTRUCTORS):
        monkeypatch.setitem(cli._CONSTRUCTORS, method, builder)
        for n in (10 ** 6, 1999, 0, -3):
            assert main(["construct", "--order", str(n),
                         "--method", method]) == 2
            assert "order must be in 1..1998" in capsys.readouterr().err
    assert calls == []
    # 1998, a direct sum of two catalog orders, still reaches its builder
    assert main(["construct", "--order", "1998",
                 "--method", "direct-sum"]) == 2
    assert calls == [1998]


def test_designs_list_and_make(capsys):
    assert main(["designs", "list"]) == 0
    out = capsys.readouterr().out
    assert "(45, 12, 3)" in out and "fixture" in out
    assert main(["designs", "make", "--family", "qr",
                 "--params", "7"]) == 0
    out = capsys.readouterr().out
    assert "params (7, 3, 1)" in out
    assert main(["designs", "make", "--family", "singer",
                 "--params", "2", "3"]) == 0
    assert "params (13, 4, 1)" in capsys.readouterr().out


def test_designs_census_failure(capsys):
    assert main(["designs", "make", "--family", "biquadratic",
                 "--params", "13"]) == 1
    assert "census" in capsys.readouterr().err


def test_designs_usage(capsys):
    assert main(["designs", "make"]) == 2
    # argparse refuses a family outside its choices before any design work
    assert main(["designs", "make", "--family", "hadamard"]) == 2
    assert main(["designs", "make", "--family", "qr", "--params",
                 "5", "6"]) == 2


def test_designs_make_with_zero_is_0_or_1(capsys):
    # 5 is not read as true
    assert main(["designs", "make", "--family", "biquadratic",
                 "--params", "13", "5"]) == 2
    assert capsys.readouterr().err == \
        "biquadratic takes p [with_zero], with_zero 0 or 1\n"
    assert main(["designs", "make", "--family", "biquadratic",
                 "--params", "109", "1"]) == 0
    assert "params (109, 28, 7)" in capsys.readouterr().out
    assert main(["designs", "make", "--family", "biquadratic",
                 "--params", "37", "0"]) == 0
    assert "params (37, 9, 2)" in capsys.readouterr().out


@contextlib.contextmanager
def _deadline(seconds):
    """Raise TimeoutError in the block once `seconds` have passed."""
    def expire(signum, frame):
        raise TimeoutError("still running after %s s" % seconds)

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def test_designs_make_refuses_huge_parameters_at_once(capsys):
    # p and GF(q^(n+1)) above the 10^6 field cap are refused before the
    # fourth powers are listed or q is factored; GF(101^3) was refused
    # before too, by make_field
    for family, params in (("biquadratic", ["1000000000061"]),
                           ("singer", ["2", "1000000000000000003"]),
                           ("singer", ["1" + "0" * 30, "2"]),
                           ("singer", ["2", "101"])):
        with _deadline(1.0):
            code = main(["designs", "make", "--family", family,
                         "--params"] + params)
        err = capsys.readouterr().err
        assert code == 2 and "field size cap" in err and err.count("\n") == 1


def test_designs_make_reports_memory_error(capsys, monkeypatch):
    # at p = 999749 the k x k census asks numpy for 233 GiB; stub it
    message = ("Unable to allocate 233. GiB for an array with shape "
               "(249937, 249937) and data type int32")

    def no_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr("cretan.designs.make_difference_set", no_memory)
    with _deadline(2.0):
        code = main(["designs", "make", "--family", "biquadratic",
                     "--params", "999749"])
    assert code == 2 and capsys.readouterr().err == message + "\n"


def test_usage_exit_codes(capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["--help"]) == 0


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cretan.cli", "bounds", "10"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "73728" in proc.stdout
