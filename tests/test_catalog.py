"""Catalog dispatch, best-radius selection, and the published-table diff."""

import json
import re
from collections import Counter

import numpy as np
import pytest

from cretan.catalog import (
    ROUTES,
    TABLE2_EXPECTED,
    _table1_claims,
    catalog_structured,
    catalog_table,
    construct_best,
    format_catalog_text,
)
from cretan.scalar import (IncompatibleRadicands, REFINE_TOL, Scalar,
                           parse_scalar)
from cretan.verify import verify_cretan


@pytest.fixture(scope="module")
def full_report():
    return catalog_table(199)


def test_methods_for_examples():
    def methods(v):
        return construct_best(v).methods

    assert methods(13) == ["sbibd-ds", "basic"]
    assert methods(21) == ["sbibd-ds", "kronecker", "basic"]
    assert methods(15) == ["kronecker", "basic"]
    assert methods(5) == ["regular-hadamard", "basic"]
    assert methods(19) == ["paley-sbibd", "basic"]
    # fixture gap stays visible
    assert methods(101) == ["fixture-missing", "sbibd-ds", "basic"]
    assert methods(3) == ["paley-sbibd", "basic"]


def test_methods_for_range():
    for bad in (1, 2, 14, 1001, -3):
        with pytest.raises(ValueError):
            construct_best(bad)


def test_one_core_build_per_applicable_order(monkeypatch):
    import cretan.catalog as catalog

    built = []
    families = []
    real_core, real_family = catalog.regular_hadamard, catalog.build_family

    def counting_core(m):
        built.append(m)
        return real_core(m)

    def counting_family(*args, **kwargs):
        families.append(args)
        return real_family(*args, **kwargs)

    monkeypatch.setattr(catalog, "regular_hadamard", counting_core)
    monkeypatch.setattr(catalog, "build_family", counting_family)
    monkeypatch.setattr(catalog, "_MEMO", {})
    for v in range(3, 120, 2):
        construct_best(v)
    # v = 4 m^2 + 1 for m = 1..5; m = 5 has no fixture and fails once
    assert built == [1, 2, 3, 4, 5]
    assert len(families) == 9
    # the published-table diff reads the entries and builds nothing more
    built.clear()
    families.clear()
    monkeypatch.setattr(catalog, "_MEMO", {})
    catalog_table(199)
    assert built == [1, 2, 3, 4, 5, 6, 7]
    assert len(families) == 12


def test_catalog_computes_no_determinant(monkeypatch):
    import cretan.catalog as catalog
    import cretan.verify as verify

    calls = []

    def refuse(name):
        return lambda *args, **kwargs: calls.append(name)

    for name in ("check_det_identity", "exact_abs_det"):
        monkeypatch.setattr(verify, name, refuse(name))
    monkeypatch.setattr(catalog, "_MEMO", {})
    report = catalog_table(119)
    assert calls == []
    assert len(report.entries) == 59


@pytest.mark.parametrize("method, routes", [
    ("sbibd", ("sbibd-ds", "paley-sbibd")),
    ("regular-hadamard", ("regular-hadamard",)),
    ("kronecker", ("kronecker",)),
])
def test_cli_and_catalog_agree(method, routes, capsys):
    from cretan.cli import main
    from cretan.files import serialize_matrix

    checked = 0
    for v in range(3, 100, 2):
        cands = [c for c in construct_best(v).candidates
                 if c.ok and c.method in routes]
        if not cands:
            continue
        best = sorted(cands, key=lambda c: (-c.omega_float, c.matrix.tau))[0]
        assert main(["construct", "--order", str(v), "--method", method]) == 0
        assert capsys.readouterr().out == serialize_matrix(best.matrix), v
        checked += 1
    assert checked >= 3


@pytest.mark.parametrize("v", [*range(3, 200, 2), 225, 441, 675, 945, 999])
def test_cli_chooser_picks_the_catalog_best(v):
    # the CLI ranks what it builds, the catalog what it verifies: at every
    # catalog order the two pick the same matrix
    from cretan.cli import _best_of

    best = construct_best(v).best.matrix
    m = _best_of(tuple(ROUTES), v)
    assert (m.method, m.levels, m.omega) == \
        (best.method, best.levels, best.omega)
    assert np.array_equal(m.grid, best.grid)


def test_best_small_orders():
    assert construct_best(3).best.matrix.omega == Scalar(9, 0, 0, 4)
    e5 = construct_best(5)
    assert e5.best.method == "basic"
    assert e5.best.matrix.omega == Scalar(25, 0, 0, 9)
    # the radius-1 bordered candidate is recorded even though it loses
    assert any(c.method == "regular-hadamard" and c.ok
               and c.omega_float == 1.0 for c in e5.candidates)


def test_best_45_is_design_route():
    e = construct_best(45)
    assert e.best.method == "sbibd-ds"
    assert e.best.matrix.omega == Scalar(81, 0, 0, 4)
    assert e.best.verdict == "strict"


def test_best_13_is_design_route():
    e = construct_best(13)
    assert e.best.method == "sbibd-ds"
    assert e.best.matrix.omega == Scalar(14, 3, 3, 2)


def test_kronecker_can_beat_design_route():
    e = construct_best(21)
    assert e.best.method == "kronecker"
    assert abs(e.best.omega_float - 2.25 * (22 - 12 * 2 ** 0.5)) < 1e-9
    # the design route is still among the candidates
    assert any(c.method == "sbibd-ds" and c.ok for c in e.candidates)


def test_construct_best_memoized():
    assert construct_best(9) is construct_best(9)


def test_expected_table_shape():
    assert len(TABLE2_EXPECTED) == 99
    assert set(TABLE2_EXPECTED) == set(range(3, 200, 2))
    for labels in TABLE2_EXPECTED.values():
        assert set(labels) <= {"BM", "P2", "DS", "K"}


def test_catalog_covers_every_order(full_report):
    assert len(full_report.entries) == 99
    for e in full_report.entries:
        assert e.best is not None, "order %d uncovered" % e.order
        assert e.best.verdict == "strict"
        assert e.best.omega_float <= e.order + 1e-9
        assert e.best.certificate.passed


def test_diff_has_no_conflicts(full_report):
    assert full_report.diff.conflicts == []


def test_diff_paper_extra_is_exactly_the_known_gaps(full_report):
    rows = {(tag, v) for tag, v, _ in full_report.diff.paper_extra}
    assert rows == {
        ("table2:P2", 81), ("table2:P2", 171), ("table2:P2", 195),
        ("table1-rh", 45), ("table1-rh", 101), ("table1-rh", 197),
    }


def test_diff_our_extra_only_fills_blanks(full_report):
    blanks = {v for v, labels in TABLE2_EXPECTED.items() if not labels}
    ours = {v for v, _ in full_report.diff.our_extra}
    assert ours == blanks


def test_diff_agreements_cover_all_nonblank_labels(full_report):
    want = sum(len(l) for l in TABLE2_EXPECTED.values()) \
        - 3                       # the three P2 errata
    table2 = [r for r in full_report.diff.agreements if r[0] == "table2"]
    assert len(table2) == want
    t1ds = [r for r in full_report.diff.agreements if r[0] == "table1-ds"]
    assert len(t1ds) == 12
    t1rh = {v for tag, v, _ in full_report.diff.agreements
            if tag == "table1-rh"}
    assert t1rh == {5, 17, 37, 65, 145}


def test_table1_rows_name_only_m_with_4m2_equal_to_v_minus_1(full_report):
    claims = {v: c.agree for tag, v, c in _table1_claims()
              if tag == "table1-rh"}
    # 45 - 1 = 44 is not 4 m^2, so its claim names no m
    assert claims == {5: "m=1", 17: "m=2", 37: "m=3", 45: "", 65: "m=4",
                      101: "m=5", 145: "m=6", 197: "m=7"}
    diff = full_report.diff
    notes = [(v, note) for rows in (diff.agreements, diff.paper_extra,
                                    diff.conflicts)
             for tag, v, note in rows if tag == "table1-rh"]
    assert len(notes) == len(claims)
    for v, note in notes + list(claims.items()):
        for m in re.findall(r"\bm=(\d+)", note):
            assert 4 * int(m) ** 2 == v - 1, (v, note)


def test_text_output(full_report):
    text = format_catalog_text(full_report, show_diff=True)
    assert "order  best-method" in text
    assert "conflicts: 0" in text
    lines = text.splitlines()
    assert any(l.startswith("   45  sbibd-ds") for l in lines)
    # deterministic
    assert text == format_catalog_text(full_report, show_diff=True)


def test_structured_output_is_json_ready(full_report):
    doc = catalog_structured(full_report)
    blob = json.dumps(doc, sort_keys=True)
    again = json.loads(blob)
    assert again["v_max"] == 199
    assert len(again["entries"]) == 99
    assert again["diff"]["conflicts"] == []
    # each built candidate names the check behind its Gram verdict
    cands = [c for e in again["entries"] for c in e["candidates"]]
    assert all((c["gram"] is None) == (c["tau"] is None) for c in cands)
    assert {c["gram"] for c in cands if c["method"] == "kronecker"} == \
        {"by-factors", "float: float levels"}


def test_proofs_agree_with_the_lift(full_report):
    # the full lift is the oracle for every candidate a proof certified
    paths = Counter()
    for e in full_report.entries:
        for c in e.candidates:
            if c.method == "regular-hadamard" or not c.matrix:
                continue
            got, lift = c.certificate, verify_cretan(c.matrix, mode="relaxed")
            paths[c.method == "kronecker", got.gram_path] += 1
            assert (got.omega, got.gram_exact, got.strict, got.relaxed) == \
                (lift.omega, lift.gram_exact, lift.strict, lift.relaxed)
            if got.gram_exact:
                assert lift.gram_path == "lift-float32"
            else:
                assert got.gram_path == lift.gram_path
    assert paths == {(True, "by-factors"): 69, (False, "by-design"): 172,
                     (True, "float: float levels"): 5}


def _census(S):
    """(tau, units): the level count and unit rows and columns read off
    the grid, as verify_cretan counted them for every matrix before a
    proof could give them; the oracle for the proofs' census."""
    tau = int(np.count_nonzero(
        np.bincount(S.grid.ravel(), minlength=len(S.levels))))

    def is_unit(l):
        if l.is_float:
            return abs(abs(l.f) - 1.0) <= REFINE_TOL
        return not l.q and abs(l.p) == l.r

    cells = np.array([is_unit(l) for l in S.levels], dtype=bool).take(S.grid)
    return tau, bool(cells.any(axis=1).all() and cells.any(axis=0).all())


def test_proof_census_agrees_with_the_grid(full_report):
    paths = Counter()
    for e in full_report.entries:
        for c in e.candidates:
            cert = c.certificate
            if cert is None or cert.gram_path not in ("by-factors",
                                                      "by-design"):
                continue
            tau, units = _census(c.matrix)
            assert cert.tau == tau, (e.order, c.method, c.note)
            assert cert.strict == (cert.relaxed and units), \
                (e.order, c.method, c.note)
            paths[cert.gram_path] += 1
    assert paths == {"by-factors": 69, "by-design": 172}


def test_gram_path_counts_119():
    report = catalog_table(119)
    paths = Counter(c.certificate.gram_path for e in report.entries
                    for c in e.candidates if c.certificate)
    # the regular-hadamard borders have no proof and take the lift; the
    # float pair are Kronecker products of factors from two fields
    assert paths == {"by-design": 108, "by-factors": 36, "lift-float32": 4,
                     "float: float levels": 2}


def test_complements_of_source_designs_validate():
    # Sbibd.validate is the oracle that develop() is right for every
    # shipped source: the design routes rely on each source's census alone.
    # The complement's identity holds exactly when the design's does, so
    # this checks both
    from cretan.catalog import design_sources

    count = 0
    for v in range(1, 1000):
        for _, _, develop in design_sources(v):
            develop().complement().validate()
            count += 1
    assert count == 102


def test_moved_fixture_element_fails_its_census(tmp_path, monkeypatch):
    # a design's one check is the census of its difference set, run when
    # the fixture loads: one moved element fails the route's one
    # candidate, and the other routes still give a certified best
    import cretan.catalog as catalog
    from cretan.designs import FIXTURE_DIR_ENV, fixture_path

    src = fixture_path("45-12-3").read_text()
    moved = src.replace("elements\n0,0,1 ", "elements\n0,0,0 ")
    assert moved != src
    (tmp_path / "45-12-3.txt").write_text(moved)
    monkeypatch.setenv(FIXTURE_DIR_ENV, str(tmp_path))
    monkeypatch.setattr(catalog, "_MEMO", {})
    e = construct_best(45)
    [failed] = [c for c in e.candidates if c.method == "sbibd-ds"]
    assert failed.certificate is None and failed.verdict == "failed"
    assert "census mismatch" in failed.note
    assert e.best.method != "sbibd-ds" and e.best.certificate.strict


def _below(omega, floor) -> bool:
    """omega < floor: exactly when both are exact in one field, otherwise
    in floats with a relative slack of REFINE_TOL."""
    try:
        return omega < floor
    except (IncompatibleRadicands, TypeError):
        return omega.to_float() < floor.to_float() * (1 - REFINE_TOL)


def test_no_best_falls_below_its_radius_floor():
    # the golden files stop at 199; this pins every odd order to 999.  A
    # best may rise above its floor (the change that raises it raises the
    # line), never fall below it
    from pathlib import Path

    path = Path(__file__).parent / "data" / "catalog-999-radii.txt"
    rows = [line.split() for line in path.read_text().splitlines()
            if not line.startswith("#")]
    assert [int(v) for v, _, _ in rows] == list(range(3, 1000, 2))
    below = []
    for v, method, token in rows:
        best = construct_best(int(v)).best
        if _below(best.matrix.omega, parse_scalar(token)):
            below.append((v, method, token, best.method, best.omega_float))
    assert below == []


def test_catalog_rejects_out_of_range():
    with pytest.raises(ValueError):
        catalog_table(1001)
    for v_max in (2, 1, -5):
        with pytest.raises(ValueError, match="v_max below 3"):
            catalog_table(v_max)


def test_memo_follows_fixture_dir(tmp_path, monkeypatch):
    import dataclasses

    from cretan.designs import (FIXTURE_DIR_ENV, format_fixture,
                                load_fixture)

    monkeypatch.delenv(FIXTURE_DIR_ENV, raising=False)
    first = construct_best(45)
    # a translate of the shipped (45,12,3) difference set is another one
    fx = load_fixture("45-12-3")
    shifted = tuple((a, b, (c + 1) % 5) for a, b, c in fx.elements)
    (tmp_path / "45-12-3.txt").write_text(
        format_fixture(dataclasses.replace(fx, elements=shifted)))
    monkeypatch.setenv(FIXTURE_DIR_ENV, str(tmp_path))
    second = construct_best(45)
    assert second is not first
    assert second.best.method == "sbibd-ds"
    assert second.best.matrix.omega == first.best.matrix.omega
    assert not np.array_equal(second.best.matrix.grid,
                              first.best.matrix.grid)
    monkeypatch.delenv(FIXTURE_DIR_ENV)
    assert construct_best(45) is first


def test_malformed_fixture_is_a_failed_route(tmp_path, monkeypatch, capsys):
    from cretan.cli import main
    from cretan.designs import FIXTURE_DIR_ENV, fixture_path

    src = fixture_path("45-12-3").read_text()
    (tmp_path / "45-12-3.txt").write_text(
        src.replace("params 45 12 3", "parameters 45 12 3"))
    monkeypatch.setenv(FIXTURE_DIR_ENV, str(tmp_path))
    e = construct_best(45)
    failed = [c for c in e.candidates if c.method == "sbibd-ds"]
    assert len(failed) == 1 and not failed[0].ok
    assert "unknown fixture header line" in failed[0].note
    assert e.best is not None and e.best.method != "sbibd-ds"
    assert main(["catalog", "--max", "45", "--diff"]) == 0
    assert "45" in capsys.readouterr().out


def test_malformed_regular_hadamard_fixture_is_missing(tmp_path,
                                                       monkeypatch):
    from cretan.designs import FIXTURE_DIR_ENV, BadFixture
    from cretan.hadamard import regular_hadamard

    monkeypatch.setenv(FIXTURE_DIR_ENV, str(tmp_path))
    # m = 3: the Menon core comes from the (36,15,6) fixture
    (tmp_path / "36-15-6.txt").write_text("cretan-fixture 1\nkind nonsense\n")
    with pytest.raises(BadFixture):
        regular_hadamard(3)
    assert construct_best(37).methods[0] == "fixture-missing"
    # m = 5: a sign-matrix fixture with a stray character
    (tmp_path / "regular-hadamard-100.txt").write_text(
        "cretan-fixture 1\nkind sign-matrix\norder 2\nrows\n+x\n-+\n")
    with pytest.raises(BadFixture, match="regular-hadamard-100"):
        regular_hadamard(5)
    assert construct_best(101).methods[0] == "fixture-missing"
    assert construct_best(37).best is not None


def test_diff_text_matches_golden(monkeypatch, capsys):
    from pathlib import Path

    from cretan.cli import main
    from cretan.designs import FIXTURE_DIR_ENV

    monkeypatch.delenv(FIXTURE_DIR_ENV, raising=False)
    golden = Path(__file__).parent / "data" / "catalog-199-diff.txt"
    assert main(["catalog", "--max", "199", "--diff"]) == 0
    assert capsys.readouterr().out == golden.read_text()


def test_structured_output_matches_golden(monkeypatch, capsys):
    # every candidate's omega, tau, verdict, Gram path and note, as
    # `cretan catalog --max 199 --format structured` printed them before
    # the scalar kernel worked on integers
    from pathlib import Path

    from cretan.cli import main
    from cretan.designs import FIXTURE_DIR_ENV

    monkeypatch.delenv(FIXTURE_DIR_ENV, raising=False)
    golden = Path(__file__).parent / "data" / "catalog-199-structured.json"
    assert main(["catalog", "--max", "199", "--format", "structured"]) == 0
    assert capsys.readouterr().out == golden.read_text()


def test_table1_quotes_malformed_fixture_errors(tmp_path, monkeypatch):
    from cretan.designs import FIXTURE_DIR_ENV, fixture_path

    src = fixture_path("45-12-3").read_text()
    (tmp_path / "45-12-3.txt").write_text(
        src.replace("params 45 12 3", "parameters 45 12 3"))
    (tmp_path / "36-15-6.txt").write_text("cretan-fixture 1\nkind nonsense\n")
    (tmp_path / "regular-hadamard-100.txt").write_text(
        "cretan-fixture 1\nkind sign-matrix\norder 2\nrows\n+x\n-+\n")
    monkeypatch.setenv(FIXTURE_DIR_ENV, str(tmp_path))
    diff = catalog_table(199).diff
    notes = {(tag, v): note for tag, v, note in diff.paper_extra}
    assert "unknown fixture header line" in notes["table1-ds", 45]
    assert notes["table2:DS", 45] == notes["table1-ds", 45]
    assert "regular-hadamard-100" in notes["table1-rh", 101]
    assert "sign rows may hold only" in notes["table1-rh", 101]
    for v in (37, 145):                 # m = 3, 6: cores from (36,15,6)
        assert "36-15-6" in notes["table1-rh", v]
    assert ("table1-ds", 45) not in {r[:2] for r in diff.agreements}
    assert diff.conflicts == []
