"""Tests of the benchmark's own code: span arithmetic, patching, and the
correctness checks rejecting corrupted outputs."""

import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import child  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, install, self_times  # noqa: E402

from cretan import constructions, fields  # noqa: E402
from cretan.catalog import construct_best  # noqa: E402
from cretan.designs import DifferenceSet  # noqa: E402


# -- self time ----------------------------------------------------------------

def test_self_time_nested():
    spans = [["a", 0.0, 10.0, -1],
             ["b", 1.0, 4.0, 0],
             ["c", 2.0, 3.0, 1],
             ["d", 5.0, 9.0, 0]]
    assert self_times(spans) == {"a": (3.0, 1), "b": (2.0, 1),
                                 "c": (1.0, 1), "d": (4.0, 1)}


def test_self_time_recursive_same_name():
    # best(15) -> best(3), best(5); best(5) -> best(3) again
    spans = [["best", 0.0, 10.0, -1],
             ["best", 1.0, 3.0, 0],
             ["best", 4.0, 8.0, 0],
             ["best", 5.0, 6.0, 2],
             ["verify", 8.5, 9.5, 0]]
    out = self_times(spans)
    assert out["best"] == (3.0 + 2.0 + 3.0 + 1.0, 4)
    assert out["verify"] == (1.0, 1)
    # self times of all spans add up to the root's duration
    assert sum(s for s, _ in out.values()) == 10.0


def test_self_time_children_covering_overlap_counted_once():
    spans = [["a", 0.0, 10.0, -1],
             ["b", 2.0, 6.0, 0],
             ["c", 4.0, 8.0, 0]]
    assert self_times(spans)["a"] == (4.0, 1)


def test_tracer_records_parents_through_recursion():
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def best(v):
        return 1 if v < 3 else traced(v - 1) + traced(v - 2)

    traced = tracer.timed("best", best)
    assert traced(4) == 3
    parents = [s[3] for s in tracer.spans]
    assert parents[0] == -1 and all(p >= 0 for p in parents[1:])
    total, calls = self_times(tracer.spans)["best"]
    root = tracer.spans[0]
    assert calls == len(tracer.spans) == 5
    assert total == root[2] - root[1]


def test_tracer_closes_span_on_exception():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.timed("boom", boom)()
    (name, start, end, parent), = tracer.spans
    assert end is not None and end >= start and parent == -1
    assert tracer._open == []


def test_install_patches_every_binding_and_restores():
    original = fields.trace_to_prime
    original_develop = DifferenceSet.develop
    tracer = Tracer()
    restore = install([
        (fields, "trace_to_prime", lambda f: tracer.timed("tr", f)),
        (sys.modules["cretan.designs"], "DifferenceSet.develop",
         lambda f: tracer.timed("dev", f)),
    ])
    try:
        assert fields.trace_to_prime is not original
        assert constructions.trace_to_prime is fields.trace_to_prime
        constructions.gh_from_field(2, 2)
        assert self_times(tracer.spans)["tr"][1] == 16
        assert DifferenceSet.develop is not original_develop
    finally:
        restore()
    assert fields.trace_to_prime is original
    assert constructions.trace_to_prime is original
    assert DifferenceSet.develop is original_develop


# -- correctness checks -----------------------------------------------------

def _flip_one(S):
    grid = S.grid.copy()
    grid[1, 2] = (grid[1, 2] + 1) % S.tau
    return constructions.LevelMatrix(S.order, S.levels, grid, S.omega,
                                     S.method)


def test_float_and_exact_checks_accept_a_catalog_matrix():
    S = construct_best(13).best.matrix
    w = checks.float_value(S.omega)
    assert checks.check_cretan_float(checks.float_matrix(S), w, "13") == []
    assert checks.check_barba(13, w, "13") == []
    assert checks.check_gram_sympy(S, "13") == []


def test_checks_reject_one_flipped_entry():
    S = construct_best(13).best.matrix
    bad = _flip_one(S)
    w = checks.float_value(S.omega)
    assert checks.check_cretan_float(checks.float_matrix(bad), w, "13")
    assert checks.check_gram_sympy(bad, "13")
    assert checks.check_same_matrix(S, bad, "13")


def test_checks_reject_a_wrong_omega():
    S = construct_best(13).best.matrix
    wrong = S.omega + 1
    bad = constructions.LevelMatrix(S.order, S.levels, S.grid, wrong,
                                    S.method)
    assert checks.check_cretan_float(checks.float_matrix(S),
                                     checks.float_value(wrong), "13")
    assert checks.check_gram_sympy(bad, "13")
    assert checks.check_same_matrix(S, bad, "13")
    # past Barba's bound: no Cretan matrix of order 13 reaches omega = 13
    assert checks.check_barba(13, 13.0, "13")


def test_kronecker_omega_product():
    a = construct_best(3).best.matrix
    b = construct_best(7).best.matrix
    prod = constructions.kronecker_cretan(a, b)
    want = checks.exact_product(checks.exact_value(a.omega),
                                checks.exact_value(b.omega))
    assert checks.exact_value(prod.omega) == want
    assert checks.exact_value(prod.omega + 1) != want


def _roundtrip_state(parsed_kron):
    a = construct_best(3).best.matrix
    b = construct_best(7).best.matrix
    other = construct_best(5).best.matrix
    return {"factors": (a, b), "parsed": [parsed_kron, other],
            "matrices": (("kronecker", constructions.kronecker_cretan(a, b)),
                         ("bordered", other))}


def test_roundtrip_check_rejects_flipped_entry_and_wrong_omega():
    wl = workloads.RoundTrip()
    result = [(0, "gram                 exact zero\n"), (0, "")]
    state = _roundtrip_state(None)
    good = state["matrices"][0][1]
    state["parsed"][0] = good
    assert wl.check(state, result) == (0, [])
    state["parsed"][0] = _flip_one(good)
    assert wl.check(state, result)[1]
    state["parsed"][0] = constructions.LevelMatrix(
        good.order, good.levels, good.grid, good.omega + 1, good.method)
    _, errors = wl.check(state, result)
    assert any("omega(A) omega(B)" in e for e in errors)
    # a float-mode Gram verdict on the product is an error too
    state["parsed"][0] = good
    assert wl.check(state, [(0, "gram  max off-diagonal 1e-16\n"),
                            (0, "")])[1]


def test_gh_check_rejects_one_wrong_exponent():
    G = constructions.gh_from_field(2, 3)
    assert checks.check_gh(G.entries, 2, "GF(8)") == []
    E = G.entries.copy()
    E[3, 5] = (E[3, 5] + 1) % 2
    assert checks.check_gh(E, 2, "GF(8)")
    E = G.entries.copy()
    E[0, 0] = 2
    assert checks.check_gh(E, 2, "GF(8)")


def test_gh_workload_check_rejects_a_corrupted_parse():
    G = constructions.gh_from_field(2, 3)
    good = constructions.group_orthogonality_check(G)
    wl = workloads.GHFields()
    assert wl.check(None, [(2, 3, G, G, good)]) == (0, [])
    back = constructions.GroupMatrix(G.order, 2, G.entries.copy(), "GH")
    back.entries[2, 6] ^= 1
    census = constructions.group_orthogonality_check(back)
    _, errors = wl.check(None, [(2, 3, G, back, census)])
    assert any("differ" in e for e in errors)
    assert any("census" in e for e in errors)
    assert any("M M*" in e for e in errors)


def test_diff_conflicts_parses_catalog_text():
    text = "diff vs published tables\n  agreements: 9\n  conflicts: 2\n"
    assert checks.diff_conflicts(text) == 2
    assert checks.diff_conflicts("order  best-method\n") is None


def test_float_check_rejects_entry_above_one():
    A = np.eye(3) * 1.5
    assert checks.check_cretan_float(A, 2.25, "x")


def test_benchmark_json_names_what_the_runs_report():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in doc["end_to_end"]] == \
        ["wall_s", "peak_rss_mb", "setup_s"]
    layer = child.layer_metric_names() + list(run.TRACE_METRICS)
    assert [m["name"] for m in doc["per_layer"]] == layer
    assert all(m["unit"] == child.layer_unit(m["name"])
               for m in doc["per_layer"])
