"""Best-known Cretan matrices per odd order, with a published-table diff.

Every odd order from 3 up is covered by at least one route of the ROUTES
table (two-level matrices over quadratic-residue or registry designs,
bordered regular Hadamard cores, Kronecker products of smaller orders,
and the basic two-level family); the command line builds from the same
table, whose last route, bordered, applies only at even orders, so no
catalog entry lists it.  construct_best verifies every candidate and
keeps the one that rank puts first; the command line ranks what it
builds by the same rule.  catalog_table reproduces the published
construction tables for odd orders up to 199 and reports agreements,
orders we fill that the tables leave blank, claims we cannot realize,
and outright conflicts.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from cretan.constructions import (
    LevelMatrix,
    ModulusViolation,
    basic_family,
    bordered_solver,
    kronecker_cretan,
    regular_hadamard_border,
    sbibd_two_level,
)
from cretan.designs import (
    BadFixture,
    MissingFixture,
    build_family,
    fixture_search_dirs,
    QR_MAX_Q,
    qr_difference_set,
    registered_designs,
)
from cretan.fields import is_prime_power
from cretan.hadamard import (NoConstructionAvailable, regular_hadamard,
                             square_side)
from cretan.verify import ByDesign, ByFactors, Certificate, verify_cretan

MIN_ORDER = 3
MAX_ORDER = 999


@dataclass
class Candidate:
    method: str
    matrix: LevelMatrix | None
    certificate: Certificate | None
    note: str = ""
    error: str = ""              # a failed build's exception text

    @property
    def ok(self) -> bool:
        return self.certificate is not None and self.certificate.relaxed

    @property
    def omega_float(self) -> float:
        return self.matrix.omega.to_float() if self.matrix else 0.0

    @property
    def verdict(self) -> str:
        if self.certificate is None:
            return "failed"
        if self.certificate.strict:
            return "strict"
        if self.certificate.relaxed:
            return "relaxed"
        return "failed"


@dataclass
class CatalogEntry:
    order: int
    methods: list
    candidates: list
    best: Candidate
    expected: tuple = ()

    @property
    def best_summary(self) -> tuple:
        return (self.best.method, self.best.matrix.tau,
                self.best.omega_float, self.best.verdict)


def _check_range(v: int) -> None:
    if not (MIN_ORDER <= v <= MAX_ORDER) or v % 2 == 0:
        raise ValueError("order must be odd in [%d, %d], got %r"
                         % (MIN_ORDER, MAX_ORDER, v))


# -- construction routes ------------------------------------------------------

def _odd_factor_pairs(v: int) -> list:
    return [(a, v // a) for a in range(3, math.isqrt(max(v, 0)) + 1, 2)
            if v % a == 0 and v % 2]


def design_sources(v: int) -> list:
    """Symmetric designs at order v as (route, note, develop) triples: the
    registered rows first, then the quadratic residues at a prime power
    3 mod 4 up to QR_MAX_Q.  Listing them builds nothing; develop()
    builds the design."""
    out = [("sbibd-ds", "(%d,%d,%d)" % (v, k, lam),
            lambda fam=fam, kw=kw: build_family(fam, **kw).develop())
           for _, k, lam, fam, kw in registered_designs(v)]
    if v % 4 == 3 and v <= QR_MAX_Q and is_prime_power(v):
        out.append(("paley-sbibd", "t=%d" % ((v + 1) // 4),
                    lambda: qr_difference_set(v).develop()))
    return out


def _two_level(develop) -> list:
    design = develop()
    return [(m, ByDesign(sb.incidence, sb.k, sb.lam))
            for sb in (design, design.complement())
            for m in sbibd_two_level(sb)]


def _design_parts(route: str):
    return lambda v: [(note, partial(_two_level, develop))
                      for name, note, develop in design_sources(v)
                      if name == route]


def _regular_hadamard_parts(v: int) -> list:
    m = square_side(v - 1)
    if m is None:
        return []
    return [("", lambda: [(regular_hadamard_border(regular_hadamard(m)),
                           None)])]


def _missing_core(v: int) -> str:
    m = square_side(v - 1)
    return ("no regular Hadamard fixture for m=%d (order %d core)"
            % (m, 4 * m * m))


def _kronecker(a: int, b: int) -> list:
    # every odd order >= 3 has a best: basic from 5 on, paley-sbibd at 3
    left, right = construct_best(a).best, construct_best(b).best
    return [(kronecker_cretan(left.matrix, right.matrix),
             ByFactors(left.certificate, right.certificate))]


def _basic(v: int) -> list:
    # the identity is a (v, 1, 0) design: I I^T = I
    return [(basic_family(v), ByDesign(np.eye(v, dtype=np.int8), 1, 0))]


def _bordered(develop) -> list:
    return [(m, None) for m in bordered_solver(develop())]


@dataclass(frozen=True)
class Route:
    """One construction route.  parts(v) lists (note, build) pairs and
    builds nothing: the route applies at v when the list is non-empty.
    build() returns the part's (LevelMatrix, proof) pairs, the proof
    being verify_cretan's gram argument or None, and may raise one of
    ROUTE_FAILURES.  When missing is set, a failed build is reported as a
    missing fixture, with the note missing(v)."""
    parts: Callable[[int], list]
    missing: Callable[[int], str] | None = None


# the one table of routes, in scan order; ties in radius and tau go to the
# earlier route.  bordered applies only at even orders (every design source
# has odd order), so no catalog entry lists it
ROUTES = {
    "regular-hadamard": Route(_regular_hadamard_parts, _missing_core),
    "sbibd-ds": Route(_design_parts("sbibd-ds")),
    "paley-sbibd": Route(_design_parts("paley-sbibd")),
    "kronecker": Route(lambda v: [("%d x %d" % ab, partial(_kronecker, *ab))
                                  for ab in _odd_factor_pairs(v)]),
    "basic": Route(lambda v: [("", partial(_basic, v))]),
    "bordered": Route(lambda v: [(note, partial(_bordered, dev))
                                 for _, note, dev in design_sources(v - 1)]),
}
METHOD_ORDER = tuple(ROUTES)

ROUTE_FAILURES = (MissingFixture, BadFixture, NoConstructionAvailable,
                  ModulusViolation)


def _candidates_for(v: int) -> tuple:
    methods: list = []
    cands: list = []
    for name, route in ROUTES.items():
        parts = route.parts(v)
        if not parts:
            continue
        label = name
        for note, build in parts:
            try:
                mats = build()
            except ROUTE_FAILURES as exc:
                error = note = str(exc)
                if route.missing is not None:
                    label, note = "fixture-missing", route.missing(v)
                cands.append(Candidate(name, None, None, note, error))
                continue
            cands += [Candidate(name, m, verify_cretan(m, mode="relaxed",
                                                       gram=proof), note)
                      for m, proof in mats]
        methods.append(label)
    return methods, cands


def rank(c: Candidate) -> tuple:
    """Sort key of a built candidate: larger omega first; ties go to fewer
    levels, then to the earlier route."""
    return (-c.omega_float, c.matrix.tau, METHOD_ORDER.index(c.method))


# keyed on the order and the fixture search directories, so a fixture
# directory set after a first call is not hidden by the memo
_MEMO: dict = {}


def construct_best(v: int) -> CatalogEntry:
    """Every candidate at an odd order, verified, and the verified one that
    rank puts first as best.  best is always set: basic is a strict
    candidate at every order from 5 on, and at 3 the complement of the
    (3, 2, 1) quadratic-residue design is one."""
    _check_range(v)
    key = (v, tuple(fixture_search_dirs()))
    if key in _MEMO:
        return _MEMO[key]
    methods, cands = _candidates_for(v)
    best = min((c for c in cands if c.ok), key=rank)
    entry = CatalogEntry(v, methods, cands, best,
                         TABLE2_EXPECTED.get(v, ()))
    _MEMO[key] = entry
    return entry


# -- published expectations ----------------------------------------------------

# Method labels per odd order as published; () marks a blank cell.
# BM = basic two-level family, P2 = quadratic-residue route at prime
# powers 3 mod 4, DS = symmetric-design two-level route, K = Kronecker.
TABLE2_EXPECTED: dict = {
    3: ("BM", "P2"), 5: ("BM",), 7: ("BM", "P2"),
    9: ("BM",), 11: ("BM", "P2"), 13: ("BM",),
    15: ("K",), 17: (), 19: ("P2",),
    21: ("DS",), 23: ("P2",), 25: ("K",),
    27: ("P2",), 29: (), 31: ("P2",),
    33: ("K",), 35: ("K",), 37: (),
    39: ("K",), 41: (), 43: ("P2",),
    45: ("DS",), 47: ("P2",), 49: ("K",),
    51: (), 53: (), 55: ("K",),
    57: ("DS",), 59: ("P2",), 61: (),
    63: ("K",), 65: ("K",), 67: ("P2",),
    69: ("K",), 71: ("P2",), 73: ("DS",),
    75: ("K",), 77: ("K",), 79: ("P2",),
    81: ("P2",), 83: (), 85: ("DS",),
    87: (), 89: (), 91: ("K",),
    93: ("K",), 95: ("K",), 97: (),
    99: ("K",), 101: ("DS",), 103: ("P2",),
    105: ("K",), 107: ("P2",), 109: ("DS",),
    111: (), 113: (), 115: ("K",),
    117: ("K",), 119: (), 121: ("DS",),
    123: (), 125: ("K",), 127: ("P2",),
    129: ("K",), 131: ("P2",), 133: ("DS",),
    135: ("K",), 137: (), 139: ("P2",),
    141: ("K",), 143: (), 145: (),
    147: ("K",), 149: (), 151: ("P2",),
    153: (), 155: ("K",), 157: (),
    159: (), 161: ("K",), 163: ("P2",),
    165: ("K",), 167: ("P2",), 169: ("K",),
    171: ("P2",), 173: (), 175: ("K",),
    177: ("K",), 179: ("P2",), 181: (),
    183: (), 185: (), 187: (),
    189: ("K",), 191: ("P2",), 193: (),
    195: ("P2",), 197: ("DS",), 199: ("P2",),
}

# Orders published as borderable regular Hadamard cores (radius 1).
TABLE1_REGULAR_HADAMARD = (5, 17, 37, 45, 65, 101, 145, 197)

# Symmetric-design parameter rows as published.
TABLE1_DESIGNS = ((13, 4, 1), (21, 5, 1), (37, 9, 2), (45, 12, 3),
                  (57, 8, 1), (73, 9, 1), (85, 21, 5), (101, 25, 6),
                  (109, 28, 7), (121, 40, 13), (133, 33, 8), (197, 49, 12))


@dataclass
class DiffReport:
    agreements: list = field(default_factory=list)
    our_extra: list = field(default_factory=list)
    paper_extra: list = field(default_factory=list)
    conflicts: list = field(default_factory=list)


@dataclass
class CatalogReport:
    v_max: int
    entries: list
    diff: DiffReport


@dataclass(frozen=True)
class Claim:
    """One published claim at an order, judged by reading the catalog
    entry (see _judge).  accept(c) is asked only of verified candidates."""
    route: str
    agree: str = ""              # note on agreement
    absent: str = ""             # why the route does not apply
    conflict: str = ""           # note when nothing of the route passes
    accept: Callable[[Candidate], bool] = lambda c: True


def _judge(entry: CatalogEntry, claim: Claim) -> tuple:
    """(kind, note), kind naming a DiffReport list.  A claim agrees when a
    candidate of its route passes; a failed build of the route, or a route
    that does not apply at the order, makes it a published claim we cannot
    realize; anything else is a conflict."""
    cands = [c for c in entry.candidates if c.method == claim.route]
    if any(c.ok and claim.accept(c) for c in cands):
        return "agreements", claim.agree
    errors = [c.error for c in cands if c.certificate is None]
    if errors:
        return "paper_extra", errors[0]
    if claim.route not in entry.methods:
        return "paper_extra", claim.absent
    return "conflicts", claim.conflict


# Table 2 label -> (route, why the route does not apply at v, conflict note)
TABLE2_ROUTES = {
    "BM": ("basic", lambda v: "", "basic family failed"),
    "P2": ("paley-sbibd",
           lambda v: ("%d is not a prime power" if v % 4 == 3 else
                      "%d is 1 mod 4, outside the route's range") % v,
           "quadratic-residue route failed"),
    "DS": ("sbibd-ds", lambda v: "no design registered at %d" % v,
           "design route failed verification"),
    "K": ("kronecker", lambda v: "%d has no odd factor pair" % v,
          "kronecker route failed"),
}


def _table2_claim(label: str, v: int) -> Claim:
    if label == "BM" and v == 3:
        # degenerate order: the two-level family appears as the
        # complement-design route instead
        return Claim("paley-sbibd", conflict="no construction at order 3")
    route, absent, conflict = TABLE2_ROUTES[label]
    return Claim(route, absent=absent(v), conflict=conflict)


def _table1_claims():
    """(tag, order, Claim) for every Table 1 row, designs first."""
    for v, k, lam in TABLE1_DESIGNS:
        row = "(%d,%d,%d)" % (v, k, lam)
        yield "table1-ds", v, Claim(
            "sbibd-ds", row, row + " not registered", "two-level route failed",
            lambda c, row=row: c.note == row and c.certificate.strict)
    for v in TABLE1_REGULAR_HADAMARD:
        m = square_side(v - 1)
        yield "table1-rh", v, Claim(
            "regular-hadamard", "m=%d" % m if m else "",
            "%d - 1 = %d is not 4 m^2" % (v, v - 1), "border failed",
            lambda c: c.certificate.omega.to_float() == 1.0)


def _diff_rows(entries: list, with_table1: bool):
    """(kind, row) for every blank cell and published claim, in report
    order; kind names the DiffReport list the row belongs to."""
    for e in entries:
        v = e.order
        if not e.expected:
            yield "our_extra", (v, e.best.method)
        for label in e.expected:
            kind, note = _judge(e, _table2_claim(label, v))
            yield kind, (("table2", v, label) if kind == "agreements"
                         else ("table2:%s" % label, v, note))
    if with_table1:
        by_order = {e.order: e for e in entries}
        for tag, v, claim in _table1_claims():
            kind, note = _judge(by_order[v], claim)
            yield kind, (tag, v, note)


def catalog_table(v_max: int = 199) -> CatalogReport:
    """Catalog entries for every odd order up to v_max plus the diff
    against the published tables (orders above 199 have no expectation
    and can only add our-extra rows).  The diff only reads the entries."""
    if v_max > MAX_ORDER:
        raise ValueError("v_max above %d" % MAX_ORDER)
    if v_max < MIN_ORDER:
        raise ValueError("v_max below %d" % MIN_ORDER)
    entries = [construct_best(v) for v in range(MIN_ORDER, v_max + 1, 2)]
    diff = DiffReport()
    for kind, row in _diff_rows(
            entries, v_max >= max(TABLE1_REGULAR_HADAMARD)):
        getattr(diff, kind).append(row)
    return CatalogReport(v_max, entries, diff)


# -- presentation ---------------------------------------------------------------

def format_catalog_text(report: CatalogReport, show_diff: bool = False) -> str:
    lines = ["order  best-method        tau  radius       verdict  routes"]
    for e in report.entries:
        lines.append("%5d  %-17s  %3d  %-11.6g  %-7s  %s"
                     % (e.order, e.best.method, e.best.matrix.tau,
                        e.best.omega_float, e.best.verdict,
                        ",".join(e.methods)))
    if show_diff:
        d = report.diff
        lines.append("")
        lines.append("diff vs published tables")
        lines.append("  agreements: %d" % len(d.agreements))
        lines.append("  our-extra (blank cells we fill): %d"
                     % len(d.our_extra))
        for v, method in d.our_extra:
            lines.append("    %5d  %s" % (v, method))
        lines.append("  paper-extra (published claims not realizable):"
                     " %d" % len(d.paper_extra))
        for tag, v, note in d.paper_extra:
            lines.append("    %5d  [%s] %s" % (v, tag, note))
        lines.append("  conflicts: %d" % len(d.conflicts))
        for tag, v, note in d.conflicts:
            lines.append("    %5d  [%s] %s" % (v, tag, note))
    return "\n".join(lines) + "\n"


def catalog_structured(report: CatalogReport) -> dict:
    """Plain-dict form of the catalog, stable across runs."""
    return {
        "v_max": report.v_max,
        "entries": [
            {
                "order": e.order,
                "methods": list(e.methods),
                "best": list(e.best_summary),
                "expected": list(e.expected),
                "candidates": [
                    {
                        "method": c.method,
                        "omega": c.omega_float,
                        "tau": c.matrix.tau if c.matrix else None,
                        "verdict": c.verdict,
                        "gram": (c.certificate.gram_path
                                 if c.certificate else None),
                        "note": c.note,
                    }
                    for c in e.candidates
                ],
            }
            for e in report.entries
        ],
        "diff": {
            "agreements": [list(x) for x in report.diff.agreements],
            "our_extra": [list(x) for x in report.diff.our_extra],
            "paper_extra": [list(x) for x in report.diff.paper_extra],
            "conflicts": [list(x) for x in report.diff.conflicts],
        },
    }
