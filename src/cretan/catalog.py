"""Best-known Cretan matrices per odd order, with a published-table diff.

Every odd order from 3 up is covered by at least one route of the ROUTES
table (two-level matrices over quadratic-residue or registry designs,
bordered regular Hadamard cores, Kronecker products of smaller orders,
and the basic two-level family); the command line builds from the same
table.  construct_best verifies every candidate and keeps the one with
the largest radius.  catalog_table reproduces the published
construction tables for odd orders up to 199 and reports agreements,
orders we fill that the tables leave blank, claims we cannot realize,
and outright conflicts.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

from cretan.constructions import (
    LevelMatrix,
    ModulusViolation,
    basic_family,
    kronecker_cretan,
    regular_hadamard_border,
    sbibd_two_level,
)
from cretan.designs import (
    BadFixture,
    MissingFixture,
    build_family,
    fixture_search_dirs,
    qr_difference_set,
    registered_designs,
)
from cretan.fields import is_prime_power
from cretan.hadamard import NoConstructionAvailable, regular_hadamard
from cretan.verify import Certificate, verify_cretan

MIN_ORDER = 3
MAX_ORDER = 999


@dataclass
class Candidate:
    method: str
    matrix: LevelMatrix | None
    certificate: Certificate | None
    note: str = ""

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
    best: Candidate | None
    expected: tuple = ()

    @property
    def best_summary(self) -> tuple:
        if self.best is None:
            return ()
        return (self.best.method, self.best.matrix.tau,
                self.best.omega_float, self.best.verdict)


def _check_range(v: int) -> None:
    if not (MIN_ORDER <= v <= MAX_ORDER) or v % 2 == 0:
        raise ValueError("order must be odd in [%d, %d], got %r"
                         % (MIN_ORDER, MAX_ORDER, v))


# -- construction routes ------------------------------------------------------

def _square_core_side(v: int) -> int | None:
    # v = 4 m^2 + 1 exactly, with m >= 1
    m = math.isqrt(v // 4) if v > 4 else 0
    return m if m and 4 * m * m + 1 == v else None


def _is_prime_power_3mod4(v: int) -> bool:
    return v % 4 == 3 and is_prime_power(v)


def _odd_factor_pairs(v: int) -> list:
    return [(a, v // a) for a in range(3, math.isqrt(max(v, 0)) + 1, 2)
            if v % a == 0 and v % 2]


def design_sources(v: int) -> list:
    """Symmetric designs at order v as (route, note, develop) triples: the
    registered rows first, then the quadratic residues at a prime power
    3 mod 4.  Listing them builds nothing; develop() builds the design."""
    out = [("sbibd-ds", "(%d,%d,%d)" % (v, k, lam),
            lambda fam=fam, kw=kw: build_family(fam, **kw).develop())
           for _, k, lam, fam, kw in registered_designs(v)]
    if _is_prime_power_3mod4(v):
        out.append(("paley-sbibd", "t=%d" % ((v + 1) // 4),
                    lambda: qr_difference_set(v).develop()))
    return out


def _two_level(develop) -> list:
    design = develop()
    return sbibd_two_level(design) + sbibd_two_level(design.complement())


def _design_parts(route: str):
    return lambda v: [(note, partial(_two_level, develop))
                      for name, note, develop in design_sources(v)
                      if name == route]


def _regular_hadamard_parts(v: int) -> list:
    m = _square_core_side(v)
    if m is None:
        return []
    return [("", lambda: [regular_hadamard_border(regular_hadamard(m))])]


def _missing_core(v: int) -> str:
    m = _square_core_side(v)
    return ("no regular Hadamard fixture for m=%d (order %d core)"
            % (m, 4 * m * m))


def _kronecker(a: int, b: int) -> list:
    left, right = construct_best(a).best, construct_best(b).best
    if left is None or right is None:
        return []
    return [kronecker_cretan(left.matrix, right.matrix)]


@dataclass(frozen=True)
class Route:
    """One construction route.  parts(v) lists (note, build) pairs and
    builds nothing: the route applies at v when the list is non-empty.
    build() returns the part's LevelMatrix values and may raise one of
    ROUTE_FAILURES.  When missing is set, a failed build is reported as a
    missing fixture, with the note missing(v)."""
    parts: Callable[[int], list]
    missing: Callable[[int], str] | None = None


# the one table of routes, in scan order; ties in radius and tau go to the
# earlier route
ROUTES = {
    "regular-hadamard": Route(_regular_hadamard_parts, _missing_core),
    "sbibd-ds": Route(_design_parts("sbibd-ds")),
    "paley-sbibd": Route(_design_parts("paley-sbibd")),
    "kronecker": Route(lambda v: [("%d x %d" % ab, partial(_kronecker, *ab))
                                  for ab in _odd_factor_pairs(v)]),
    "basic": Route(lambda v: [("", lambda: [basic_family(v)])]),
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
                if route.missing is not None:
                    label, note = "fixture-missing", route.missing(v)
                else:
                    note = str(exc)
                cands.append(Candidate(name, None, None, note))
                continue
            cands += [Candidate(name, m, verify_cretan(m, mode="relaxed"),
                                note) for m in mats]
        methods.append(label)
    return methods, cands


def _rank(c: Candidate) -> tuple:
    # larger omega first; ties: fewer levels, then method-name order
    return (-c.omega_float, c.matrix.tau, METHOD_ORDER.index(c.method))


# keyed on the order and the fixture search directories, so a fixture
# directory set after a first call is not hidden by the memo
_MEMO: dict = {}


def construct_best(v: int) -> CatalogEntry:
    """Verified construction with the largest radius for an odd order."""
    _check_range(v)
    key = (v, tuple(fixture_search_dirs()))
    if key in _MEMO:
        return _MEMO[key]
    methods, cands = _candidates_for(v)
    viable = sorted((c for c in cands if c.ok), key=_rank)
    best = viable[0] if viable else None
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


def _label_outcome(v: int, label: str, entry: CatalogEntry):
    """Map a published method label onto our routes.

    Returns (kind, note) with kind one of agreement / paper-extra /
    conflict.  A label whose precondition cannot hold at v at all is a
    publication error and lands in paper-extra with the reason.
    """
    def route_ok(name):
        return any(c.method == name and c.ok for c in entry.candidates)

    if label == "BM":
        if v == 3:
            # degenerate order: the two-level family appears as the
            # complement-design route instead
            ok = route_ok("paley-sbibd")
            return ("agreement", "degenerate two-level form") if ok \
                else ("conflict", "no construction at order 3")
        return ("agreement", "") if route_ok("basic") \
            else ("conflict", "basic family failed")
    if label == "P2":
        if not _is_prime_power_3mod4(v):
            if v % 4 == 3:
                return ("paper-extra",
                        "%d is not a prime power" % v)
            return ("paper-extra",
                    "%d is 1 mod 4, outside the route's range" % v)
        return ("agreement", "") if route_ok("paley-sbibd") \
            else ("conflict", "quadratic-residue route failed")
    if label == "DS":
        if not registered_designs(v):
            return ("paper-extra", "no design registered at %d" % v)
        if route_ok("sbibd-ds"):
            return ("agreement", "")
        missing = [c.note for c in entry.candidates
                   if c.method == "sbibd-ds" and c.certificate is None]
        if missing:
            return ("paper-extra", missing[0])
        return ("conflict", "design route failed verification")
    if label == "K":
        if not _odd_factor_pairs(v):
            return ("paper-extra", "%d has no odd factor pair" % v)
        return ("agreement", "") if route_ok("kronecker") \
            else ("conflict", "kronecker route failed")
    return ("conflict", "unknown label %r" % label)


def _diff_table1(diff: DiffReport) -> None:
    for v, k, lam in TABLE1_DESIGNS:
        rows = [r for r in registered_designs(v) if r[:3] == (v, k, lam)]
        if not rows:
            diff.paper_extra.append(
                ("table1-ds", v, "(%d,%d,%d) not registered" % (v, k, lam)))
            continue
        try:
            design = build_family(rows[0][3], **rows[0][4]).develop()
        except (MissingFixture, BadFixture) as exc:
            diff.paper_extra.append(("table1-ds", v, str(exc)))
            continue
        mats = sbibd_two_level(design) + sbibd_two_level(design.complement())
        good = [m for m in mats if verify_cretan(m).strict]
        if good:
            diff.agreements.append(("table1-ds", v,
                                    "(%d,%d,%d)" % (v, k, lam)))
        else:
            diff.conflicts.append(("table1-ds", v,
                                   "two-level route failed"))
    for v in TABLE1_REGULAR_HADAMARD:
        m = _square_core_side(v)
        if m is None:
            diff.paper_extra.append(
                ("table1-rh", v,
                 "%d - 1 = %d is not 4 m^2" % (v, v - 1)))
            continue
        try:
            mat = regular_hadamard_border(regular_hadamard(m))
        except (NoConstructionAvailable, MissingFixture, BadFixture) as exc:
            diff.paper_extra.append(("table1-rh", v, str(exc)))
            continue
        cert = verify_cretan(mat, mode="relaxed")
        if cert.relaxed and cert.omega.to_float() == 1.0:
            diff.agreements.append(("table1-rh", v, "m=%d" % m))
        else:
            diff.conflicts.append(("table1-rh", v, "border failed"))


def catalog_table(v_max: int = 199) -> CatalogReport:
    """Catalog entries for every odd order up to v_max plus the diff
    against the published tables (orders above 199 have no expectation
    and can only add our-extra rows)."""
    if v_max > MAX_ORDER:
        raise ValueError("v_max above %d" % MAX_ORDER)
    entries = [construct_best(v) for v in range(MIN_ORDER, v_max + 1, 2)]
    diff = DiffReport()
    for entry in entries:
        v = entry.order
        labels = entry.expected
        if not labels:
            if entry.best is not None:
                diff.our_extra.append((v, entry.best.method))
            continue
        for label in labels:
            kind, note = _label_outcome(v, label, entry)
            if kind == "agreement":
                diff.agreements.append(("table2", v, label))
            elif kind == "paper-extra":
                diff.paper_extra.append(("table2:%s" % label, v, note))
            else:
                diff.conflicts.append(("table2:%s" % label, v, note))
    if v_max >= max(TABLE1_REGULAR_HADAMARD):
        _diff_table1(diff)
    return CatalogReport(v_max, entries, diff)


# -- presentation ---------------------------------------------------------------

def format_catalog_text(report: CatalogReport, show_diff: bool = False) -> str:
    lines = ["order  best-method        tau  radius       verdict  routes"]
    for e in report.entries:
        if e.best is None:
            lines.append("%5d  %-17s" % (e.order, "(none)"))
            continue
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
