"""Difference sets and the symmetric designs they develop into.

A (v, k, lam) difference set D in an abelian group G of order v is a
k-subset whose ordered differences cover every non-identity element of G
exactly lam times.  Developing D gives a symmetric balanced incomplete
block design: a v x v 0/1 matrix B with B B^T = (k - lam) I + lam J.

Groups are products of cyclic factors; elements are int tuples.  Inside
the kernels an element is its integer position in `GroupDesc.elements()`
order (mixed radix, last factor fastest), and the position of a - b is
built one cyclic factor at a time, pos = pos * o + (a_f - b_f) mod o, on
int32 coordinate arrays.  Developing D is then one lookup,
B[i, j] = inside[pos(g_j - g_i)], and the census is one `np.bincount`
over the k x k difference positions, less the k diagonal hits on the
identity.  Coordinates are range-checked first, so an element outside
the group cannot alias to another one; make_difference_set checks them
once and keeps them on the set for develop.

Three families are constructed directly (quadratic residues, biquadratic
residues, hyperplane-based sets in projective space) and the rest ship as
fixture files validated by the same census used everywhere else.  A
fixture that fails to parse or fails its census raises `BadFixture`.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from cretan.fields import (
    MAX_FIELD_SIZE,
    factor_prime_power,
    is_prime,
    make_field,
    trace_of_powers,
)
from cretan.scalar import exact_dtype, parse_int


class NotADifferenceSet(ValueError):
    """Census failed: the candidate set is not a difference set."""


class MissingFixture(FileNotFoundError):
    """A named fixture file is not present in any search directory."""


class BadFixture(ValueError):
    """A fixture file failed to parse or failed its census."""


@dataclass(frozen=True)
class GroupDesc:
    """Finite abelian group given as a product of cyclic factors."""

    orders: tuple

    def __post_init__(self):
        if not self.orders or any(o < 1 for o in self.orders):
            raise ValueError("cyclic factor orders must be positive")

    @property
    def order(self) -> int:
        n = 1
        for o in self.orders:
            n *= o
        return n

    def elements(self) -> list[tuple]:
        """All elements in mixed-radix lexicographic order."""
        return list(itertools.product(*(range(o) for o in self.orders)))

    def identity(self) -> tuple:
        return (0,) * len(self.orders)

    def sub(self, a: tuple, b: tuple) -> tuple:
        return tuple((x - y) % o for x, y, o in zip(a, b, self.orders))

    def coords(self, elements) -> np.ndarray:
        """Element tuples as a (len, rank) int32 coordinate array.

        Raises ValueError for an element of the wrong arity or with a
        coordinate outside 0..o-1.
        """
        rank = len(self.orders)
        els = list(elements)
        for e in els:
            if len(e) != rank or not all(
                    0 <= x < o for x, o in zip(e, self.orders)):
                raise ValueError("element %r is not in %s" % (e, self))
        return np.array(els, dtype=np.int32).reshape(len(els), rank)

    def all_coords(self) -> np.ndarray:
        """Coordinates of every element, in `elements()` order."""
        return np.indices(self.orders, dtype=np.int32).reshape(
            len(self.orders), -1).T

    def positions(self, C: np.ndarray) -> np.ndarray:
        """Index in `elements()` of each coordinate row of C."""
        origin = np.zeros((1, len(self.orders)), dtype=np.int32)
        return self.diff_positions(C, origin)[0]

    def develop(self, table: np.ndarray) -> np.ndarray:
        """out[i, j] = table[position of g_j - g_i], g in `elements()`
        order."""
        C = self.all_coords()
        return table[self.diff_positions(C, C)]

    def diff_positions(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """out[i, j] = position of A[j] - B[i], one factor at a time."""
        out = np.zeros((len(B), len(A)), dtype=np.int32)
        for f, o in enumerate(self.orders):
            d = A[None, :, f] - B[:, None, f]
            d %= o
            out *= o
            out += d
        return out

    def __str__(self):
        return " x ".join("Z%d" % o for o in self.orders)


def cyclic(v: int) -> GroupDesc:
    return GroupDesc((v,))


def _census_counts(group: GroupDesc, C: np.ndarray) -> np.ndarray:
    """Count of each element, by position, among the differences a - b
    over distinct pairs of the coordinate rows C (entry 0, the identity,
    is zero)."""
    counts = np.bincount(group.diff_positions(C, C).ravel(),
                         minlength=group.order)
    counts[0] -= len(C)
    return counts


def difference_census(group: GroupDesc, elements) -> dict:
    """Count ordered differences d1 - d2 over distinct pairs of the set.

    Returns {group element: count} for every non-identity element,
    including zero counts.  Raises ValueError for an element outside the
    group.
    """
    counts = dict(zip(group.elements(),
                      _census_counts(group, group.coords(elements)).tolist()))
    del counts[group.identity()]
    return counts


@dataclass(frozen=True)
class DifferenceSet:
    """A census-checked difference set; make_difference_set builds it.
    coords holds the coordinate rows of elements, range-checked there."""
    group: GroupDesc
    elements: tuple
    lam: int
    coords: np.ndarray = field(repr=False, compare=False)
    source: str = ""

    @property
    def v(self) -> int:
        return self.group.order

    @property
    def k(self) -> int:
        return len(self.elements)

    @property
    def params(self) -> tuple:
        return (self.v, self.k, self.lam)

    def develop(self) -> "Sbibd":
        """Incidence matrix: row g, column h carries 1 iff h - g is in D."""
        group = self.group
        inside = np.zeros(self.v, dtype=np.int8)
        inside[group.positions(self.coords)] = 1
        return Sbibd(self.v, self.k, self.lam, group.develop(inside),
                     source=self.source)


def make_difference_set(group: GroupDesc, elements, lam: int,
                        source: str = "") -> DifferenceSet:
    """Validate by census and freeze.  Raises NotADifferenceSet.

    The census also proves lambda (v-1) = k (k-1): the k (k-1) ordered
    pairs of distinct elements give k (k-1) differences, all off the
    identity, and a passed census puts exactly lambda of them on each of
    the v - 1 other elements.
    """
    els = tuple(sorted(set(elements)))
    if len(els) != len(tuple(elements)):
        raise NotADifferenceSet("repeated elements in candidate set")
    try:
        C = group.coords(els)
    except ValueError as exc:
        raise NotADifferenceSet(str(exc)) from None
    bad = int((_census_counts(group, C)[1:] != lam).sum())
    if bad:
        raise NotADifferenceSet(
            "census mismatch for %s in %s: %d elements deviate from "
            "lambda=%d" % (sorted(els)[:4], group, bad, lam))
    return DifferenceSet(group, els, lam, C, source=source)


@dataclass
class Sbibd:
    """Symmetric design: v x v incidence with B B^T = (k-lam) I + lam J."""

    v: int
    k: int
    lam: int
    incidence: np.ndarray
    source: str = ""

    @property
    def params(self) -> tuple:
        return (self.v, self.k, self.lam)

    def validate(self) -> None:
        """The identity by an O(v^3) Gram product: the tests' oracle for
        develop().  The program relies on the census alone."""
        v, k, lam = self.v, self.k, self.lam
        if lam * (v - 1) != k * (k - 1):
            raise ValueError("parameter identity fails for %s" % (self.params,))
        B = self.incidence
        if B.shape != (v, v) or not ((B == 0) | (B == 1)).all():
            raise ValueError("incidence must be a v x v 0/1 matrix")
        if not (B.sum(axis=1) == k).all() or not (B.sum(axis=0) == k).all():
            raise ValueError("row or column sums differ from k")
        # every partial sum of a 0/1 Gram product is an integer of at
        # most v, so BLAS in exact_dtype(v) forms it exactly
        F = B.astype(exact_dtype(v))
        G = F @ F.T
        G.flat[::v + 1] -= k - lam
        if not (G == lam).all():
            raise ValueError("Gram identity fails for %s" % (self.params,))

    def complement(self) -> "Sbibd":
        return Sbibd(self.v, self.v - self.k, self.v - 2 * self.k + self.lam,
                     1 - self.incidence, source=self.source + " complement")


# -- constructive families ----------------------------------------------------

# the largest q that qr_difference_set builds and design_sources lists
QR_MAX_Q = 1000


def qr_difference_set(q: int) -> DifferenceSet:
    """Nonzero squares in GF(q), q a prime power 3 mod 4, q <= QR_MAX_Q.

    Parameters (q, (q-1)/2, (q-3)/4).  The set is the even powers of the
    generator (`codes[::2]`) in the additive group (Z_p)^k of GF(p^k),
    which for prime q = p is Z_q.
    """
    if q > QR_MAX_Q or q < 3:
        raise ValueError("q out of range: %d" % q)
    if q % 4 != 3:
        raise ValueError("q must be 3 mod 4, got %d" % q)
    p, k = factor_prime_power(q)
    f = make_field(p, k)
    els = list(map(tuple, f.digits[f.codes[::2]].tolist()))
    return make_difference_set(GroupDesc((p,) * k), els, (q - 3) // 4,
                               source="qr(%d)" % q)


def biquadratic_difference_set(p: int, with_zero: bool = False) -> DifferenceSet:
    """Fourth powers mod a prime p (optionally together with zero).

    Only special primes work; the census rejects everything else.  Without
    zero the parameters are (p, (p-1)/4, lam); with zero the block is the
    fourth powers plus 0 and k grows by one.  p is capped at 10^6.
    """
    if p > MAX_FIELD_SIZE:
        raise ValueError("p above the field size cap %d: %d"
                         % (MAX_FIELD_SIZE, p))
    if not is_prime(p) or p % 4 != 1:
        raise ValueError("p must be a prime 1 mod 4, got %d" % p)
    group = cyclic(p)
    quartics = sorted({pow(a, 4, p) for a in range(1, p)})
    els = [(a,) for a in quartics]
    if with_zero:
        els.append((0,))
    k = len(els)
    lam_num = k * (k - 1)
    if lam_num % (p - 1) != 0:
        raise NotADifferenceSet("k(k-1) not divisible by v-1 for p=%d" % p)
    lam = lam_num // (p - 1)
    tag = "biquadratic(%d%s)" % (p, ", with zero" if with_zero else "")
    return make_difference_set(group, els, lam, source=tag)


def singer_difference_set(n: int, q: int) -> DifferenceSet:
    """Points of a hyperplane in projective n-space over GF(q).

    Cyclic group Z_v with v = (q^(n+1)-1)/(q-1); the set collects the
    exponents i < v whose power g^i of the generator of GF(q^(n+1)) has
    relative trace zero down to GF(q), all v traces taken in one array
    step by `trace_of_powers`.  Parameters (v, (q^n-1)/(q-1),
    (q^(n-1)-1)/(q-1)).  A field above the 10^6 cap is refused before q
    is factored.  The census rejects a set of any other size than k, as
    k(k-1) = lam (v-1) has one positive root.
    """
    if n < 2:
        raise ValueError("projective dimension must be >= 2")
    # 2^20 is above the cap, so for q >= 2 the first 20 powers decide
    if q > 1 and q ** min(n + 1, 20) > MAX_FIELD_SIZE:
        raise ValueError("GF(%d^%d) is above the field size cap %d"
                         % (q, n + 1, MAX_FIELD_SIZE))
    p, j = factor_prime_power(q)
    f = make_field(p, j * (n + 1))
    v = (q ** (n + 1) - 1) // (q - 1)
    lam = (q ** (n - 1) - 1) // (q - 1)
    traces = trace_of_powers(f, np.arange(v), j)
    els = [(i,) for i in np.flatnonzero(~traces.any(axis=1)).tolist()]
    return make_difference_set(cyclic(v), els, lam,
                               source="singer(n=%d, q=%d)" % (n, q))


# -- fixtures -----------------------------------------------------------------

_DATA_DIR = Path(__file__).parent / "data"
FIXTURE_DIR_ENV = "CRETAN_FIXTURE_DIR"
FIXTURE_MAGIC = "cretan-fixture 1"


@dataclass
class Fixture:
    kind: str                 # "difference-set" or "sign-matrix"
    label: str
    provenance: str
    group_orders: tuple = ()  # difference-set kind
    params: tuple = ()        # (v, k, lam) for difference sets
    elements: tuple = ()      # difference-set elements
    order: int = 0            # sign-matrix kind
    rows: tuple = ()          # sign-matrix rows as +/- strings


def fixture_search_dirs() -> list[Path]:
    dirs = []
    env = os.environ.get(FIXTURE_DIR_ENV)
    if env:
        dirs.append(Path(env))
    dirs.append(_DATA_DIR)
    return dirs


def fixture_path(name: str) -> Path:
    for d in fixture_search_dirs():
        p = d / (name + ".txt")
        if p.is_file():
            return p
    raise MissingFixture(
        "fixture %r not found (searched %s; set %s to add a directory)"
        % (name, ", ".join(str(d) for d in fixture_search_dirs()),
           FIXTURE_DIR_ENV))


def _ints(text: str) -> tuple:
    return tuple(map(parse_int, text.split()))


# header key -> reader of the rest of its line, stripped
_FIXTURE_HEADERS = {"kind": str, "label": str, "provenance": str,
                    "group": _ints, "params": _ints, "order": parse_int}


def parse_fixture(text: str) -> Fixture:
    """Raises ValueError.  Integers are ASCII digits, as in matrix files."""
    lines = [ln.rstrip() for ln in text.strip().splitlines()]
    if not lines or lines[0].strip() != FIXTURE_MAGIC:
        raise ValueError("missing fixture magic line")
    head: dict = {}
    body_at = None
    for idx, ln in enumerate(lines[1:], start=1):
        if ln in ("elements", "rows"):
            body_at = idx + 1
            break
        key, _, rest = ln.partition(" ")
        if key not in _FIXTURE_HEADERS:
            raise ValueError("unknown fixture header line: %r" % ln)
        if key in head:
            raise ValueError("repeated %s header" % key)
        head[key] = _FIXTURE_HEADERS[key](rest.strip())
    kind = head.get("kind")
    if kind not in ("difference-set", "sign-matrix") or body_at is None:
        raise ValueError("malformed fixture file")
    body = [t for ln in lines[body_at:] for t in ln.split()]
    label, provenance = head.get("label", ""), head.get("provenance", "")
    if kind == "difference-set":
        elements = tuple(tuple(parse_int(x) for x in t.split(","))
                         for t in body)
        return Fixture(kind, label, provenance,
                       group_orders=head.get("group", ()),
                       params=head.get("params", ()), elements=elements)
    return Fixture(kind, label, provenance, order=head.get("order", 0),
                   rows=tuple(body))


def format_fixture(fx: Fixture) -> str:
    out = [FIXTURE_MAGIC, "kind " + fx.kind]
    if fx.label:
        out.append("label " + fx.label)
    if fx.provenance:
        out.append("provenance " + fx.provenance)
    if fx.kind == "difference-set":
        out.append("group " + " ".join(str(o) for o in fx.group_orders))
        out.append("params " + " ".join(str(x) for x in fx.params))
        out.append("elements")
        toks = [",".join(str(x) for x in e) for e in fx.elements]
        for i in range(0, len(toks), 12):
            out.append(" ".join(toks[i:i + 12]))
    else:
        out.append("order %d" % fx.order)
        out.append("rows")
        out.extend(fx.rows)
    return "\n".join(out) + "\n"


def load_fixture(name: str) -> Fixture:
    """Find and parse a fixture.  Raises MissingFixture or BadFixture."""
    path = fixture_path(name)
    try:
        return parse_fixture(path.read_text())
    except ValueError as exc:
        raise BadFixture("fixture %s: %s" % (path, exc)) from None


def fixture_difference_set(name: str) -> DifferenceSet:
    """Load a difference-set fixture and re-validate it by census.

    Raises MissingFixture, or BadFixture when the file does not parse or
    its set fails the census.
    """
    fx = load_fixture(name)
    try:
        if fx.kind != "difference-set":
            raise ValueError("not a difference set")
        v, k, lam = fx.params
        group = GroupDesc(fx.group_orders)
        if group.order != v or len(fx.elements) != k:
            raise ValueError("header disagrees with body")
        return make_difference_set(group, fx.elements, lam,
                                   source="fixture:%s" % name)
    except ValueError as exc:
        raise BadFixture("fixture %r: %s" % (name, exc)) from None


# -- registry of shipped designs ---------------------------------------------

# (v, k, lam, family, kwargs); every row is buildable on this machine
DESIGN_REGISTRY = (
    (13, 4, 1, "singer", {"n": 2, "q": 3}),
    (21, 5, 1, "singer", {"n": 2, "q": 4}),
    (37, 9, 2, "biquadratic", {"p": 37}),
    (45, 12, 3, "fixture", {"name": "45-12-3"}),
    (57, 8, 1, "singer", {"n": 2, "q": 7}),
    (73, 9, 1, "singer", {"n": 2, "q": 8}),
    (85, 21, 5, "singer", {"n": 3, "q": 4}),
    (101, 25, 6, "biquadratic", {"p": 101}),
    (109, 28, 7, "biquadratic", {"p": 109, "with_zero": True}),
    (121, 40, 13, "singer", {"n": 4, "q": 3}),
    (133, 33, 8, "fixture", {"name": "133-33-8"}),
    (197, 49, 12, "biquadratic", {"p": 197}),
)

_FAMILY_BUILDERS = {
    "qr": qr_difference_set,
    "biquadratic": biquadratic_difference_set,
    "singer": singer_difference_set,
    "fixture": fixture_difference_set,
}


def build_family(family: str, **kwargs) -> DifferenceSet:
    try:
        builder = _FAMILY_BUILDERS[family]
    except KeyError:
        raise ValueError("unknown design family %r (have %s)"
                         % (family, sorted(_FAMILY_BUILDERS)))
    return builder(**kwargs)


def registered_designs(v: int | None = None):
    """Registry rows, optionally filtered to one order v."""
    rows = DESIGN_REGISTRY
    if v is not None:
        rows = tuple(r for r in rows if r[0] == v)
    return rows

