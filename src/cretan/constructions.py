"""Constructions of Cretan matrices.

A Cretan matrix CM(n; tau; omega) is an order-n orthogonal matrix
S S^T = omega I whose entries all have modulus <= 1 and take tau distinct
values (the levels).  The strict variant additionally has a unit-modulus
entry in every row and column.

Real matrices are held as a level list plus an index grid so that exact
scalars are stored once per level.  Exact mode survives any construction
whose levels stay inside one quadratic field; everything else degrades to
float mode, which the verifier checks at `scalar.VERIFY_TOL`.
Builders check their arguments, not output their theorem gives: the
verifier, which this module does not import, checks each matrix once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from cretan.designs import Sbibd
from cretan.fields import make_field, trace_to_prime
from cretan.hadamard import SignMatrix
from cretan.scalar import (
    FloatLevel,
    IncompatibleRadicands,
    Scalar,
    exact_dtype,
    format_scalar,
    solve_quadratic,
)


class ModulusViolation(ValueError):
    """A construction would need a level of modulus > 1."""


# -- real level matrices ------------------------------------------------------

def _level_key(x: Scalar):
    return (x.to_float(), format_scalar(x))


class LevelMatrix:
    """An order-n real matrix as its sorted distinct levels (Scalars) and
    an int16 grid of indices into them.

    A Kronecker product keeps its factors instead: factors is (A, B,
    table), with table[u tb + w] the index in levels of A.levels[u]
    B.levels[w] (tb = B.tau), and the grid is built from the factor grids
    on its first read, cached and made read-only.  Until then a product
    costs O(tau_A tau_B), and `verify.ByFactors` can certify it without
    building it.
    """

    def __init__(self, order: int, levels: tuple, grid: np.ndarray | None,
                 omega: Scalar, method: str, params=None, notes=(),
                 factors=None):
        self.order = order
        self.levels = levels
        self._grid = grid
        self.omega = omega
        self.method = method
        self.params = {} if params is None else params
        self.notes = notes
        self.factors = factors

    @property
    def grid(self) -> np.ndarray:
        if self._grid is None:
            A, B, table = self.factors
            grid = table.take(kron_pair_codes(A.grid, B.grid, B.tau))
            grid.flags.writeable = False
            self._grid = grid
        return self._grid

    @property
    def tau(self) -> int:
        return len(self.levels)

    @property
    def mode(self) -> str:
        if self.omega.is_float or any(l.is_float for l in self.levels):
            return "float"
        return "exact"

    def to_float_array(self) -> np.ndarray:
        vals = np.array([l.to_float() for l in self.levels])
        return vals[self.grid]

    def __eq__(self, other):
        return (isinstance(other, LevelMatrix)
                and self.order == other.order
                and self.levels == other.levels
                and (self.grid == other.grid).all()
                and self.omega == other.omega)

    def __repr__(self):
        return "LevelMatrix(CM(%d;%d;%s), method=%s, mode=%s)" % (
            self.order, self.tau, format_scalar(self.omega),
            self.method, self.mode)


def kron_pair_codes(ga: np.ndarray, gb: np.ndarray, tb: int) -> np.ndarray:
    """u tb + w at each entry of the Kronecker product of the grids ga and
    gb where they hold u and w: the mixed-radix code of the level pair."""
    n = len(ga) * len(gb)
    return (ga.astype(np.int32)[:, None, :, None] * tb
            + gb.astype(np.int32)[None, :, None, :]).reshape(n, n)


def from_values(values, omega: Scalar, method: str, params=None,
                notes=()) -> LevelMatrix:
    """Build a LevelMatrix from a square array of Scalars."""
    n = len(values)
    if any(len(row) != n for row in values):
        raise ValueError("matrix is not square")
    ids: dict = {}
    codes = np.array([[ids.setdefault(x, len(ids)) for x in row]
                      for row in values], dtype=np.intp).reshape(n, n)
    return from_codes(list(ids), codes, omega, method, params, notes)


def _merged(values) -> tuple:
    """(levels, lut): the distinct values sorted, the first of equal ones
    kept, and the int16 index in levels of each value.  More levels than
    an int16 grid can index is a ValueError."""
    levels = tuple(sorted(dict.fromkeys(values), key=_level_key))
    if len(levels) > np.iinfo(np.int16).max + 1:
        raise ValueError("%d levels, more than an int16 grid can index"
                         % len(levels))
    index = {l: i for i, l in enumerate(levels)}
    return levels, np.array([index[x] for x in values], dtype=np.int16)


def from_codes(values, codes: np.ndarray, omega: Scalar, method: str,
               params=None, notes=()) -> LevelMatrix:
    """Build a LevelMatrix whose entry (i, j) is values[codes[i, j]].
    Equal values merge into one level (see _merged)."""
    levels, lut = _merged(values)
    return LevelMatrix(codes.shape[0], levels, lut.take(codes), omega,
                       method, params, tuple(notes))


def basic_family(n: int) -> LevelMatrix:
    """Diagonal 1, off-diagonal -2/(n-2): a two-level CM for every n >= 4.

    The off-diagonal value is forced by the characteristic equation
    2a + (n-2) b = 0, and omega = 1 + 4(n-1)/(n-2)^2.
    """
    if n < 3:
        raise ValueError("order must be at least 3, got %d" % n)
    if n == 3:
        raise ModulusViolation("n = 3 forces b = -2, modulus above 1")
    b = Scalar(-2, 0, 0, n - 2)
    omega = Scalar((n - 2) ** 2 + 4 * (n - 1), 0, 0, (n - 2) ** 2)
    grid = np.eye(n, dtype=np.int16)  # diagonal -> level 1, rest -> b
    return LevelMatrix(n, (b, Scalar(1)), grid, omega, "basic", {"n": n})


def characteristic_roots(v: int, k: int, lam: int) -> list:
    """Off-diagonal level(s) b for a two-level matrix over an SBIBD:
    roots of lam + 2(k-lam) b + (v-2k+lam) b^2 = 0, ascending."""
    return solve_quadratic(lam, 2 * (k - lam), v - 2 * k + lam)


def sbibd_two_level(sb: Sbibd) -> list:
    """Two-level Cretan matrices from a symmetric design: a = 1 on the
    incidence ones, b on the zeros, one output per admissible root.

    Roots with |b| > 1 are dropped; the empty list means the design
    yields nothing (typical for complement designs).  The design is not
    checked here: the caller passes the development of a difference set
    that passed its census, or the complement of one (see
    `verify.ByDesign`).
    """
    v, k, lam = sb.params
    out = []
    for b in characteristic_roots(v, k, lam):
        if not b.abs_le_one():
            continue
        omega = k + (v - k) * b * b
        params = {"v": v, "k": k, "lam": lam, "b": format_scalar(b),
                  "design": sb.source}
        # grid = incidence: 0 -> b, 1 -> 1; b < 1, as the quadratic is v at
        # b = 1 and the kept roots lie in [-1, 1]
        out.append(LevelMatrix(v, (b, Scalar(1)),
                               sb.incidence.astype(np.int16), omega,
                               "sbibd-two-level", params))
    return out


def regular_hadamard_border(M: SignMatrix) -> LevelMatrix:
    """Border a regular Hadamard matrix of order 4m^2 (row sums 2m) with a
    unit corner and zero borders, scaling the core by 1/2m.

    The result has order 4m^2+1, omega = 1 exactly, and four levels
    {-1/2m, 0, 1/2m, 1}.  Core rows have maximum modulus 1/2m, so the
    matrix is Cretan only in the relaxed sense.
    """
    if M.kind != "hadamard" or not M.excess:
        raise ValueError("core must be a regular Hadamard matrix")
    m2 = M.excess // 2
    if M.order != 4 * m2 * m2:
        raise ValueError("row sums disagree with the order")
    n = M.order + 1
    lo = Scalar(-1, 0, 0, 2 * m2)
    zero = Scalar(0)
    hi = Scalar(1, 0, 0, 2 * m2)
    one = Scalar(1)
    levels = (lo, zero, hi, one)
    grid = np.empty((n, n), dtype=np.int16)
    grid[0, :] = 1
    grid[:, 0] = 1
    grid[0, 0] = 3
    grid[1:, 1:] = np.where(M.entries > 0, 2, 0)
    return LevelMatrix(n, levels, grid, one, "regular-hadamard-border",
                       {"m": m2, "core": M.source},
                       notes=("relaxed",))


def bordered_solver(sb: Sbibd) -> list:
    """Bordered Cretan matrices of order v+1 over a symmetric design.

    The layout is corner x, borders s, core levels 1 (incidence ones) and
    b (zeros), subject to x + k + (v-k) b = 0 and
    s^2 = -(lam + 2(k-lam) b + (v-2k+lam) b^2).  Matching the corner row
    norm x^2 + v s^2 to a core row norm s^2 + k + (v-k) b^2 leaves
    (k(k-1) - lam(v-1)) (1-b)^2 = 0, which holds for every b because a
    symmetric design has lam(v-1) = k(k-1).  So the solutions form a
    one-parameter family; we return the canonical members (corner
    saturated at x = +-1, corner zero, border maximized, interval
    endpoints) that satisfy every modulus constraint.  Each b is rational,
    so x and s^2 are too and s lies in one quadratic field: the output is
    exact, sorted by b.  Nothing is checked here: the outputs carry no
    proof, so the lift certifies each one, and a broken design gives
    matrices that fail it.
    """
    v, k, lam = sb.params
    c2 = v - 2 * k + lam
    cands = {Fraction(1 - k, v - k), Fraction(-1 - k, v - k),
             Fraction(-k, v - k), Fraction(-1), Fraction(1)}
    if c2 != 0:
        cands.add(Fraction(lam - k, c2))
    out = []
    # codes: 0 corner, 1 border, 2 incidence ones, 3 zeros
    codes = np.ones((v + 1, v + 1), dtype=np.intp)
    codes[0, 0] = 0
    codes[1:, 1:] = np.where(sb.incidence, 2, 3)
    for b in sorted(cands):
        x = -(k + (v - k) * b)
        s2 = -(lam + 2 * (k - lam) * b + c2 * b * b)
        if not (0 <= s2 <= 1 and abs(x) <= 1 and abs(b) <= 1):
            continue
        xv, sv, bv = (Scalar.from_fraction(x), Scalar.sqrt_fraction(s2),
                      Scalar.from_fraction(b))
        omega = Scalar.from_fraction(x * x + v * s2)
        params = {"v": v, "k": k, "lam": lam, "b": format_scalar(bv),
                  "x": format_scalar(xv), "s": format_scalar(sv),
                  "design": sb.source}
        out.append(from_codes((xv, sv, Scalar(1), bv), codes, omega,
                              "bordered", params))
    return out


def kronecker_cretan(A: LevelMatrix, B: LevelMatrix) -> LevelMatrix:
    """Kronecker product: order and radius multiply, levels are the
    pairwise products (recounted, since products can coincide).  The
    product is kept factored; its grid is built on first read."""
    try:
        prods = [a * b for a in A.levels for b in B.levels]
        omega = A.omega * B.omega
    except (IncompatibleRadicands, TypeError):
        # two fields, or a float-mode factor: FloatLevel takes no arithmetic
        prods = [FloatLevel(a.to_float() * b.to_float())
                 for a in A.levels for b in B.levels]
        omega = FloatLevel(A.omega.to_float() * B.omega.to_float())
    levels, table = _merged(prods)
    return LevelMatrix(A.order * B.order, levels, None, omega, "kronecker",
                       {"left": (A.method, A.order),
                        "right": (B.method, B.order)},
                       tuple(sorted(set(A.notes) | set(B.notes))),
                       factors=(A, B, table))


def _rescaled(levels: tuple, lo, hi) -> tuple:
    """levels times sqrt(lo/hi): exact for a rational lo/hi whose root lies
    in the levels' field, else l.to_float() * sqrt(ratio), ratio the float
    of lo/hi if that is exact in one field, else of lo and hi apart."""
    ratio = lo.to_float() / hi.to_float()
    try:
        exact = lo / hi
        ratio = exact.to_float()
        if exact.is_rational:
            scale = Scalar.sqrt_fraction(exact.as_fraction())
            return tuple(l * scale for l in levels)
    except (IncompatibleRadicands, TypeError):
        pass    # two fields, or a FloatLevel
    scale = math.sqrt(ratio)
    return tuple(FloatLevel(l.to_float() * scale) for l in levels)


def direct_sum(A: LevelMatrix, B: LevelMatrix) -> LevelMatrix:
    """Block diagonal sum sharing the smaller radius.

    The larger-radius block is rescaled by sqrt(omega_min/omega_max) so
    both blocks have the same radius; exact when the ratio has a rational
    square root claimable in the levels' field, float otherwise.  The
    scaled block's levels drop below 1, which the notes record.
    """
    try:
        a_is_lo = (A.omega - B.omega).sign() <= 0
    except (IncompatibleRadicands, TypeError):
        a_is_lo = A.omega.to_float() <= B.omega.to_float()
    lo, hi = (A, B) if a_is_lo else (B, A)
    notes = set(lo.notes) | set(hi.notes)
    if lo.omega == hi.omega:
        scaled_hi_levels = hi.levels
    else:
        scaled_hi_levels = _rescaled(hi.levels, lo.omega, hi.omega)
        notes.add("not one 1 per row and column")
        notes.add("rescaled-block")
    # code 0 is the zero off the blocks, then lo's levels, then hi's
    n = lo.order + hi.order
    codes = np.zeros((n, n), dtype=np.intp)
    codes[: lo.order, : lo.order] = lo.grid + 1
    codes[lo.order:, lo.order:] = hi.grid + 1 + lo.tau
    return from_codes((Scalar(0),) + lo.levels + tuple(scaled_hi_levels),
                      codes, lo.omega, "direct-sum",
                      {"left": (lo.method, lo.order),
                       "right": (hi.method, hi.order)}, sorted(notes))


def sign_to_level(M: SignMatrix) -> LevelMatrix:
    """View a sign matrix as a level matrix with omega = weight."""
    codes = M.entries.astype(np.int16) + 1        # -1, 0, 1 -> 0, 1, 2
    present = np.bincount(codes.ravel(), minlength=3) > 0
    # renumber the values present as 0, 1, ... in ascending order
    lut = (np.cumsum(present) - 1).astype(np.int16)
    levels = tuple(Scalar(int(v) - 1) for v in np.flatnonzero(present))
    return LevelMatrix(M.order, levels, lut[codes], Scalar(M.weight),
                       "sign-matrix", {"kind": M.kind, "core": M.source})


# -- complex level matrices ---------------------------------------------------

@dataclass
class ComplexLevelMatrix:
    order: int
    entries: np.ndarray          # complex128
    omega: float
    method: str
    params: dict = field(default_factory=dict)

    def __repr__(self):
        return "ComplexLevelMatrix(CM(%d;..;%s), method=%s)" % (
            self.order, self.omega, self.method)


def conference_complex(W: SignMatrix) -> ComplexLevelMatrix:
    """Put i on the zero diagonal of a symmetric conference matrix.

    Rows then have norm 1 + (n-1) = n and distinct rows stay orthogonal
    because i W_ba - i W_ab vanishes exactly when W is symmetric.
    `cretan construct` checks the output by `verify_complex`, exact here:
    every partial sum of M M* is a small Gaussian integer.
    """
    if W.kind != "conference":
        raise ValueError("input must be a conference matrix")
    if not W.is_symmetric:
        raise ValueError("conference core must be symmetric")
    n = W.order
    entries = W.entries.astype(np.complex128) + 1j * np.eye(n)
    return ComplexLevelMatrix(n, entries, float(n), "conference-complex",
                              {"core": W.source})


# -- group matrices -----------------------------------------------------------

STAR = -1  # placeholder entry: zero value, but not the group's zero


@dataclass
class GroupMatrix:
    order: int
    group_order: int
    entries: np.ndarray          # int16; values in 0..g-1, or STAR
    kind: str                    # "GH" or "GW"
    weight: int = 0              # non-star entries per column, GW only

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=np.int16)


@dataclass
class GroupCensusReport:
    passed: bool
    kind: str
    uniform_count: int
    message: str


# the largest group order whose census runs as BLAS products; their
# work grows as g^2 n^3 against n^3/2 for the row bincounts, and on a
# 2-vCPU Xeon with one BLAS thread the two meet near g = 13
BLAS_MAX_GROUP = 11


def group_orthogonality_check(G: GroupMatrix) -> GroupCensusReport:
    """Difference census over distinct row pairs.

    N_d(i, j) counts the columns where rows i and j both hold a group
    element and E[i] - E[j] = d (mod g).  GH: every N_d(i, j) with i != j
    must equal n/g.  GW: every column must carry exactly `weight` non-star
    entries, and N_d(i, j) must not depend on d.  A failure reports the
    first bad pair in row-major order with its counts [N_0, ..., N_(g-1)];
    a GW pass reports N_0 of the last pair, (n-2, n-1).

    N_d(j, i) = N_(-d)(i, j), so a pair passes or fails in both orders and
    only pairs i < j are judged.  Two kernels count them, chosen by g:

    - g <= BLAS_MAX_GROUP: with X_a the 0/1 matrix of the cells holding a
      (stars in none), N_d = sum_a X_(a+d) X_a^T, g products of n x gn
      by gn x n, g^2 n^3 multiply-adds.  The terms are 0 or 1 and every
      partial sum is an integer of at most n, so each count is exact in
      `scalar.exact_dtype(n)`, whatever order BLAS adds in.
    - larger g: each row is counted against the rows below it with one
      bincount, stopping at the first bad row: n^3/2 cells, whatever g.
    """
    E = G.entries
    n, g = G.order, G.group_order
    if G.kind == "GW":
        per_col = (E != STAR).sum(axis=0)
        if not (per_col == G.weight).all():
            return GroupCensusReport(False, G.kind, 0,
                                     "column star counts are uneven")
    star = E == STAR
    E = E % g
    want = n // g if G.kind == "GH" else None
    kernel = _first_bad_pair_blas if g <= BLAS_MAX_GROUP \
        else _first_bad_pair_rows
    bad = kernel(E, star, g, want)
    if bad is not None:
        return GroupCensusReport(False, G.kind, 0,
                                 "rows %d,%d: counts %s" % bad)
    uniform = want or 0
    if want is None and n > 1:
        uniform = int(((E[-2] == E[-1]) & ~star[-2] & ~star[-1]).sum())
    return GroupCensusReport(True, G.kind, uniform, "ok")


def _first_bad_pair_blas(E, star, g, want):
    """(i, j, counts) of the first bad pair i < j, or None; want is the
    GH count n/g, or None for GW (every N_d equal to N_0)."""
    n = len(E)
    codes = np.where(star, g, E)
    # Y2[i, a n + c] = [codes[i, c] == a mod g], two periods wide, so
    # that columns d n .. (d + g) n hold the X_(a+d) side of N_d
    Y = (codes[:, None, :] == np.arange(g)[:, None]).reshape(n, g * n)
    dtype = exact_dtype(n)
    Y2 = np.tile(Y.astype(dtype), 2)
    N = np.empty((g, n, n), dtype=dtype)
    for d in range(g):
        np.matmul(Y2[:, d * n:(d + g) * n], Y2[:, :g * n].T, out=N[d])
    bad = np.triu((N != (N[0] if want is None else want)).any(axis=0), 1)
    if not bad.any():
        return None
    i, j = divmod(int(np.argmax(bad)), n)
    return i, j, N[:, i, j].astype(np.int64).tolist()


def _first_bad_pair_rows(E, star, g, want):
    """As _first_bad_pair_blas, by one bincount per row."""
    n = len(E)
    for i in range(n - 1):
        diffs = (E[i] - E[i + 1:]) % g
        diffs[star[i] | star[i + 1:]] = g    # spare bin, dropped below
        below = n - 1 - i
        codes = np.arange(below)[:, None] * (g + 1) + diffs
        counts = np.bincount(codes.ravel(), minlength=below * (g + 1))
        counts = counts.reshape(below, g + 1)[:, :g]
        bad = (counts != (counts[:, :1] if want is None else want)) \
            .any(axis=1)
        if bad.any():
            j = int(np.argmax(bad))
            return i, i + 1 + j, counts[j].tolist()
    return None


# gh_from_field, and so `cretan construct --method gh`, builds no larger GH
GH_MAX_ORDER = 256


def gh_from_field(p: int, k: int) -> GroupMatrix:
    """Generalized Hadamard matrix GH(p^k, Z_p) with entries
    Tr(x_i x_j) over GF(p^k), rows and columns in code order; GH as
    rows x != y differ by Tr((x - y) z), each value of GF(p) p^(k-1) times.
    Every product code comes from the log tables in one array step."""
    n = p ** k
    if n > GH_MAX_ORDER:
        raise ValueError("order cap exceeded: %d^%d > %d"
                         % (p, k, GH_MAX_ORDER))
    f = make_field(p, k)
    prod = f.codes[(f.logs[:, None] + f.logs) % (n - 1)]
    prod[0] = prod[:, 0] = 0
    E = np.array([[trace_to_prime(f, c) for c in row]
                  for row in prod.tolist()], dtype=np.int16)
    return GroupMatrix(n, p, E, "GH")


def gh_to_complex(G: GroupMatrix) -> ComplexLevelMatrix:
    """Map exponents to p-th roots of unity (stars to 0)."""
    g = G.group_order
    E = G.entries.astype(np.float64)
    M = np.exp(2j * np.pi * E / g)
    M[G.entries == STAR] = 0
    omega = float(G.order if G.kind == "GH" else G.weight)
    C = ComplexLevelMatrix(G.order, M, omega, "group-complex",
                           {"kind": G.kind, "group": g})
    return C


def gh_z3_order6() -> GroupMatrix:
    """A published GH(6, Z3) in additive form."""
    rows = [[0, 0, 0, 0, 0, 0],
            [0, 0, 1, 2, 2, 1],
            [0, 1, 0, 1, 2, 2],
            [0, 2, 1, 0, 1, 2],
            [0, 2, 2, 1, 0, 1],
            [0, 1, 2, 2, 1, 0]]
    return GroupMatrix(6, 3, np.array(rows, dtype=np.int16), "GH")


def gw_z3_order5() -> GroupMatrix:
    """A published additive GW(5, Z3) with a star diagonal (weight 4)."""
    s = STAR
    rows = [[s, 0, 0, 0, 0],
            [0, s, 1, 2, 0],
            [0, 1, s, 0, 2],
            [0, 2, 0, s, 1],
            [0, 0, 2, 1, s]]
    return GroupMatrix(5, 3, np.array(rows, dtype=np.int16), "GW", weight=4)
