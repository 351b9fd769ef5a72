"""Certification of Cretan matrices and the determinant bound suite.

verify_cretan recomputes everything from the entries, or from a proof
of their structure that the caller passes (see below): the Gram matrix
(exactly, by integer coordinates, whenever the levels live in one
quadratic field), the level census, modulus bounds, the strict unit-entry
condition, and the determinant identity |det| = omega^(n/2).  It trusts
none of the metadata on its input and never raises on a failing matrix;
the certificate carries the verdicts.  The verdicts rest on the Gram
check alone, so the determinant identity and the bound suite are computed
on the first read of `Certificate.det` and `Certificate.bounds`: the
catalog, which ranks by the verdicts, never pays for them.  An exact
matrix that fails the exact Gram check fails both verdicts; the float
tolerance stands in only where no exact check can run (float levels, or
levels from two quadratic fields).

The exact Gram check writes every level of Q(sqrt d) over one common
denominator R as (P[u] + Q[u] sqrt d) / R with integers P[u] and Q[u].
With Pg = P[grid] and Qg = Q[grid],

    R^2 S S^T = (Pg Pg^T + d Qg Qg^T) + sqrt(d) (Pg Qg^T + Qg Pg^T),

so the Gram matrix is a few integer matrix products.  With bp and bq
the largest |P[u]| and |Q[u]|, every partial sum of Pg Pg^T, Qg Qg^T
and Pg Qg^T, and every entry of the two combinations, is an integer of
modulus at most B = n (bp^2 + d bq^2): Pg Qg^T + Qg Pg^T is bounded by
2 n bp bq, and 2 bp bq <= bp^2 + bq^2, with d >= 2 whenever some
Q[u] != 0.  The products and their combination (in place) all run in
`scalar.exact_dtype(B)`: float32 BLAS, float64 BLAS or Python integers,
whichever keeps every one of those integers exact.  The diagonal is
tested by subtracting its first entry from each entry; an IEEE
difference of two floats is 0 only when the two are equal, so the test
cannot report a false zero.  Nothing is ever rounded.

Only S S^T is checked: for a real square S, S S^T = omega I with omega != 0
makes S invertible with S^-1 = S^T / omega, so S^T S = omega S^-1 S =
omega I; and omega = 0 gives every row norm zero, so S = 0 = S^T S.

Where no exact check can run, the float check forms S S^T only, too, and
reports the largest entry of E = S S^T - w I, w the mean of its
diagonal.  For invertible S, S^T S - w I = S^-1 E S; to first order this
is Q^T E Q for the orthogonal Q = S / sqrt(w), whose largest entry is at
most n times the largest entry of E.

A caller that built S from checked parts may pass a proof (`gram=`) that
stands in for the O(n^3) lift, and for the O(n^2) level census and unit
scan, with checks of the structure.  The identity then follows from a
smaller one that was checked before:

- ByFactors, for S = A (x) B.  (A (x) B)(C (x) D) = AC (x) BD gives
  S S^T = A A^T (x) B B^T = omega_A I (x) omega_B I = omega_A omega_B I.
  The proof holds when S is the factored product that
  `constructions.kronecker_cretan` made of the two certified matrices
  (an identity check on S.factors: its grid is by definition the
  Kronecker product of theirs), and both factor certificates have
  gram_exact and relaxed.  It reads no grid and takes O(1) time after
  the O(tau_A tau_B) level products that built S.
- ByDesign, for S = bJ + (1-b)X with X a 0/1 matrix and X X^T =
  (k-lam) I + lam J.  X is the development of a difference set D,
  whose census (`designs.make_difference_set`) is the one check of that
  identity; or X = I with k = 1, lam = 0; or X = J - Y for such a Y.
  For X_gh = [h - g in D], (X X^T)_gh counts the d in D with
  d + g - h in D: k at g = h, and elsewhere the number of ways g - h is
  a difference of two elements of D, which the census found to be lam.
  The row sums of X are the diagonal of X X^T, so XJ = JX^T = kJ, and
  with J J^T = vJ
      S S^T = (b^2 v + 2kb(1-b) + lam(1-b)^2) J + (k-lam)(1-b)^2 I.
  The proof checks, in O(n^2), that the grid is X over the levels
  (b, 1) and that the coefficient of J, which is (v-2k+lam) b^2 +
  2(k-lam) b + lam (the polynomial `characteristic_roots` solves), is
  exactly zero; then omega = (k-lam)(1-b)^2, which is also the row norm
  k + (v-k) b^2.
  The complement needs no check of its own: for a design Y (v, k, lam),
  YJ = JY^T = kJ as above, so (J-Y)(J-Y)^T = vJ - 2kJ + Y Y^T =
  (k-lam) I + (v-2k+lam) J, the identity of the parameters
  (v, v-k, v-2k+lam) of J - Y.

The census rule: a proof that holds also gives tau, the number of levels
the grid uses, and whether every row and column holds a unit (a level of
modulus 1, which for a real exact level means +-1).

- ByFactors: each factor holds every one of its levels (its certified tau
  equals its level count, which the proof requires), so every level pair
  (u, w) occurs in the product grid and tau is the level count of S.
  With every modulus at most 1 (both factors are relaxed), |ab| = 1
  exactly when |a| = |b| = 1, so row (i, k) of A (x) B holds a unit
  exactly when row i of A and row k of B do, and likewise for columns:
  S has a unit in every row and column exactly when both factors are
  strict.
- ByDesign: every row and column sum of X is k (a developed row or
  column holds one 1 per element of D; I and J - Y inherit them), so X
  holds a 1 in every row and column when k >= 1 and a 0 somewhere when
  k < v.  The level 1 is the unit, so tau = 1 + (0 < k < v), and every
  row and column holds a unit when k >= 1.  With k = 0 the coefficient
  of J is v b^2, so a proof that holds has b = 0 and no unit.

A proof returns (omega, tau, units) only when every check holds;
otherwise the lift and the census run, so a verdict is always the one
the lift would give.

The exact determinant of a rational matrix (order <= 45) is det(P[grid])
/ R^n, with the integer determinant found by fraction-free (Bareiss)
elimination on Python ints, O(n^3) integer operations.  No faster kernel
is kept: no verdict rests on the determinant, the catalog never reads
it, and it is computed only when a reader asks for `Certificate.det`, as
`cretan verify` does once per file.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from cretan.scalar import (
    FloatLevel,
    IncompatibleRadicands,
    REFINE_TOL,
    Scalar,
    VERIFY_TOL,
    exact_dtype,
    format_scalar,
)


def _lift(levels) -> tuple:
    """Integer coordinates of exact levels over one field Q(sqrt d).

    Returns (P, Q, d, R) with level u = (P[u] + Q[u] sqrt d) / R, where
    R is the lcm of the level denominators; d is 0 when every level is
    rational.  Raises IncompatibleRadicands when levels span two fields.
    """
    radicands = sorted({l.d for l in levels if l.q})
    if len(radicands) > 1:
        raise IncompatibleRadicands(
            "levels span sqrt(%d) and sqrt(%d)" % tuple(radicands[:2]))
    d = radicands[0] if radicands else 0
    R = math.lcm(*(l.r for l in levels))
    P = [l.p * (R // l.r) for l in levels]
    Q = [l.q * (R // l.r) for l in levels]
    return P, Q, d, R


_EXACT_DET_MAX_ORDER = 45


def bareiss_det(rows) -> int:
    """Exact determinant of an integer matrix given as rows of Python ints.

    Fraction-free (Bareiss) elimination: after step k every entry of the
    trailing block is a (k+1) x (k+1) minor of the input, so each division
    by the previous pivot is exact.  A zero pivot swaps in a lower row
    with a nonzero entry in its column; when there is none, det = 0.
    """
    M = [list(map(int, r)) for r in rows]
    n = len(M)
    sign = prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if M[r][k]), None)
            if swap is None:
                return 0
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        piv, top = M[k][k], M[k][k + 1:]
        for row in M[k + 1:]:
            c = row[k]
            row[k + 1:] = [(x * piv - c * t) // prev
                           for x, t in zip(row[k + 1:], top)]
        prev = piv
    return sign * M[-1][-1]


def exact_abs_det(S) -> Fraction | None:
    """|det| as an exact Fraction for rational matrices up to order 45."""
    if S.mode != "exact" or S.order > _EXACT_DET_MAX_ORDER:
        return None
    if not all(l.is_rational for l in S.levels):
        return None
    P, _, _, R = _lift(S.levels)
    rows = np.array(P, dtype=object)[S.grid].tolist()
    return abs(Fraction(bareiss_det(rows), R ** S.order))


@dataclass
class DetIdentity:
    residual: float          # relative gap between log|det| and (n/2)log w
    exact_zero: bool         # both sides computed exactly and equal
    log_abs_det: float
    expected_log: float


def check_det_identity(S, omega: Scalar | None = None) -> DetIdentity:
    """|det| = omega^(n/2), checked exactly when possible.  log |det S|
    comes from exact elimination when the matrix is rational and small
    (math.log takes ints of any size), from float partial-pivot
    elimination otherwise."""
    n = S.order
    w = omega if omega is not None else S.omega
    wf = w.to_float()
    expected = 0.5 * n * math.log(wf) if wf > 0 else float("-inf")
    exact = exact_abs_det(S)
    if exact is None:
        ld = float(np.linalg.slogdet(S.to_float_array())[1])
    elif exact == 0:
        ld = float("-inf")
    else:
        ld = math.log(exact.numerator) - math.log(exact.denominator)
    # a singular side is -inf: the gap is 0 when both sides are, else inf
    resid = (0.0 if ld == expected else math.inf if math.isinf(ld)
             else abs(ld - expected) / max(1.0, abs(ld)))
    if exact is not None and w.is_rational:
        identical = exact * exact == w.as_fraction() ** n
        return DetIdentity(0.0 if identical else resid, identical,
                           ld, expected)
    return DetIdentity(resid, False, ld, expected)


# -- determinant bounds -------------------------------------------------------

@dataclass
class BoundReport:
    order: int
    hadamard_log: float
    barba_log: float | None          # odd orders
    wojtas_log: float | None         # orders 2 mod 4
    brent_osborn_log: float | None   # odd orders
    hadamard_exact: int | None
    barba_exact: int | None
    wojtas_exact: int | None
    brent_osborn_exact: int | None
    hadamard_value: float | None
    barba_value: float | None
    wojtas_value: float | None
    brent_osborn_value: float | None


def _linear(log: float | None) -> float | None:
    if log is None or log > 700:
        return None
    return math.exp(log)


# the natural log of 10^4300: str() of an int with more digits raises
# (Python's default int_max_str_digits), and building it costs time for
# nothing, so a bound that large is reported by its log alone
_MAX_EXACT_LOG = 4300 * math.log(10)


def det_bounds(n: int) -> BoundReport:
    """Classical upper bounds on |det| of order-n matrices with entries
    of modulus <= 1, reported in log scale plus exact integers where the
    bound happens to be an integer of at most 4300 digits."""
    if n < 1:
        raise ValueError("order must be positive")
    hadamard_log = 0.5 * n * math.log(n) if n > 1 else 0.0
    hadamard_exact = None
    if hadamard_log < _MAX_EXACT_LOG:
        root = math.isqrt(n)
        if n % 2 == 0:
            hadamard_exact = n ** (n // 2)
        elif root * root == n:
            hadamard_exact = root ** n
    barba_log = barba_exact = None
    brent_log = brent_exact = None
    if n % 2 == 1:
        if n == 1:
            barba_log = 0.0
            barba_exact = 1
        else:
            barba_log = 0.5 * math.log(2 * n - 1) \
                + 0.5 * (n - 1) * math.log(n - 1)
            root = math.isqrt(2 * n - 1)
            if root * root == 2 * n - 1 and barba_log < _MAX_EXACT_LOG:
                barba_exact = root * (n - 1) ** ((n - 1) // 2)
        brent_log = 0.5 * (n - 1) * math.log(n + 1)
        if brent_log < _MAX_EXACT_LOG:
            brent_exact = (n + 1) ** ((n - 1) // 2)
    wojtas_log = wojtas_exact = None
    if n % 4 == 2:
        wojtas_log = math.log(2 * (n - 1))
        if n > 2:
            wojtas_log += 0.5 * (n - 2) * math.log(n - 2)
        if wojtas_log < _MAX_EXACT_LOG:
            wojtas_exact = 2 * (n - 1) * (n - 2) ** ((n - 2) // 2)
    return BoundReport(
        n, hadamard_log, barba_log, wojtas_log, brent_log,
        hadamard_exact, barba_exact, wojtas_exact, brent_exact,
        _linear(hadamard_log), _linear(barba_log), _linear(wojtas_log),
        _linear(brent_log))


# -- the certificate ----------------------------------------------------------

@dataclass
class Certificate:
    order: int
    omega: Scalar | FloatLevel    # recomputed radius
    tau: int
    mode: str                     # exact | float (how Gram was checked)
    gram_exact: bool              # off-diagonals exactly zero
    # the check that gave the Gram verdict: lift-float32, lift-float64,
    # lift-object, by-factors, by-design, or "float: <why no exact check
    # ran>"
    gram_path: str
    max_offdiag: float
    moduli_ok: bool
    omega_claim_ok: bool          # input metadata agreed with recomputation
    strict: bool
    relaxed: bool
    method: str
    requested_mode: str
    matrix: object = field(repr=False, compare=False)   # the checked S

    # computed on first read; no verdict depends on them.  The calls go
    # through the module globals, so a patched function is the one used.
    @functools.cached_property
    def det(self) -> DetIdentity:
        return check_det_identity(self.matrix, self.omega)

    @functools.cached_property
    def bounds(self) -> BoundReport:
        return det_bounds(self.order)

    @property
    def passed(self) -> bool:
        return self.strict if self.requested_mode == "strict" else self.relaxed

    def summary_rows(self) -> list:
        rows = [
            ("order", str(self.order)),
            ("levels", str(self.tau)),
            ("radius", "%s (%.6g)" % (format_scalar(self.omega),
                                      self.omega.to_float())),
            ("gram", "exact zero" if self.gram_exact
             else "max off-diagonal %.3g" % self.max_offdiag),
            ("moduli <= 1", "yes" if self.moduli_ok else "NO"),
            ("strict", "pass" if self.strict else "fail"),
            ("relaxed", "pass" if self.relaxed else "fail"),
            ("det identity", "exact" if self.det.exact_zero
             else "residual %.3g" % self.det.residual),
            ("log |det|", "%.6f" % self.det.log_abs_det),
            ("hadamard bound log", "%.6f" % self.bounds.hadamard_log),
            ("method", self.method or "-"),
        ]
        return rows


def _exact_gram_check(S) -> tuple:
    """(omega, path): omega when S S^T = omega I holds exactly, else None,
    and path names the integer kernel that ran: lift-float32,
    lift-float64 or lift-object, after the dtype that
    `scalar.exact_dtype` picks for B = n (bp^2 + d bq^2), bp and bq the
    largest |P| and |Q| (see the module docstring).

    S^T S = omega I follows (see the module docstring), so it is not
    computed.  Raises IncompatibleRadicands when the levels span
    different fields.
    """
    P, Q, d, R = _lift(S.levels)
    n = S.order
    bp, bq = max(map(abs, P)), max(map(abs, Q))
    dtype = exact_dtype(n * (bp * bp + d * bq * bq))
    path = "lift-" + dtype
    Pg = np.array(P, dtype=dtype)[S.grid]
    rat = Pg @ Pg.T
    parts = [rat]
    if d:
        Qg = np.array(Q, dtype=dtype)[S.grid]
        rat += d * (Qg @ Qg.T)
        irr = Pg @ Qg.T
        irr += irr.T
        parts.append(irr)
    diag = [part[0, 0] for part in parts]
    for part, first in zip(parts, diag):
        # all zero iff the diagonal is constant and the rest is zero
        # (a float difference is 0 only when its operands agree)
        part.flat[::n + 1] -= first
        if part.any():
            return None, path
    return Scalar(int(diag[0]), int(diag[1]) if d else 0, d, R * R), path


@dataclass
class ByFactors:
    """Proof that S = A (x) B, from the certificates that verify_cretan
    gave the factors A = left.matrix and B = right.matrix."""
    left: Certificate
    right: Certificate
    path = "by-factors"

    def prove(self, S) -> tuple | None:
        """(omega_A omega_B, tau, units) when S is the product that
        `constructions.kronecker_cretan` made of the two certified
        matrices, both certificates are gram_exact and relaxed, and each
        factor holds every one of its levels; None otherwise.  Reads no
        grid; tau and units follow the census rule.  verify_cretan asks
        only for an exact S, whose levels, and so the factors' omegas,
        lie in one field."""
        factors = S.factors
        left, right = self.left, self.right
        if factors is None or factors[0] is not left.matrix \
                or factors[1] is not right.matrix:
            return None
        if not all(c.gram_exact and c.relaxed and c.tau == len(c.matrix.levels)
                   for c in (left, right)):
            return None
        return (left.omega * right.omega, len(S.levels),
                left.strict and right.strict)


@dataclass
class ByDesign:
    """Proof that S = bJ + (1-b)X for a 0/1 matrix X with X X^T =
    (k-lam) I + lam J and every row and column sum k.  The premise is
    checked once, before the proof is made: X develops from a difference
    set that passed its census (`designs.make_difference_set`), or X = I
    with k = 1 and lam = 0, or X = J - Y for such a Y, whose identity
    gives that of J - Y (see the module docstring)."""
    incidence: np.ndarray
    k: int
    lam: int
    path = "by-design"

    def prove(self, S) -> tuple | None:
        """(omega, tau, units) when the grid of S is X over the levels
        (b, 1) and the coefficient of J in S S^T is exactly zero, with
        omega the row norm k + (v-k) b^2; None otherwise.  tau and units
        follow the census rule."""
        if len(S.levels) != 2 or S.levels[1] != 1 \
                or not np.array_equal(S.grid, self.incidence):
            return None
        b = S.levels[0]
        b2 = b * b
        v, k, lam = S.order, self.k, self.lam
        if not ((v - 2 * k + lam) * b2 + 2 * (k - lam) * b + lam).is_zero():
            return None
        return (v - k) * b2 + k, 1 + (0 < k < v), k >= 1


def verify_cretan(S, mode: str = "strict", tolerance: float = VERIFY_TOL,
                  gram=None) -> Certificate:
    """Certify a level matrix against the Cretan definition.

    mode picks which verdict `passed` reports; the certificate always
    carries both.  gram is an optional proof (ByFactors or ByDesign) of
    the Gram identity, the level count and the unit rows, tried before
    the lift on an exact matrix; when any of its checks fails the lift
    and the grid census run.  Only a non-square input raises; a factored
    product is square by construction, and its grid is read only when
    no proof holds.
    """
    if mode not in ("strict", "relaxed"):
        raise ValueError("mode must be strict or relaxed")
    n = S.order
    if S.factors is None and S.grid.shape != (n, n):
        raise ValueError("matrix is not square")

    moduli_ok = all(l.abs_le_one() for l in S.levels)

    max_offdiag = 0.0
    omega = proved = None
    checked_exactly = False
    if S.mode != "exact":
        path = "float: float %s" % (
            "levels" if any(l.is_float for l in S.levels) else "omega")
    else:
        if gram is not None:
            proved, path = gram.prove(S), gram.path
        if proved is not None:
            omega, tau, units = proved
        else:
            try:
                omega, path = _exact_gram_check(S)
                checked_exactly = True
            except IncompatibleRadicands as exc:
                path = "float: %s" % exc
    gram_exact = gram_ok = omega is not None
    if omega is None:
        A = S.to_float_array()
        G = A @ A.T
        G.flat[::n + 1] -= G.diagonal().mean()
        max_offdiag = float(np.abs(G).max())
        omega = FloatLevel(float((A * A).sum() / n))
        # a failed exact check is final: the tolerance cannot overrule it
        gram_ok = not checked_exactly and max_offdiag <= tolerance

    # canonical forms are unique, so == is exact equality in any field
    omega_claim_ok = S.omega == omega if gram_exact else \
        abs(S.omega.to_float() - omega.to_float()) <= tolerance

    relaxed = bool(moduli_ok and gram_ok and omega_claim_ok)
    if proved is None:
        # census straight from the grid; unused level slots would be a bug
        tau = int(np.count_nonzero(
            np.bincount(S.grid.ravel(), minlength=len(S.levels))))
        strict = relaxed and _units_everywhere(S)
    else:
        strict = relaxed and units

    return Certificate(n, omega, tau, "exact" if gram_exact else "float",
                       gram_exact, path, max_offdiag, moduli_ok,
                       omega_claim_ok, strict, relaxed,
                       getattr(S, "method", ""), mode, S)


def _units_everywhere(S) -> bool:
    """Whether every row and every column of S holds a unit level."""
    unit = np.array([_is_unit(l) for l in S.levels], dtype=bool)
    cells = unit.take(S.grid)
    return bool(cells.any(axis=1).all() and cells.any(axis=0).all())


def _is_unit(l: Scalar) -> bool:
    if l.is_float:
        return abs(abs(l.f) - 1.0) <= REFINE_TOL
    return not l.q and abs(l.p) == l.r


def verify_complex(M, tolerance: float = VERIFY_TOL) -> bool:
    """Float-only complex certification: M M* = omega I and moduli <= 1."""
    G = M.entries @ M.entries.conj().T
    G.flat[::M.order + 1] -= M.omega
    return bool(np.abs(G).max() <= tolerance
                and np.abs(M.entries).max() <= 1 + REFINE_TOL)
