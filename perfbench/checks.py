"""Correctness checks computed apart from the cretan package.

Each check reads only the raw data of a result (level coefficients, the
index grid, group exponents) and recomputes what it needs with numpy,
fractions or sympy.  It returns a list of error strings; empty means the
output is correct.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

FLOAT_TOL = 1e-9


def exact_value(level) -> tuple:
    """(a, b, d) with value a + b*sqrt(d) (d = 0 when b = 0), or
    ("f", x) for a float level.  Reads the (p + q*sqrt(d))/r
    coefficients of a cretan Scalar."""
    if level.f is not None:
        return ("f", float(level.f))
    b = Fraction(level.q, level.r)
    return (Fraction(level.p, level.r), b, level.d if b else 0)


def float_value(level) -> float:
    v = exact_value(level)
    if v[0] == "f":
        return v[1]
    a, b, d = v
    return float(a) + float(b) * math.sqrt(d)


def float_matrix(S) -> np.ndarray:
    return np.array([float_value(l) for l in S.levels])[S.grid]


def exact_product(x, y):
    """Exact product of two exact_value triples, or None when either is a
    float or the radicands differ."""
    if x[0] == "f" or y[0] == "f":
        return None
    (a1, b1, d1), (a2, b2, d2) = x, y
    if d1 and d2 and d1 != d2:
        return None
    d = d1 or d2
    b = a1 * b2 + a2 * b1
    return (a1 * a2 + b1 * b2 * d, b, d if b else 0)


def check_cretan_float(A: np.ndarray, omega: float, label: str) -> list:
    """S S^T = S^T S = omega I and every |entry| <= 1, in float."""
    errors = []
    n = A.shape[0]
    if np.abs(A).max() > 1 + FLOAT_TOL:
        errors.append("%s: an entry has modulus above 1" % label)
    scale = max(1.0, abs(omega))
    for tag, G in (("S S^T", A @ A.T), ("S^T S", A.T @ A)):
        resid = float(np.abs(G - omega * np.eye(n)).max())
        if resid > FLOAT_TOL * scale * n:
            errors.append("%s: %s differs from omega I by %.3g"
                          % (label, tag, resid))
    return errors


def barba_log(n: int) -> float:
    """log of Barba's bound sqrt(2n-1) (n-1)^((n-1)/2) on |det| of an
    odd-order matrix with entries of modulus <= 1."""
    return 0.5 * math.log(2 * n - 1) + 0.5 * (n - 1) * math.log(n - 1)


def check_barba(n: int, omega: float, label: str) -> list:
    # |det S| = omega^(n/2) for a Cretan matrix
    if 0.5 * n * math.log(omega) > barba_log(n) + FLOAT_TOL:
        return ["%s: (n/2) log omega = %.9g exceeds the Barba bound %.9g"
                % (label, 0.5 * n * math.log(omega), barba_log(n))]
    return []


def check_gram_sympy(S, label: str) -> list:
    """Exact S S^T = S^T S = omega I in sympy, for small exact matrices."""
    import sympy

    def sym(level):
        v = exact_value(level)
        if v[0] == "f":
            raise ValueError("float level in an exact check")
        a, b, d = v
        return sympy.Rational(a.numerator, a.denominator) \
            + sympy.Rational(b.numerator, b.denominator) * sympy.sqrt(d)

    vals = [sym(l) for l in S.levels]
    n = S.order
    M = sympy.Matrix(n, n, lambda i, j: vals[int(S.grid[i, j])])
    w = sym(S.omega)
    errors = []
    for tag, G in (("S S^T", M * M.T), ("S^T S", M.T * M)):
        R = (G - w * sympy.eye(n)).applyfunc(sympy.expand)
        if not R.is_zero_matrix:
            errors.append("%s: exact %s is not omega I" % (label, tag))
    return errors


def check_same_matrix(written, parsed, label: str) -> list:
    """Entry for entry, the parsed level matrix equals the written one."""
    if parsed.grid.shape != written.grid.shape:
        return ["%s: parsed order %d, written %d"
                % (label, parsed.order, written.order)]
    wvals = [exact_value(l) for l in written.levels]
    remap = []
    for l in parsed.levels:
        pv = exact_value(l)
        hits = [i for i, wv in enumerate(wvals) if pv == wv]
        if not hits:
            return ["%s: parsed level %r was never written" % (label, pv)]
        remap.append(hits[0])
    same = np.array(remap)[parsed.grid] == written.grid
    if not same.all():
        return ["%s: %d parsed entries differ from the written ones"
                % (label, int((~same).sum()))]
    if exact_value(parsed.omega) != exact_value(written.omega):
        return ["%s: parsed omega differs from the written one" % label]
    return []


def check_gh(E: np.ndarray, p: int, label: str) -> list:
    """M = exp(2 pi i E / p) satisfies M M* = n I."""
    n = E.shape[0]
    if E.min() < 0 or E.max() >= p:
        return ["%s: exponent outside 0..%d" % (label, p - 1)]
    M = np.exp(2j * np.pi * E.astype(np.float64) / p)
    resid = float(np.abs(M @ M.conj().T - n * np.eye(n)).max())
    if resid > FLOAT_TOL * n * n:
        return ["%s: M M* differs from n I by %.3g" % (label, resid)]
    return []


def diff_conflicts(catalog_text: str):
    """Conflict count from the `--diff` section of catalog text output,
    or None when the section is missing."""
    for line in catalog_text.splitlines():
        if line.strip().startswith("conflicts:"):
            return int(line.split(":", 1)[1])
    return None
