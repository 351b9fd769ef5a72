"""Sign matrices: Hadamard, conference, and weighing matrices.

Entries are drawn from {-1, 0, +1} and the Gram matrix is weight * I.
Hadamard matrices have weight n (no zeros), conference matrices weight
n - 1 (zero diagonal), weighing matrices W(n, w) weight w.  A regular
Hadamard matrix additionally has constant row and column sums 2m with
n = 4 m^2; these are the seeds for bordered constructions of odd order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cretan.designs import (
    BadFixture,
    GroupDesc,
    Sbibd,
    fixture_difference_set,
    load_fixture,
)
from cretan.fields import factor_prime_power, make_field
from cretan.scalar import exact_dtype


class NoConstructionAvailable(ValueError):
    """No construction for the requested order is known to this package."""


def square_side(n: int) -> int | None:
    """m >= 1 with n = 4 m^2, or None; n >= 0."""
    m = math.isqrt(n // 4)
    return m if m and 4 * m * m == n else None


@dataclass
class SignMatrix:
    order: int
    entries: np.ndarray          # int8, values in {-1, 0, 1}
    kind: str                    # "hadamard" | "conference" | "weighing"
    weight: int                  # Gram matrix is weight * I
    excess: int = 0              # common row sum, for regular Hadamard
    source: str = ""

    def validate(self) -> None:
        n = self.order
        E = self.entries
        if E.shape != (n, n) or not np.isin(E, (-1, 0, 1)).all():
            raise ValueError("entries must be an n x n matrix over {-1,0,1}")
        # every partial sum of a 0/+-1 Gram product is an integer of at
        # most n, so BLAS in exact_dtype(n) forms it exactly
        F = E.astype(exact_dtype(n))
        if not (F @ F.T == self.weight * np.eye(n)).all():
            raise ValueError("Gram matrix is not weight * I")
        if self.kind == "hadamard":
            if self.weight != n or (E == 0).any():
                raise ValueError("Hadamard matrices have no zeros")
            if self.excess:
                s = square_side(n)
                if s is None or self.excess != 2 * s:
                    raise ValueError("regular Hadamard needs n = 4 m^2, "
                                     "row sums 2m")
                sums = E.sum(axis=1)
                if not (sums == self.excess).all() or \
                        not (E.sum(axis=0) == self.excess).all():
                    raise ValueError("row/column sums are not constant 2m")
        elif self.kind == "conference":
            if self.weight != n - 1:
                raise ValueError("conference weight must be n - 1")
            if (np.diag(E) != 0).any() or (E == 0).sum() != n:
                raise ValueError("conference matrices have zero diagonal "
                                 "and no other zeros")
        elif self.kind == "weighing":
            if not (0 < self.weight <= n):
                raise ValueError("weighing weight out of range")
        else:
            raise ValueError("unknown kind %r" % self.kind)

    @property
    def is_symmetric(self) -> bool:
        return (self.entries == self.entries.T).all()


def sylvester(e: int) -> SignMatrix:
    """Hadamard matrix of order 2^e by repeated doubling; e >= 0."""
    if e < 0:
        raise ValueError("exponent must be non-negative")
    H = np.array([[1]], dtype=np.int8)
    for _ in range(e):
        H = np.block([[H, H], [H, -H]]).astype(np.int8)
    n = 2 ** e
    return SignMatrix(n, H, "hadamard", n, source="sylvester(%d)" % e)


def paley_conference(q: int) -> SignMatrix:
    """Symmetric conference matrix of order q + 1, q a prime power 1 mod 4.

    The core is the quadratic character chi of GF(q), tabulated once by
    base-p integer code (+1 at `codes[::2]`, the even powers of the
    generator) and developed over the additive group Z_p^k by
    `GroupDesc.develop`, as a difference set is: position j of Z_p^k has
    the base-p digits of j, highest degree first, so it is the element of
    code j.  Entry (i, j) is chi(x_j - x_i) = chi(x_i - x_j), since
    -1 is a square.  The border is all ones and the diagonal zero.
    Paley's theorem (Q Q^T = q I - J, Q J = 0) makes it a conference
    matrix, checked by `cretan construct`'s `verify_complex`.
    """
    if q % 4 != 1:
        raise ValueError("q must be 1 mod 4, got %d" % q)
    p, k = factor_prime_power(q)
    f = make_field(p, k)
    chi = np.full(q, -1, dtype=np.int8)
    chi[0] = 0
    chi[f.codes[::2]] = 1
    n = q + 1
    E = np.zeros((n, n), dtype=np.int8)
    E[0, 1:] = E[1:, 0] = 1
    E[1:, 1:] = GroupDesc((p,) * k).develop(chi)
    return SignMatrix(n, E, "conference", q,
                      source="paley-conference(%d)" % q)


def kronecker_sign(A: SignMatrix, B: SignMatrix) -> SignMatrix:
    """Kronecker product; weight multiplies, kind follows the factors."""
    E = np.kron(A.entries, B.entries).astype(np.int8)
    both = A.kind == B.kind == "hadamard"
    # row sums multiply: (2m)(2m') = 2 (2 m m'), and 0 when either is 0
    return SignMatrix(A.order * B.order, E,
                      "hadamard" if both else "weighing",
                      A.weight * B.weight,
                      excess=A.excess * B.excess if both else 0,
                      source="kron(%s, %s)" % (A.source, B.source))


def menon_hadamard_from_design(sb: Sbibd) -> SignMatrix:
    """Regular Hadamard matrix of order 4 m^2 from a (4m^2, 2m^2-m, m^2-m)
    design, mapping incidence 1 -> -1 and 0 -> +1.  Menon's theorem gives
    H H^T = v I with row sums 2m, checked by the exact lift of
    `regular_hadamard_border`'s matrix in the catalog and `construct`.
    """
    v = sb.v
    s = square_side(v)
    if s is None:
        raise ValueError("order %d is not 4 m^2" % v)
    if sb.k not in (2 * s * s - s, 2 * s * s + s):
        raise ValueError("design parameters are not Menon type")
    H = (1 - 2 * sb.incidence).astype(np.int8)
    if H[0].sum() < 0:
        H = -H
    return SignMatrix(v, H, "hadamard", v, excess=int(H[0].sum()),
                      source="menon(%s)" % (sb.params,))


def _regular_seed4() -> SignMatrix:
    """J - 2I at order 4: symmetric regular Hadamard with row sums 2."""
    E = np.ones((4, 4), dtype=np.int8) - 2 * np.eye(4, dtype=np.int8)
    return SignMatrix(4, E, "hadamard", 4, excess=2,
                      source="regular-seed(4)")


def regular_hadamard(m: int) -> SignMatrix:
    """Regular Hadamard matrix of order 4 m^2 with row sums 2m.

    Covers m = 2^a and m = 3 * 2^a (from the shipped (36,15,6) design) by
    products with J - 2I, which stay regular Hadamard.  Other m fall back
    to a sign-matrix fixture regular-hadamard-<4m^2>; absent that,
    NoConstructionAvailable.  A fixture that does not decode to a regular
    Hadamard matrix with row sums 2m raises BadFixture.
    """
    if m < 1:
        raise ValueError("m must be positive")
    rest = m
    a = 0
    while rest % 2 == 0:
        rest //= 2
        a += 1
    if rest in (1, 3):
        M = _regular_seed4() if rest == 1 else menon_hadamard_from_design(
            fixture_difference_set("36-15-6").develop())
        for _ in range(a):
            M = kronecker_sign(M, _regular_seed4())
        return M
    name = "regular-hadamard-%d" % (4 * m * m)
    try:
        fx = load_fixture(name)
    except FileNotFoundError:
        raise NoConstructionAvailable(
            "no regular Hadamard construction for m=%d; provide a "
            "sign-matrix fixture %r" % (m, name))
    try:
        M = sign_matrix_from_fixture(fx)
        if M.excess != 2 * m:
            raise ValueError("wrong row sums")
    except ValueError as exc:
        raise BadFixture("fixture %r: %s" % (name, exc)) from None
    return M


def sign_matrix_from_fixture(fx) -> SignMatrix:
    """Decode a regular Hadamard fixture ('+'/'-' rows, constant row
    sums) and validate it."""
    if fx.kind != "sign-matrix":
        raise ValueError("fixture %r is not a sign matrix" % fx.label)
    n = fx.order
    if not set("".join(fx.rows)) <= {"+", "-"}:
        raise ValueError("sign rows may hold only '+' and '-'")
    E = np.array([[1 if c == "+" else -1 for c in row] for row in fx.rows],
                 dtype=np.int8)
    if E.shape != (n, n):
        raise ValueError("fixture body disagrees with declared order")
    sums = E.astype(np.int64).sum(axis=1)
    if sums[0] == 0 or (sums != sums[0]).any():
        raise ValueError("fixture %r is not regular" % fx.label)
    M = SignMatrix(n, E, "hadamard", n, excess=abs(int(sums[0])),
                   source="fixture:%s" % fx.label)
    M.validate()
    return M
