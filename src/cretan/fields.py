"""Small finite fields GF(p^k) with exp, log and trace tables.

An element is its integer code: the base-p integer c0 + c1*p + ... whose
digits are its coefficients (length k, constant term first) over a fixed
monic irreducible modulus.  The modulus is chosen deterministically: the
monic irreducible polynomial of degree k whose non-leading coefficient
vector, read as a code, is smallest.  The generator is the least
primitive element under the same ordering, so two calls to make_field
with the same (p, k) agree everywhere.

make_field builds every table as an array over all p^k codes.
Multiplying by x shifts the digits up one place and folds the top digit
back with the modulus; multiplying by c = sum c_i x^i sums the digit rows
of x^i a.  The powers of c come from such a table by repeated doubling.
Irreducibility is tested on the same tables: each candidate modulus
without a root in GF(p) gets its multiply-by-x table, and Rabin's test
reads x^(p^k) off the powers of x and checks that each x^(p^(k/e)) - x
multiplies the codes by a permutation.  The winner's table then gives the
generator, the first code whose powers have period p^k - 1.  For k = 1
the modulus is x, and the generator, the least primitive root mod p, is
found by Python's pow on ints, so only its own power table is built.
The field is these tables, each an int64 array over codes: `codes` (the
exp table, codes[i] = g^i), `digits` (the coefficient vector of each
code) and `logs` (logs[c] = i with g^i = c).  Callers compute on codes
with them: a product of nonzero codes a and b is
codes[(logs[a] + logs[b]) % (p^k - 1)], as `gh_from_field` forms it for
every pair at once, and the residue, Paley and Singer constructions read
powers and digits the same way.  The trace table, also over codes, is
built on the first trace_to_prime call for a field.  Sizes are capped at
p^k <= 10^6.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

# exact below 3.3e24, far above the 10^6 cap on field sizes
from cretan.scalar import factor, is_probable_prime as is_prime

# make_field builds no field with more elements than this
MAX_FIELD_SIZE = 10 ** 6


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors, ascending."""
    return sorted(factor(n))


def is_prime_power(q: int) -> bool:
    return len(factor(q)) == 1


def factor_prime_power(q: int) -> tuple[int, int]:
    """q = p^j with p prime, or ValueError."""
    fs = factor(q)
    if len(fs) != 1:
        raise ValueError("%d is not a prime power" % q)
    [(p, j)] = fs.items()
    return p, j


@dataclass(frozen=True, eq=False, repr=False)
class FieldSpec:
    """GF(p^k) with a fixed modulus and generator, and its exp, digit and
    log tables over integer codes."""

    p: int
    k: int
    modulus: tuple        # monic, length k+1, constant term first
    generator: tuple      # coefficient vector of g
    codes: np.ndarray     # codes[i] = code of g^i, i < p^k - 1
    digits: np.ndarray    # digits[c] = coefficient vector of code c
    logs: np.ndarray      # logs[c] = i with g^i = c; logs[0] = 0

    @property
    def order(self) -> int:
        return self.p ** self.k

    @cached_property
    def _traces(self) -> list:
        """Tr(c) for every code c, as Python ints, built on first use."""
        rows = trace_of_powers(self, np.arange(self.order - 1))
        table = np.zeros(self.order, dtype=np.int64)
        table[self.codes] = rows[:, 0]
        return table.tolist()

    def __repr__(self):
        return "FieldSpec(GF(%d^%d), modulus=%s)" % (
            self.p, self.k, list(self.modulus))


def _times_x(cs, digits, pw, p) -> np.ndarray:
    """Code of x a for every code a in GF(p)[x]/(x^k + cs): shift a's
    digits up one place and replace the overflow d x^k by
    -d (c_0 + ... + c_{k-1} x^{k-1}), digitwise mod p."""
    shifted = np.zeros_like(digits)
    shifted[:, 1:] = digits[:, :-1]
    return ((shifted - digits[:, -1:] * cs) % p) @ pw


def _times_table(cs, times_x, digits, pw, p) -> np.ndarray:
    """Code of c a for every code a, where c has coefficient vector cs:
    the digit rows of x^i a summed with weights c_i, mod p."""
    acc = np.zeros_like(digits)
    xa = np.arange(len(digits))
    for ci in cs.tolist():
        if ci:
            acc += ci * digits[xa]
        xa = times_x[xa]
    return (acc % p) @ pw


def _powers(times_c: np.ndarray, m: int) -> np.ndarray:
    """Codes of c^0 .. c^(m-1), given the multiply-by-c table, by
    doubling: the next block is the current one times c^len."""
    out = np.ones(1, dtype=np.int64)
    while len(out) < m:
        out = np.concatenate((out, times_c[out]))
        times_c = times_c[times_c]
    return out[:m]


def _is_irreducible(times_x, powers, digits, pw, p) -> bool:
    """Rabin's test on the multiply-by-x table of GF(p)[x]/(m), m monic
    of degree k >= 1, and the codes of x^0 .. x^(p^k) (`_powers(times_x,
    p^k + 1)`): m is irreducible iff x^(p^k) = x and, for every prime
    e | k, x^(p^(k/e)) - x is a unit, that is, multiplying by it
    permutes the codes."""
    n = len(digits)
    x = times_x[1]
    if powers[n] != x:
        return False
    k = len(pw)
    for e in prime_factors(k):
        t = (digits[powers[p ** (k // e)]] - digits[x]) % p
        if np.bincount(_times_table(t, times_x, digits, pw, p)).max() > 1:
            return False
    return True


@cache
def make_field(p: int, k: int) -> FieldSpec:
    """Build GF(p^k).  Requires p prime, 1 <= k <= 10 and p^k <= 10^6."""
    if not is_prime(p):
        raise ValueError("%d is not prime" % p)
    if not (1 <= k <= 10):
        raise ValueError("extension degree out of range: %d" % k)
    if p ** k > MAX_FIELD_SIZE:
        raise ValueError("field too large: %d^%d" % (p, k))

    n = p ** k
    pw = p ** np.arange(k, dtype=np.int64)
    digits = (np.arange(n, dtype=np.int64)[:, None] // pw) % p
    if k == 1:
        # degree 1 takes x, so elements are residues mod p and c
        # multiplies by c a mod p; c is primitive iff c^((p-1)/r) != 1
        # for every prime r | p - 1, a test on Python ints
        cs = digits[0]
        ords = [(p - 1) // r for r in prime_factors(p - 1)]
        c = next(c for c in range(1, p)
                 if all(pow(c, e, p) != 1 for e in ords))
        powers = _powers(c * digits[:, 0] % p, p - 1)
    else:
        # candidates x^k + cs in code order.  at[a, i] = a^i mod p: a
        # candidate with a root in GF(p) is reducible, so only the others
        # get the test
        at = np.ones((p, k + 1), dtype=np.int64)
        for i in range(1, k + 1):
            at[:, i] = at[:, i - 1] * np.arange(p) % p
        for cs in digits:
            if not ((at[:, :k] @ cs + at[:, k]) % p).all():
                continue
            times_x = _times_x(cs, digits, pw, p)
            xpowers = _powers(times_x, n + 1)
            if _is_irreducible(times_x, xpowers, digits, pw, p):
                break
        # constants have order at most p - 1, so the least primitive
        # element is x (code p) or later; every power of a rejected
        # element is rejected with it, and GF(p^k)^* is cyclic, so one is
        # found.  x takes its powers from Rabin's test; another candidate
        # gets its multiply table and power table here
        rejected = np.zeros(n, dtype=bool)
        for c in range(p, n):
            if rejected[c]:
                continue
            powers = xpowers[:n - 1] if c == p else _powers(
                _times_table(digits[c], times_x, digits, pw, p), n - 1)
            if not (powers[1:] == 1).any():
                break
            rejected[powers] = True

    logs = np.zeros(n, dtype=np.int64)
    logs[powers] = np.arange(n - 1)
    return FieldSpec(p, k, tuple(cs.tolist()) + (1,),
                     tuple(digits[c].tolist()), powers, digits, logs)


def _check_subfield(k: int, j: int) -> None:
    if j < 1 or k % j:
        raise ValueError("GF(p^%d) is not a subfield of GF(p^%d)" % (j, k))


def trace_of_powers(spec: FieldSpec, exponents, j: int = 1) -> np.ndarray:
    """Trace from GF(p^k) down to GF(q), q = p^j, of g^i for each exponent
    i, as rows of base-p digits: the sum of g^(i q^t) over t < k/j, read
    from the exp codes and added digitwise mod p.  Requires j | k."""
    _check_subfield(spec.k, j)
    m = spec.order - 1
    i = np.asarray(exponents, dtype=np.int64) % m
    q = spec.p ** j
    rows = sum(spec.digits[spec.codes[i * pow(q, t, m) % m]]
               for t in range(spec.k // j))
    return rows % spec.p


def trace_to_prime(spec: FieldSpec, c: int) -> int:
    """Absolute trace Tr(c) = c + c^p + ... + c^(p^(k-1)) of code c, as an
    integer in [0, p)."""
    return spec._traces[c]


def relative_trace(spec: FieldSpec, c: int, j: int) -> int:
    """Code of the trace of code c from GF(p^k) down to the subfield
    GF(p^j), read off `trace_of_powers` at log c; requires 1 <= j and
    j | k."""
    _check_subfield(spec.k, j)
    if not c:
        return 0
    digits = trace_of_powers(spec, [spec.logs[c]], j)[0].tolist()
    return sum(d * spec.p ** i for i, d in enumerate(digits))
