"""Small finite fields GF(p^k) with exp, log and trace tables.

Elements are coefficient tuples (length k, constant term first) over a
fixed monic irreducible modulus.  The modulus is chosen deterministically:
the monic irreducible polynomial of degree k whose non-leading coefficient
vector, read as the base-p integer c0 + c1*p + ..., is smallest.  The
generator is the least primitive element under the same ordering, so two
calls to make_field with the same (p, k) agree everywhere.

make_field builds the exp/log tables eagerly with a polynomial product;
after that, products, powers and Frobenius are table lookups.  The trace
table is built on the first trace_to_prime call for a field, from the
traces of the k basis elements x^i and linearity.  Sizes are capped at
p^k <= 10^6.
"""

from __future__ import annotations

# exact below 3.3e24, far above the 10^6 cap on field sizes
from cretan.scalar import is_probable_prime as is_prime


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors by trial division."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


def is_prime_power(q: int) -> bool:
    return len(prime_factors(q)) == 1


def factor_prime_power(q: int) -> tuple[int, int]:
    """q = p^j with p prime, or ValueError."""
    ps = prime_factors(q)
    if len(ps) != 1:
        raise ValueError("%d is not a prime power" % q)
    p = ps[0]
    j = 0
    while q > 1:
        q //= p
        j += 1
    return p, j


# -- dense polynomials over GF(p), constant term first ------------------------

def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _padd(a, b, p):
    n = max(len(a), len(b))
    a = a + [0] * (n - len(a))
    b = b + [0] * (n - len(b))
    return _trim([(x + y) % p for x, y in zip(a, b)])


def _psub(a, b, p):
    return _padd(a, [(-x) % p for x in b], p)


def _pmul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def _pmod(a, m, p):
    a = list(a)
    dm = len(m) - 1
    inv_lead = pow(m[-1], p - 2, p)
    while a and len(a) - 1 >= dm:
        if a[-1] == 0:
            a.pop()
            continue
        c = (a[-1] * inv_lead) % p
        shift = len(a) - 1 - dm
        for i, mi in enumerate(m):
            a[shift + i] = (a[shift + i] - c * mi) % p
        _trim(a)
    return a


def _pgcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        a, b = b, _pmod(a, b, p)
    return a


def _xpow_mod(e: int, m, p):
    """x^e mod m over GF(p)."""
    result = [1]
    base = _pmod([0, 1], m, p)
    while e:
        if e & 1:
            result = _pmod(_pmul(result, base, p), m, p)
        base = _pmod(_pmul(base, base, p), m, p)
        e >>= 1
    return result


def _is_irreducible(m, p) -> bool:
    """Rabin test for a monic polynomial of degree >= 1 over GF(p)."""
    k = len(m) - 1
    if k == 1:
        return True
    x = [0, 1]
    if _xpow_mod(p ** k, m, p) != _pmod(x, m, p):
        return False
    for e in prime_factors(k):
        t = _xpow_mod(p ** (k // e), m, p)
        g = _pgcd(m, _psub(t, x, p), p)
        if len(g) != 1:
            return False
    return True


class FieldSpec:
    """GF(p^k) with a fixed modulus, generator, exp/log tables, and a
    trace table built on first use."""

    __slots__ = ("p", "k", "modulus", "generator", "_exp", "_log",
                 "_trace")

    def __init__(self, p, k, modulus):
        self.p = p
        self.k = k
        self.modulus = modulus   # monic, length k+1, constant term first
        self.generator = None    # set by make_field
        self._exp = None
        self._log = None
        self._trace = None        # built by trace_to_prime on first use

    @property
    def order(self) -> int:
        return self.p ** self.k

    def zero(self) -> "FieldElem":
        return FieldElem(self, (0,) * self.k)

    def one(self) -> "FieldElem":
        return FieldElem(self, (1,) + (0,) * (self.k - 1))

    def from_int(self, j: int) -> "FieldElem":
        """Element whose coefficient vector is j written in base p."""
        cs = []
        for _ in range(self.k):
            cs.append(j % self.p)
            j //= self.p
        return FieldElem(self, tuple(cs))

    def elements(self) -> list["FieldElem"]:
        """All p^k elements in base-p integer order, zero first."""
        return [self.from_int(j) for j in range(self.order)]

    def gen(self) -> "FieldElem":
        return FieldElem(self, self.generator)

    def exp(self, i: int) -> "FieldElem":
        return FieldElem(self, self._exp[i % (self.order - 1)])

    def log(self, x: "FieldElem") -> int:
        try:
            return self._log[x.coeffs]
        except KeyError:
            raise ZeroDivisionError("log of the zero element")

    def __repr__(self):
        return "FieldSpec(GF(%d^%d), modulus=%s)" % (
            self.p, self.k, list(self.modulus))


class FieldElem:
    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: FieldSpec, coeffs: tuple):
        self.spec = spec
        self.coeffs = coeffs

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def to_int(self) -> int:
        j = 0
        for c in reversed(self.coeffs):
            j = j * self.spec.p + c
        return j

    def __eq__(self, other):
        return (isinstance(other, FieldElem)
                and self.spec is other.spec
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        p = self.spec.p
        return FieldElem(self.spec, tuple(
            (a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        p = self.spec.p
        return FieldElem(self.spec, tuple((-a) % p for a in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        spec = self.spec
        i = spec._log.get(self.coeffs)
        j = spec._log.get(other.coeffs)
        if i is None or j is None:
            return spec.zero()
        return FieldElem(spec, spec._exp[(i + j) % len(spec._exp)])

    def __pow__(self, e: int):
        spec = self.spec
        if self.is_zero():
            if e == 0:
                return spec.one()
            if e < 0:
                raise ZeroDivisionError("inverse of the zero element")
            return spec.zero()
        i = spec.log(self)
        return spec.exp((i * e) % (spec.order - 1))

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of the zero element")
        return self.spec.exp(-self.spec.log(self))

    def frobenius(self) -> "FieldElem":
        """x -> x^p, as exp[p * log x] (zero maps to zero)."""
        spec = self.spec
        if self.is_zero():
            return self
        exp = spec._exp
        return FieldElem(spec, exp[(spec.p * spec._log[self.coeffs])
                                   % len(exp)])

    def __repr__(self):
        return "FieldElem(GF(%d^%d), %s)" % (
            self.spec.p, self.spec.k, list(self.coeffs))


def _poly_mul(x: FieldElem, y: FieldElem) -> FieldElem:
    # product by polynomial arithmetic (used while building the tables)
    spec = x.spec
    prod = _pmod(_pmul(list(x.coeffs), list(y.coeffs), spec.p),
                 list(spec.modulus), spec.p)
    prod = prod + [0] * (spec.k - len(prod))
    return FieldElem(spec, tuple(prod))


def _pow_raw(g: FieldElem, e: int) -> FieldElem:
    # power by squaring without log tables (used while building them)
    result = g.spec.one()
    base = g
    while e:
        if e & 1:
            result = _poly_mul(result, base)
        base = _poly_mul(base, base)
        e >>= 1
    return result


def _is_primitive(g: FieldElem, group_order: int, factors) -> bool:
    if g.is_zero():
        return False
    one = g.spec.one().coeffs
    return all(_pow_raw(g, group_order // f).coeffs != one for f in factors)


_field_cache: dict = {}


def make_field(p: int, k: int) -> FieldSpec:
    """Build GF(p^k).  Requires p prime, 1 <= k <= 10 and p^k <= 10^6."""
    key = (p, k)
    if key in _field_cache:
        return _field_cache[key]
    if not is_prime(p):
        raise ValueError("%d is not prime" % p)
    if not (1 <= k <= 10):
        raise ValueError("extension degree out of range: %d" % k)
    if p ** k > 10 ** 6:
        raise ValueError("field too large: %d^%d" % (p, k))

    if k == 1:
        modulus = (0, 1)  # the polynomial x; elements are residues mod p
    else:
        modulus = None
        for j in range(p ** k):
            cs = []
            t = j
            for _ in range(k):
                cs.append(t % p)
                t //= p
            if _is_irreducible(cs + [1], p):
                modulus = tuple(cs + [1])
                break
        assert modulus is not None, "no irreducible polynomial found"

    spec = FieldSpec(p, k, modulus)
    n = p ** k
    factors = prime_factors(n - 1)
    for j in range(1, n):
        g = spec.from_int(j)
        if _is_primitive(g, n - 1, factors):
            spec.generator = g.coeffs
            break
    assert spec.generator is not None, "no primitive element found"

    exp_table = []
    log_table = {}
    acc = spec.one()
    gel = spec.gen()
    for i in range(n - 1):
        exp_table.append(acc.coeffs)
        log_table[acc.coeffs] = i
        acc = _poly_mul(acc, gel)
    assert acc.coeffs == spec.one().coeffs, "generator order is wrong"
    spec._exp = exp_table
    spec._log = log_table
    _field_cache[key] = spec
    return spec


def _frobenius_trace(x: FieldElem) -> int:
    """Tr(x) = x + x^p + ... + x^(p^(k-1)), summed directly."""
    total = x
    acc = x
    for _ in range(x.spec.k - 1):
        acc = acc.frobenius()
        total = total + acc
    assert not any(total.coeffs[1:]), "trace landed outside the prime field"
    return total.coeffs[0]


def _trace_table(spec: FieldSpec) -> dict:
    """Tr of every element, keyed by coefficient tuple.  The trace is
    GF(p)-linear, so Tr(sum c_i x^i) = sum c_i Tr(x^i) mod p; only the k
    basis traces are summed over Frobenius images."""
    p = spec.p
    # from_int(p^i) is x^i
    basis = [_frobenius_trace(spec.from_int(p ** i)) for i in range(spec.k)]
    elems = [spec.zero().coeffs] + spec._exp
    return {cs: sum(c * t for c, t in zip(cs, basis)) % p for cs in elems}


def trace_to_prime(x: FieldElem) -> int:
    """Absolute trace Tr(x) = x + x^p + ... + x^(p^(k-1)) as an integer."""
    spec = x.spec
    if spec._trace is None:
        spec._trace = _trace_table(spec)
    return spec._trace[x.coeffs]


def relative_trace(x: FieldElem, j: int) -> FieldElem:
    """Trace from GF(p^k) down to the subfield GF(p^j); requires j | k."""
    k = x.spec.k
    if k % j != 0:
        raise ValueError("GF(p^%d) is not a subfield of GF(p^%d)" % (j, k))
    total = x
    acc = x
    for _ in range(k // j - 1):
        for _ in range(j):
            acc = acc.frobenius()
        total = total + acc
    return total


def quadratic_character(a: int, p: int) -> int:
    """Legendre symbol of a mod an odd prime p, in {-1, 0, 1}."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1
