"""Exact scalars in Q and in real quadratic fields Q(sqrt(d)); float levels.

An exact scalar is stored as (p + q*sqrt(d)) / r with plain Python ints
p, q, r and a squarefree radicand d.  Canonical form: r > 0,
gcd(p, q, r) = 1, d squarefree, and q = 0 if and only if d = 0.
Rationals therefore always have d = 0 and compare equal regardless of how
they were produced.

The exact operations work on the four integers directly.  Sums,
differences, products and quotients are formed in p, q, d, r and reduced
by one gcd.  Only `+`, `*` and `==` take an int operand without
coercion; `-` and `/` coerce it, as they do a Fraction.  Adding an
int, negation and the conjugate need no gcd at all (they keep
gcd(p, q, r) = 1).  `sign` and `abs_le_one` share one integer test, the
sign of a + b sqrt(d), which compares a^2 with b^2 d when the two terms
differ in sign.  `==` compares the canonical integers, and a rational
hashes like the `Fraction` p/r (by the same numeric rule, without
building one), so equal numbers hash alike whatever their type.

Mixed-radicand sums (sqrt(2) + sqrt(3)) raise IncompatibleRadicands;
there is no field tower.  A construction that meets two fields computes
floats from `to_float` itself and holds them, like `f` tokens in a file,
as `FloatLevel`s.  A FloatLevel has no arithmetic and equals no Scalar,
so no float enters exact arithmetic or merges into an exact level.

Tolerances used across the package are defined once, here.
"""

from __future__ import annotations

import itertools
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from operator import index as _index

# Absolute tolerance for float-mode verification (Gram residuals, radius).
VERIFY_TOL = 1e-9
# Tolerance for root refinement and float boundary comparisons.
REFINE_TOL = 1e-12


def exact_dtype(bound: int) -> str:
    """The dtype in which integer matrix products are exact when every
    partial sum has modulus at most bound: "float32" for a bound below
    2^24, "float64" below 2^53, "object" (Python integers) above.  Every
    integer of modulus up to 2^24 is a float32, and up to 2^53 a float64,
    so each sum is formed exactly, in any order BLAS adds in."""
    if bound < 2 ** 24:
        return "float32"
    if bound < 2 ** 53:
        return "float64"
    return "object"


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


class IncompatibleRadicands(ArithmeticError):
    """Raised when exact arithmetic would mix sqrt(d1) and sqrt(d2)."""


# trial division stops at this bound (or at the cube root of the
# leftover); larger prime factors are found by Miller-Rabin and rho
_TRIAL_LIMIT = 1000
# Pollard-Brent steps allowed per radicand: finds any factor below 10^9
# with room to spare, and gives up on two 14-digit primes in about a second
_RHO_BUDGET = 2 ** 20
# with these bases Miller-Rabin is exact below
# 3,317,044,064,679,887,385,961,981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_probable_prime(m: int) -> bool:
    """Miller-Rabin with the first 13 primes as bases: exact below
    3.3 * 10^24, a strong probable-prime test above."""
    if m < 2:
        return False
    for p in _MR_BASES:
        if m % p == 0:
            return m == p
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _brent_factor(m: int, budget: int) -> tuple[int, int]:
    """A proper factor of the odd composite m by Pollard-Brent rho, and
    the steps left of budget; ValueError once the budget runs out."""
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % m
            k = 0
            while k < r and g == 1:
                ys = y
                steps = min(128, r - k)
                for _ in range(steps):
                    y = (y * y + c) % m
                    q = q * abs(x - y) % m
                g = math.gcd(q, m)
                k += steps
            budget -= 2 * r
            if budget < 0:
                raise ValueError("radicand %d: no factor found within %d "
                                 "rho steps" % (m, _RHO_BUDGET))
            r *= 2
        if g == m:
            # the batch overshot: step back one at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % m
                g = math.gcd(abs(x - ys), m)
        if g != m:
            return g, budget


def _odd_power_root(x: int, f: int) -> tuple[int, int] | None:
    """(y, r) with x = y^r for an odd r >= 3, or None.  Every prime factor
    of x is at least f, so only r up to log(x)/log(f) can occur."""
    r = 3
    while f ** r <= x:
        # integer Newton for the floor r-th root, from above
        y = 1 << -(-x.bit_length() // r)
        while True:
            z = ((r - 1) * y + x // y ** (r - 1)) // r
            if z >= y:
                break
            y = z
        if y ** r == x:
            return y, r
        r += 2
    return None


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write n >= 0 as s*s*d with d squarefree; return (s, d).

    Raises ValueError when a large leftover cannot be split within the
    rho budget (such as p^2 q with p and q both about 10^14).
    """
    if n < 0:
        raise ValueError("negative radicand")
    if n in (0, 1):
        return (1, n)
    s, d = 1, 1
    m = n
    for p in _SMALL_PRIMES:
        while m % (p * p) == 0:
            m //= p * p
            s *= p
        if m % p == 0:
            m //= p
            d *= p
    f = 49
    while f < _TRIAL_LIMIT and f * f * f <= m:
        while m % (f * f) == 0:
            m //= f * f
            s *= f
        if m % f == 0:
            m //= f
            d *= f
        f += 2
    # every prime factor of m is at least f, so a factor of m below f^2
    # is 1 or a prime; larger ones are split until every part is prime
    if m < f * f:
        return (s, d * m)
    exponents: dict = {}
    budget = _RHO_BUDGET
    stack = [m]
    while stack:
        x = stack.pop()
        r = math.isqrt(x)
        if r * r == x and r > 1:
            stack += [r, r]
        elif x < f * f or is_probable_prime(x):
            exponents[x] = exponents.get(x, 0) + 1
        elif (power := _odd_power_root(x, f)) is not None:
            stack += [power[0]] * power[1]
        else:
            # strip every power of g: one rho search per repeated prime
            g, budget = _brent_factor(x, budget)
            while x % g == 0:
                x //= g
                stack.append(g)
            stack.append(x)
    for x, e in exponents.items():
        s *= x ** (e // 2)
        d *= x ** (e % 2)
    return (s, d)


def _sign(a: int, b: int, d: int) -> int:
    """Sign (-1, 0, 1) of a + b sqrt(d), for integers a and b and a d that
    is 0 or squarefree and not 1, so that the sum is 0 only at a = b = 0."""
    if not b:
        return (a > 0) - (a < 0)
    sb = 1 if b > 0 else -1
    if a * sb >= 0:
        return sb
    # opposite signs: the larger of a^2 and b^2 d decides
    return sb if a * a < b * b * d else -sb


def _radicand(x: "Scalar", y: "Scalar") -> int:
    """The field Q(sqrt d) of exact x and y: a rational has d = 0 and
    mixes with either; two nonzero radicands must agree."""
    d, e = x.d, y.d
    if d and e and d != e:
        raise IncompatibleRadicands(
            "sqrt(%d) and sqrt(%d) do not mix" % (d, e))
    return d or e


@total_ordering
class Scalar:
    """An exact number (p + q*sqrt(d))/r.  Field operations need agreeing
    radicands; a float or FloatLevel operand is a TypeError."""

    __slots__ = ("p", "q", "r", "d")
    f = None            # read alike on every level: never a float
    is_float = False

    def __init__(self, p: int, q: int = 0, d: int = 0, r: int = 1):
        # stored as plain ints: a bool would print as True
        p, q, d, r = _index(p), _index(q), _index(d), _index(r)
        if r == 0:
            raise ZeroDivisionError("zero denominator")
        if d < 0:
            raise ValueError("negative radicand")
        if d == 0:
            q = 0
        elif q:
            s, d = squarefree_decompose(d)
            q *= s
            if d == 1:
                p, q = p + q, 0
        _exact(p, q, d, r, self)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_fraction(cls, fr: Fraction) -> "Scalar":
        return cls(fr.numerator, 0, 0, fr.denominator)

    @classmethod
    def sqrt_fraction(cls, fr) -> "Scalar":
        """Exact square root of a non-negative rational."""
        fr = Fraction(fr)
        if fr < 0:
            raise ValueError("negative radicand")
        # sqrt(a/b) = sqrt(a*b)/b
        s, d = squarefree_decompose(fr.numerator * fr.denominator)
        return cls(0, s, d, fr.denominator)

    # -- predicates --------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.q == 0

    def is_zero(self) -> bool:
        return not self.p and not self.q

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError("not an exact rational: %r" % (self,))
        return Fraction(self.p, self.r)

    def to_float(self) -> float:
        try:
            return (self.p + self.q * math.sqrt(self.d)) / self.r
        except OverflowError:
            # an int past float range.  With s = sqrt(d) 2^64 rounded down,
            # int / int overflows only when the quotient does; when p and
            # q have opposite signs, the conjugate form
            # (p^2 - q^2 d) / (r (p - q sqrt d)) keeps them from cancelling
            p, q, d, r = self.p, self.q, self.d, self.r
            s = math.isqrt(d << 128)
            if p * q >= 0:
                return ((p << 64) + q * s) / (r << 64)
            return ((p * p - q * q * d) << 64) / (r * ((p << 64) - q * s))

    def sign(self) -> int:
        """Exact sign (-1, 0, 1)."""
        return _sign(self.p, self.q, self.d)

    def abs_le_one(self) -> bool:
        """Whether |x| <= 1, exactly: for x = (p + q sqrt d)/r with r > 0,
        whether r - p - q sqrt d and r + p + q sqrt d are both
        non-negative."""
        p, q, d, r = self.p, self.q, self.d, self.r
        return _sign(r - p, -q, d) >= 0 and _sign(r + p, q, d) >= 0

    def conjugate(self) -> "Scalar":
        """Galois conjugate: sqrt(d) -> -sqrt(d)."""
        return _make(self.p, -self.q, self.d, self.r)

    # -- arithmetic --------------------------------------------------------
    #
    # +, * and == meet an int operand without coercion.  Adding o leaves
    # gcd(p, q, r) = 1, so (p + o r, q, d, r) is canonical as it stands;
    # so are negation and the conjugate.

    @staticmethod
    def _coerce(x) -> "Scalar":
        if isinstance(x, Scalar):
            return x
        if isinstance(x, int):
            return Scalar(x)
        if isinstance(x, Fraction):
            return Scalar.from_fraction(x)
        return NotImplemented

    def __add__(self, other):
        if isinstance(other, int):
            return _make(self.p + other * self.r, self.q, self.d, self.r)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        r, s = self.r, other.r
        return _exact(self.p * s + other.p * r, self.q * s + other.q * r,
                      _radicand(self, other), r * s)

    __radd__ = __add__

    def __neg__(self):
        return _make(-self.p, -self.q, self.d, self.r)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        r, s = self.r, other.r
        return _exact(self.p * s - other.p * r, self.q * s - other.q * r,
                      _radicand(self, other), r * s)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return _make(0, 0, 0, 1)
            # gcd(p, q, r) = 1, so gcd(o p, o q, r) = gcd(o, r)
            g = math.gcd(other, self.r)
            o = other // g
            return _make(self.p * o, self.q * o, self.d, self.r // g)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = _radicand(self, other)
        p, q, s, t = self.p, self.q, other.p, other.q
        return _exact(p * s + q * t * d, p * t + q * s, d, self.r * other.r)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        s, t = other.p, other.q
        if not s and not t:
            raise ZeroDivisionError("division by zero scalar")
        # times r' (s - t sqrt d) / (s^2 - t^2 d), the inverse of other
        d = _radicand(self, other)
        p, q, r = self.p, self.q, other.r
        return _exact(r * (p * s - q * t * d), r * (q * s - p * t), d,
                      self.r * (s * s - t * t * d))

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # -- comparison and hashing -------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            return self.p == other and self.r == 1 and not self.q
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self.p == other.p and self.q == other.q
                and self.d == other.d and self.r == other.r)

    def __hash__(self):
        p, r = self.p, self.r
        if self.q:
            return hash((p, self.q, self.d, r))
        # a rational hashes like Fraction(p, r), by the numeric hash rule
        # that fractions.Fraction.__hash__ follows, without building one
        if r == 1:
            return hash(p)
        try:
            inv = pow(r, -1, _HASH_MODULUS)
        except ValueError:
            # r is a multiple of the modulus
            h = _HASH_INF
        else:
            h = hash(hash(abs(p)) * inv)
        h = h if p >= 0 else -h
        return -2 if h == -1 else h

    def _cmp_sign(self, other) -> int:
        diff = self.__sub__(other)
        if diff is NotImplemented:
            raise TypeError("cannot compare Scalar with that type")
        return diff.sign()

    # <=, > and >= come from functools.total_ordering
    def __lt__(self, other):
        return self._cmp_sign(other) < 0

    def __repr__(self):
        return "Scalar(%s)" % format_scalar(self)

    def __str__(self):
        return format_scalar(self)


_new = object.__new__
_set_p, _set_q, _set_d, _set_r = (
    Scalar.__dict__[name].__set__ for name in ("p", "q", "d", "r"))
_HASH_MODULUS = sys.hash_info.modulus
_HASH_INF = sys.hash_info.inf


def _make(p: int, q: int, d: int, r: int, x: Scalar | None = None) -> Scalar:
    """Store fields that are already canonical into x, or into a new
    Scalar, past the immutability guard."""
    if x is None:
        x = _new(Scalar)
    _set_p(x, p)
    _set_q(x, q)
    _set_d(x, d)
    _set_r(x, r)
    return x


def _exact(p: int, q: int, d: int, r: int, x: Scalar | None = None) -> Scalar:
    """(p + q sqrt d)/r in canonical form, for r != 0 and a d that is 0
    or squarefree and not 1 (no radicand factoring, unlike __init__)."""
    if not q:
        d = 0
    if r < 0:
        p, q, r = -p, -q, -r
    # zero comes out as 0/1: then g = r
    g = math.gcd(p, q, r)
    if g != 1:
        p, q, r = p // g, q // g, r // g
    return _make(p, q, d, r, x)


@dataclass(frozen=True)
class FloatLevel:
    """A level known only as a float: it has no arithmetic and equals no
    Scalar."""

    f: float
    is_float = True
    is_rational = False

    def to_float(self) -> float:
        return self.f

    def abs_le_one(self) -> bool:
        return abs(self.f) <= 1.0 + REFINE_TOL


# -- text grammar -----------------------------------------------------------
#
#   INT   := ['-'] digits
#   DEN   := digits, not all zero
#   RAT   := INT '/' DEN
#   QUAD  := '(' INT ('+'|'-') digits '*sqrt(' digits ')' ')/' DEN
#   FLOAT := 'f' decimal-literal, finite
#
# digits are ASCII 0-9 only: Python's \d, int() and float() also take
# other Unicode decimal digits, and int() and float() take underscores

_QUAD_RE = re.compile(
    r"\((-?[0-9]+)([+-])([0-9]+)\*sqrt\(([0-9]+)\)\)/(0*[1-9][0-9]*)"
)
_RAT_RE = re.compile(r"(-?[0-9]+)/(0*[1-9][0-9]*)")
_INT_RE = re.compile(r"-?[0-9]+")


def parse_int(text: str) -> int:
    """An INT of the grammar: no blanks, underscores or non-ASCII digits."""
    if not _INT_RE.fullmatch(text):
        raise ValueError("malformed integer: %r" % text)
    return int(text)


def parse_float(text: str) -> float:
    """float() of ASCII text without underscores; may be non-finite."""
    if not text.isascii() or "_" in text:
        raise ValueError("malformed float: %r" % text)
    return float(text)


def format_scalar(x: Scalar | FloatLevel) -> str:
    """Render a scalar in the one-token text grammar used by matrix files."""
    if x.is_float:
        return "f" + repr(x.f)
    if x.q == 0:
        return str(x.p) if x.r == 1 else "%d/%d" % (x.p, x.r)
    sgn = "+" if x.q > 0 else "-"
    return "(%d%s%d*sqrt(%d))/%d" % (x.p, sgn, abs(x.q), x.d, x.r)


def parse_scalar(text: str) -> Scalar | FloatLevel:
    """Inverse of format_scalar.  Raises ValueError on malformed tokens
    and on exact tokens whose value is beyond float range."""
    text = text.strip()
    if text.startswith("f"):
        x = parse_float(text[1:])
        if not math.isfinite(x):
            raise ValueError("non-finite float token: %r" % text)
        return FloatLevel(x)
    m = _QUAD_RE.fullmatch(text)
    if m:
        p, sgn, q, d, r = m.groups()
        qv = int(q) if sgn == "+" else -int(q)
        x = Scalar(int(p), qv, int(d), int(r))
    elif m := _RAT_RE.fullmatch(text):
        x = Scalar(int(m.group(1)), 0, 0, int(m.group(2)))
    elif _INT_RE.fullmatch(text):
        x = Scalar(int(text))
    else:
        raise ValueError("malformed scalar token: %r" % text)
    try:
        f = x.to_float()
    except OverflowError:
        f = math.inf
    if not math.isfinite(f):
        raise ValueError("scalar token beyond float range: %r" % text[:40])
    return x


# -- quadratics -------------------------------------------------------------

def solve_quadratic(a0: int, a1: int, a2: int) -> list[Scalar]:
    """Real roots of a0 + a1*x + a2*x^2 = 0 for integers a0, a1, a2,
    exact, ascending.

    Returns [] when there is no real root (or the equation is a nonzero
    constant); raises ValueError when all three coefficients vanish.
    """
    if not (a0 or a1 or a2):
        raise ValueError("all coefficients are zero")
    if not a2:
        if not a1:
            return []
        return [Scalar(-a0, 0, 0, a1)]
    disc = a1 * a1 - 4 * a0 * a2
    if disc < 0:
        return []
    # (-a1 -+ sqrt(disc)) / (2 a2); the constructor takes the square part
    # out of disc
    lo, hi = (Scalar(-a1, s, disc, 2 * a2) for s in (-1, 1))
    if lo == hi:
        return [lo]
    return [lo, hi] if lo < hi else [hi, lo]
