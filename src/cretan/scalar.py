"""Exact scalars in Q and in real quadratic fields Q(sqrt(d)).

An exact scalar is stored as (p + q*sqrt(d)) / r with integers p, q, r and
a squarefree radicand d.  Canonical form: r > 0, gcd(p, q, r) = 1, d
squarefree, and q = 0 if and only if d = 0.  Rationals therefore always
have d = 0 and compare equal regardless of how they were produced.

Mixed-radicand sums (sqrt(2) + sqrt(3)) are refused rather than modelled:
no construction in this package needs a field tower.  A float fallback
mode exists for matrices whose levels are only known numerically; any
arithmetic touching a float scalar yields a float scalar.

Tolerances used across the package are defined once, here.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction

# Absolute tolerance for float-mode verification (Gram residuals, radius).
VERIFY_TOL = 1e-9
# Tolerance for root refinement and float boundary comparisons.
REFINE_TOL = 1e-12

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


class Scalar:
    """A number that is either exact ((p + q*sqrt(d))/r) or a float.

    Exact scalars support field operations as long as radicands agree;
    floats poison every operation they take part in.
    """

    __slots__ = ("p", "q", "r", "d", "f")

    def __init__(self, p: int, q: int = 0, d: int = 0, r: int = 1):
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
        self._normalize(p, q, d, r)

    def _normalize(self, p: int, q: int, d: int, r: int) -> None:
        """Store (p + q sqrt d)/r in canonical form, for r != 0 and a d
        that is 0 or squarefree and not 1."""
        if q == 0:
            d = 0
        if r < 0:
            p, q, r = -p, -q, -r
        # zero comes out as 0/1: then g = r
        g = math.gcd(math.gcd(abs(p), abs(q)), r)
        if g > 1:
            p, q, r = p // g, q // g, r // g
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "f", None)

    @classmethod
    def _exact(cls, p: int, q: int, d: int, r: int) -> "Scalar":
        """An arithmetic result over an operand's radicand d, which is
        already squarefree: no radicand factoring, unlike __init__."""
        obj = cls.__new__(cls)
        obj._normalize(p, q, d, r)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_float(cls, x: float) -> "Scalar":
        obj = cls.__new__(cls)
        object.__setattr__(obj, "p", 0)
        object.__setattr__(obj, "q", 0)
        object.__setattr__(obj, "d", 0)
        object.__setattr__(obj, "r", 1)
        object.__setattr__(obj, "f", float(x))
        return obj

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
    def is_float(self) -> bool:
        return self.f is not None

    @property
    def is_rational(self) -> bool:
        return self.f is None and self.q == 0

    def is_zero(self) -> bool:
        if self.is_float:
            return self.f == 0.0
        return self.p == 0 and self.q == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError("not an exact rational: %r" % (self,))
        return Fraction(self.p, self.r)

    def to_float(self) -> float:
        if self.is_float:
            return self.f
        return (self.p + self.q * math.sqrt(self.d)) / self.r

    def sign(self) -> int:
        """Exact sign (-1, 0, 1); floats fall back to IEEE comparison."""
        if self.is_float:
            return (self.f > 0) - (self.f < 0)
        p, q = self.p, self.q
        if q == 0:
            return (p > 0) - (p < 0)
        if p == 0:
            return 1 if q > 0 else -1
        if p > 0 and q > 0:
            return 1
        if p < 0 and q < 0:
            return -1
        # opposite signs: compare p^2 against q^2 d
        t = p * p - q * q * self.d
        big = (t > 0) - (t < 0)
        return big if p > 0 else -big

    def abs_le_one(self) -> bool:
        """Whether |x| <= 1, exactly when possible."""
        if self.is_float:
            return abs(self.f) <= 1.0 + REFINE_TOL
        return (_ONE - self).sign() >= 0 and (_ONE + self).sign() >= 0

    def conjugate(self) -> "Scalar":
        """Galois conjugate: sqrt(d) -> -sqrt(d).  Floats are unchanged."""
        if self.is_float:
            return self
        return Scalar._exact(self.p, -self.q, self.d, self.r)

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "Scalar":
        if isinstance(x, Scalar):
            return x
        if isinstance(x, int):
            return Scalar(x)
        if isinstance(x, Fraction):
            return Scalar.from_fraction(x)
        if isinstance(x, float):
            return Scalar.from_float(x)
        return NotImplemented

    def _common_radicand(self, other: "Scalar") -> int:
        if self.q == 0:
            return other.d
        if other.q == 0:
            return self.d
        if self.d != other.d:
            raise IncompatibleRadicands(
                "sqrt(%d) and sqrt(%d) do not mix" % (self.d, other.d)
            )
        return self.d

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_float or other.is_float:
            return Scalar.from_float(self.to_float() + other.to_float())
        d = self._common_radicand(other)
        return Scalar._exact(
            self.p * other.r + other.p * self.r,
            self.q * other.r + other.q * self.r,
            d,
            self.r * other.r,
        )

    __radd__ = __add__

    def __neg__(self):
        if self.is_float:
            return Scalar.from_float(-self.f)
        return Scalar._exact(-self.p, -self.q, self.d, self.r)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_float or other.is_float:
            return Scalar.from_float(self.to_float() * other.to_float())
        d = self._common_radicand(other)
        p = self.p * other.p + self.q * other.q * d
        q = self.p * other.q + self.q * other.p
        return Scalar._exact(p, q, d, self.r * other.r)

    __rmul__ = __mul__

    def _inverse(self) -> "Scalar":
        if self.is_float:
            return Scalar.from_float(1.0 / self.f)
        if self.is_zero():
            raise ZeroDivisionError("division by zero scalar")
        # 1/((p+q sqrt d)/r) = r (p - q sqrt d) / (p^2 - q^2 d)
        norm = self.p * self.p - self.q * self.q * self.d
        return Scalar._exact(self.p * self.r, -self.q * self.r, self.d,
                             norm)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_float or self.is_float:
            return Scalar.from_float(self.to_float() / other.to_float())
        return self * other._inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self._inverse()

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # -- comparison and hashing -------------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_float or other.is_float:
            return self.to_float() == other.to_float()
        return (self.p, self.q, self.d, self.r) == (
            other.p,
            other.q,
            other.d,
            other.r,
        )

    def __hash__(self):
        if self.is_float:
            return hash(self.f)
        if self.q == 0:
            # match hash(Fraction) so rational scalars hash like numbers
            return hash(Fraction(self.p, self.r))
        return hash((self.p, self.q, self.d, self.r))

    def _cmp_sign(self, other) -> int:
        other = self._coerce(other)
        if other is NotImplemented:
            raise TypeError("cannot compare Scalar with that type")
        return (self - other).sign()

    def __lt__(self, other):
        return self._cmp_sign(other) < 0

    def __le__(self, other):
        return self._cmp_sign(other) <= 0

    def __gt__(self, other):
        return self._cmp_sign(other) > 0

    def __ge__(self, other):
        return self._cmp_sign(other) >= 0

    def __repr__(self):
        return "Scalar(%s)" % format_scalar(self)

    def __str__(self):
        return format_scalar(self)


_ONE = Scalar(1)
ZERO = Scalar(0)
ONE = _ONE


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


def format_scalar(x: Scalar) -> str:
    """Render a scalar in the one-token text grammar used by matrix files."""
    if x.is_float:
        return "f" + repr(x.f)
    if x.q == 0:
        return str(x.p) if x.r == 1 else "%d/%d" % (x.p, x.r)
    sgn = "+" if x.q > 0 else "-"
    return "(%d%s%d*sqrt(%d))/%d" % (x.p, sgn, abs(x.q), x.d, x.r)


def parse_scalar(text: str) -> Scalar:
    """Inverse of format_scalar.  Raises ValueError on malformed tokens."""
    text = text.strip()
    if text.startswith("f"):
        x = parse_float(text[1:])
        if not math.isfinite(x):
            raise ValueError("non-finite float token: %r" % text)
        return Scalar.from_float(x)
    m = _QUAD_RE.fullmatch(text)
    if m:
        p, sgn, q, d, r = m.groups()
        qv = int(q) if sgn == "+" else -int(q)
        return Scalar(int(p), qv, int(d), int(r))
    m = _RAT_RE.fullmatch(text)
    if m:
        return Scalar(int(m.group(1)), 0, 0, int(m.group(2)))
    if _INT_RE.fullmatch(text):
        return Scalar(int(text))
    raise ValueError("malformed scalar token: %r" % text)


# -- quadratics -------------------------------------------------------------

def solve_quadratic(c0, c1, c2) -> list[Scalar]:
    """Real roots of c0 + c1*x + c2*x^2 = 0, exact, ascending.

    Coefficients must be exact rationals.  Returns [] when there is no
    real root (or the equation is a nonzero constant); raises ValueError
    when all three coefficients vanish.
    """
    a0, a1, a2 = (Scalar._coerce(c).as_fraction() for c in (c0, c1, c2))
    if a0 == a1 == a2 == 0:
        raise ValueError("all coefficients are zero")
    if a2 == 0:
        if a1 == 0:
            return []
        return [Scalar.from_fraction(-a0 / a1)]
    disc = a1 * a1 - 4 * a0 * a2
    if disc < 0:
        return []
    root = Scalar.sqrt_fraction(disc)
    two_a2 = Scalar.from_fraction(2 * a2)
    lo = (-Scalar.from_fraction(a1) - root) / two_a2
    hi = (-Scalar.from_fraction(a1) + root) / two_a2
    if lo == hi:
        return [lo]
    return [lo, hi] if lo < hi else [hi, lo]
