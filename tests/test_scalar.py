"""Exact scalar arithmetic: canonical form, field ops, quadratics, grammar."""

import math
import operator
import random
import time
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from cretan.scalar import (
    FloatLevel,
    IncompatibleRadicands,
    Scalar,
    exact_dtype,
    format_scalar,
    parse_scalar,
    solve_quadratic,
    squarefree_decompose,
)


def quad(p, q, d, r):
    return Scalar(p, q, d, r)


def test_canonical_form_basics():
    # denominators are positive and gcd-reduced
    x = Scalar(2, 0, 0, -4)
    assert (x.p, x.q, x.d, x.r) == (-1, 0, 0, 2)
    # radicand is made squarefree: sqrt(12) = 2 sqrt(3)
    y = Scalar(0, 1, 12, 1)
    assert (y.p, y.q, y.d, y.r) == (0, 2, 3, 1)
    # sqrt(9) collapses to the rational 3
    z = Scalar(1, 1, 9, 2)
    assert (z.p, z.q, z.d, z.r) == (2, 0, 0, 1)
    # zero is unique
    assert Scalar(0, 0, 5, 7) == Scalar(0)


def test_rational_uniqueness_q_zero_iff_d_zero():
    x = quad(1, 0, 7, 3)
    assert x.d == 0 and x.q == 0
    y = quad(0, 3, 0, 2)
    assert y == Scalar(0)


#(3+sqrt(3))/6 * (3-sqrt(3))/6 = (9-3)/36 = 1/6
def test_conjugate_product():
    a = quad(3, 1, 3, 6)
    b = a.conjugate()
    assert a * b == Scalar(1, 0, 0, 6)


#1 + 4*(n-1)/(n-2)^2 at n=9 gives 1 + 32/49 = 81/49
def test_rational_radius_example():
    n = 9
    w = Scalar(1) + Scalar(4 * (n - 1), 0, 0, (n - 2) ** 2)
    assert w == Scalar(81, 0, 0, 49)


#float image of 7 + (3/2) sqrt(3)
def test_to_float():
    w = quad(14, 3, 3, 2)
    assert math.isclose(w.to_float(), 9.598076211353316, rel_tol=0, abs_tol=1e-12)


def test_to_float_past_float_range():
    # integers past float range, with a quotient inside it
    x = Scalar(1, 10 ** 400, 2, 2 * 10 ** 400)
    assert x.to_float() == math.sqrt(2) / 2
    assert Scalar(10 ** 400, 0, 0, 3 * 10 ** 399).to_float() == 10 / 3
    # a quotient past float range still overflows
    with pytest.raises(OverflowError):
        Scalar(10 ** 400).to_float()


def test_to_float_past_float_range_with_cancelling_terms():
    # p and q sqrt(2) past float range with opposite signs: the value,
    # about -0.604, is in range, and so is its conjugate form
    q = 10 ** 400
    p = math.isqrt(2 * q * q)
    for x, want in [(Scalar(p, -q, 2, 1), p - q * sympy.sqrt(2)),
                    (Scalar(-p, q, 2, 3), (q * sympy.sqrt(2) - p) / 3),
                    (Scalar(1, -1, 2, q), (1 - sympy.sqrt(2)) / q)]:
        assert x.to_float() == float(want.evalf(30, maxn=2000))
        assert parse_scalar(format_scalar(x)) == x
    assert math.isclose(Scalar(p, -q, 2, 1).to_float(), -0.60386899970699)


def test_exact_dtype_at_its_bounds():
    assert exact_dtype(0) == exact_dtype(2 ** 24 - 1) == "float32"
    assert exact_dtype(2 ** 24) == exact_dtype(2 ** 53 - 1) == "float64"
    assert exact_dtype(2 ** 53) == exact_dtype(10 ** 400) == "object"
    # the limits are the first integers each float type cannot follow
    for dtype, bound in (("float32", 2 ** 24), ("float64", 2 ** 53)):
        top = np.array([bound - 1, bound], dtype=dtype)
        assert top.astype(object).tolist() == [bound - 1, bound]
        assert np.array(bound + 1, dtype=dtype) == bound


def test_sign_mixed_terms():
    assert quad(3, -1, 3, 6).sign() == 1   # 3 > sqrt(3)
    assert quad(-3, 1, 3, 6).sign() == -1
    assert quad(2, -1, 5, 1).sign() == -1  # 2 < sqrt(5)
    assert quad(-2, 1, 5, 1).sign() == 1
    assert Scalar(0).sign() == 0


def test_abs_le_one():
    assert quad(-3, -1, 3, 6).abs_le_one()      # -(3+sqrt 3)/6 ~ -0.789
    assert not quad(-3, -1, 3, 2).abs_le_one()  # three times that
    assert Scalar(1).abs_le_one()
    assert Scalar(-1).abs_le_one()
    assert not Scalar(-2).abs_le_one()


def test_division_and_inverse():
    a = quad(1, 1, 2, 1)
    assert a / a == Scalar(1)
    assert (Scalar(1) / a) * a == Scalar(1)
    with pytest.raises(ZeroDivisionError):
        a / Scalar(0)


def test_incompatible_radicands():
    a = quad(0, 1, 2, 1)
    b = quad(0, 1, 3, 1)
    with pytest.raises(IncompatibleRadicands):
        a + b
    with pytest.raises(IncompatibleRadicands):
        a * b
    # rationals mix with anything
    assert (Scalar(2) + a) == quad(2, 1, 2, 1)


#roots of 1 + 6b + 6b^2: b = -(3 +- sqrt 3)/6
def test_solve_quadratic_irrational():
    roots = solve_quadratic(1, 6, 6)
    assert roots == [quad(-3, -1, 3, 6), quad(-3, 1, 3, 6)]
    for b in roots:
        assert (Scalar(1) + 6 * b + 6 * b * b).is_zero()


#roots of 3 + 18b + 24b^2: b in {-1/2, -1/4}
def test_solve_quadratic_rational():
    roots = solve_quadratic(3, 18, 24)
    assert roots == [Scalar(-1, 0, 0, 2), Scalar(-1, 0, 0, 4)]


def test_solve_quadratic_degenerate_cases():
    assert solve_quadratic(1, 2, 0) == [Scalar(-1, 0, 0, 2)]
    assert solve_quadratic(1, 0, 1) == []     # negative discriminant
    assert solve_quadratic(5, 0, 0) == []     # nonzero constant
    assert solve_quadratic(0, 0, 1) == [Scalar(0)]
    with pytest.raises(ValueError):
        solve_quadratic(0, 0, 0)


def test_ordering():
    xs = [quad(-3, 1, 3, 6), Scalar(0), quad(-3, -1, 3, 6), Scalar(1)]
    assert sorted(xs) == [quad(-3, -1, 3, 6), quad(-3, 1, 3, 6), Scalar(0), Scalar(1)]


def test_squarefree_decompose():
    assert squarefree_decompose(0) == (1, 0)
    assert squarefree_decompose(1) == (1, 1)
    assert squarefree_decompose(12) == (2, 3)
    assert squarefree_decompose(49) == (7, 1)
    assert squarefree_decompose(2 * 2 * 3 * 3 * 5) == (6, 5)


_primes_below_50 = [p for p in range(2, 50) if sympy.isprime(p)]
_mid_primes = st.integers(50, 3000).map(sympy.nextprime)
_large_primes = st.integers(10 ** 6, 10 ** 7).map(sympy.nextprime)


@st.composite
def radicands_with_large_tails(draw):
    """Products of small and mid-size prime powers times a tail of 1, p,
    p^2 or p*q with p, q up to 10^7: the shapes left once trial division
    stops at f^3 > m."""
    n = 1
    for p, e in draw(st.lists(st.tuples(st.sampled_from(_primes_below_50),
                                        st.integers(1, 4)), max_size=3)):
        n *= p ** e
    for p, e in draw(st.lists(st.tuples(_mid_primes, st.integers(1, 3)),
                              max_size=2)):
        n *= p ** e
    tail = draw(st.sampled_from(["one", "p", "pp", "pq"]))
    p, q = draw(_large_primes), draw(_large_primes)
    return n * {"one": 1, "p": p, "pp": p * p, "pq": p * q}[tail]


@settings(max_examples=150, deadline=None)
@given(radicands_with_large_tails())
def test_squarefree_decompose_matches_factorint(n):
    s, d = 1, 1
    for p, e in sympy.factorint(n).items():
        s *= p ** (e // 2)
        d *= p ** (e % 2)
    assert squarefree_decompose(n) == (s, d)


def test_large_prime_radicand_parses_fast():
    # a Miller-Rabin test, not trial division up to the square root
    d = 100000000000031
    assert sympy.isprime(d)
    x = parse_scalar("(0+1*sqrt(%d))/1" % d)
    assert (x.q, x.d) == (1, d)


def test_sqrt_fraction():
    assert Scalar.sqrt_fraction(Fraction(9, 4)) == Scalar(3, 0, 0, 2)
    s = Scalar.sqrt_fraction(Fraction(1, 2))
    assert s * s == Scalar(1, 0, 0, 2)
    with pytest.raises(ValueError):
        Scalar.sqrt_fraction(Fraction(-1, 4))


small_ints = st.integers(min_value=-30, max_value=30)
radicands = st.sampled_from([0, 2, 3, 5, 6, 7, 10])
nonzero = st.integers(min_value=1, max_value=30)


@st.composite
def scalars(draw, d=None):
    p = draw(small_ints)
    q = draw(small_ints)
    dd = draw(radicands) if d is None else d
    r = draw(nonzero)
    return Scalar(p, q, dd, r)


@given(scalars())
def test_canonicalization_idempotent(x):
    y = Scalar(x.p, x.q, x.d, x.r)
    assert (y.p, y.q, y.d, y.r) == (x.p, x.q, x.d, x.r)


@given(scalars(d=3), scalars(d=3))
def test_field_ops_match_floats(a, b):
    assert math.isclose((a + b).to_float(), a.to_float() + b.to_float(),
                        rel_tol=1e-12, abs_tol=1e-12)
    assert math.isclose((a * b).to_float(), a.to_float() * b.to_float(),
                        rel_tol=1e-12, abs_tol=1e-12)


def test_arithmetic_does_not_factor_radicands(monkeypatch):
    import cretan.scalar as scalar

    d = 100000000000031          # a prime above the trial-division bound
    xs = [Scalar(p, q, dd, r) for dd in (3, 10, d)
          for p, q, r in ((1, 1, 2), (-3, 2, 5), (7, -4, 3), (0, 1, 1))]
    xs += [Scalar(2), Scalar(-5, 0, 0, 3), Scalar(0)]
    calls = []
    real = scalar.squarefree_decompose
    monkeypatch.setattr(scalar, "squarefree_decompose",
                        lambda n: calls.append(n) or real(n))
    results = []
    for a in xs:
        results += [(-a, -_sym(a)), (a.conjugate(), _conj(a))]
        if not a.is_zero():
            results.append((1 / a, 1 / _sym(a)))
        for b in xs:
            if a.q and b.q and a.d != b.d:
                continue
            results += [(a + b, _sym(a) + _sym(b)),
                        (a * b, _sym(a) * _sym(b))]
    assert calls == []
    monkeypatch.undo()
    for x, want in results:
        # canonical, as the public constructor would have built it
        y = Scalar(x.p, x.q, x.d, x.r)
        assert (y.p, y.q, y.d, y.r) == (x.p, x.q, x.d, x.r)
        assert sympy.simplify(_sym(x) - want) == 0


def _sym(x):
    return (sympy.Integer(x.p) + x.q * sympy.sqrt(x.d)) / x.r


def _conj(x):
    return (sympy.Integer(x.p) - x.q * sympy.sqrt(x.d)) / x.r


@given(scalars(d=5), scalars(d=5))
def test_conjugation_distributes(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert a.conjugate().conjugate() == a


@given(scalars())
def test_sign_matches_float(x):
    f = x.to_float()
    if abs(f) > 1e-9:
        assert x.sign() == (1 if f > 0 else -1)


def test_abs_le_one_matches_float_on_random_scalars():
    # 1000 random exact scalars whose magnitude is not borderline
    rng = random.Random(20260825)
    checked = 0
    while checked < 1000:
        x = Scalar(rng.randint(-40, 40), rng.randint(-40, 40),
                   rng.choice([0, 2, 3, 5, 7, 11]), rng.randint(1, 40))
        if abs(abs(x.to_float()) - 1.0) <= 1e-9:
            continue
        assert x.abs_le_one() == (abs(x.to_float()) <= 1.0)
        checked += 1


@given(scalars())
def test_grammar_round_trip(x):
    assert parse_scalar(format_scalar(x)) == x


def test_grammar_forms():
    assert format_scalar(Scalar(5)) == "5"
    assert format_scalar(Scalar(-1, 0, 0, 2)) == "-1/2"
    assert format_scalar(quad(-3, -1, 3, 6)) == "(-3-1*sqrt(3))/6"
    assert format_scalar(FloatLevel(0.25)) == "f0.25"
    assert parse_scalar("(14+3*sqrt(3))/2") == quad(14, 3, 3, 2)
    assert parse_scalar("f1.5").is_float
    for bad in ["fnan", "finf", "f-inf", "f1e999"]:
        with pytest.raises(ValueError, match="non-finite"):
            parse_scalar(bad)
    for bad in ["", "sqrt(3)", "(1+2*sqrt(3))", "1/0", "one"]:
        with pytest.raises((ValueError, ZeroDivisionError)):
            parse_scalar(bad)


def test_grammar_refuses_values_past_float_range():
    big = "1" + "0" * 400
    for bad in [big, "-" + big, big + "/3", "(%s+1*sqrt(2))/1" % big,
                "(0+%s*sqrt(3))/7" % big]:
        with pytest.raises(ValueError, match="beyond float range"):
            parse_scalar(bad)
    # large integers with a quotient in range are fine
    token = "(1+%s*sqrt(2))/2%s" % (big, "0" * 400)
    assert parse_scalar(token) == Scalar(1, 10 ** 400, 2, 2 * 10 ** 400)
    assert parse_scalar(big + "/" + big) == Scalar(1)


def test_grammar_takes_ascii_digits_only():
    # int(), float() and \d also take other Unicode digits and underscores
    for bad in ["\u0661", "-\u0661", "1_0", "1/\u0662", "1/1_0",
                "(1+1*sqrt(\u0663))/1", "(1_0+1*sqrt(3))/1", "f1_0.5",
                "f\u0661.0"]:
        with pytest.raises(ValueError, match="malformed"):
            parse_scalar(bad)


def test_mixed_number_coercion():
    assert Scalar(1, 0, 0, 2) + Fraction(1, 2) == Scalar(1)
    assert 2 * Scalar(1, 0, 0, 2) == Scalar(1)
    assert 1 - Scalar(1, 0, 0, 2) == Scalar(1, 0, 0, 2)
    assert abs(Scalar(-3)) == Scalar(3)


P14 = 100000000000031            # a 15-digit prime


def test_square_leftover_resolves_fast():
    # the leftover after trial division is P14^2: trial division to its
    # cube root (2 * 10^9 steps) never finished
    assert sympy.isprime(P14)
    start = time.perf_counter()
    assert squarefree_decompose(3 * P14 * P14) == (P14, 3)
    assert squarefree_decompose(12 * P14 ** 2 * 5 ** 3) == (10 * P14, 15)
    assert time.perf_counter() - start < 0.5


def test_odd_power_leftover_resolves_fast():
    # a leftover P14^3 or P14^5 is not a square, and rho cannot split it
    # within the budget
    start = time.perf_counter()
    assert squarefree_decompose(2 * P14 ** 3) == (P14, 2 * P14)
    assert squarefree_decompose(5 * P14 ** 5) == (P14 ** 2, 5 * P14)
    assert time.perf_counter() - start < 0.5


def test_unsplittable_leftover_raises_within_budget():
    p = sympy.nextprime(7 * 10 ** 13)
    q = sympy.nextprime(3 * 10 ** 13)
    start = time.perf_counter()
    for n in (p * p * q, 5 * p * q):
        with pytest.raises(ValueError, match="rho"):
            squarefree_decompose(n)
    assert time.perf_counter() - start < 20


_below_1e9 = st.one_of(st.integers(50, 10 ** 5),
                       st.integers(10 ** 8, 10 ** 9)).map(sympy.prevprime)


@st.composite
def radicands_split_by_rho(draw):
    """Products whose prime factors, but the largest, are below 10^9:
    small primes, primes up to 10^9 to the power 1-3, and one prime up
    to 10^30 to a power from 0 to 5."""
    n = 1
    for p, e in draw(st.lists(st.tuples(st.sampled_from(_primes_below_50),
                                        st.integers(1, 3)), max_size=3)):
        n *= p ** e
    for p, e in draw(st.lists(st.tuples(_below_1e9, st.integers(1, 3)),
                              max_size=3)):
        n *= p ** e
    top = sympy.nextprime(draw(st.integers(10 ** 9, 10 ** 30)))
    return n * top ** draw(st.integers(0, 5))


@settings(max_examples=50, deadline=None)
@given(radicands_split_by_rho())
@example(2 * P14 ** 3)
@example(5 * P14 ** 5)
@example(3 * 1009 ** 3 * P14 ** 7)
# a prime below 10^9 to the 9th power: one rho search, not nine
@example(5011096241 * 678331631 ** 9)
def test_squarefree_decompose_matches_factorint_past_trial_division(n):
    s, d = 1, 1
    for p, e in sympy.factorint(n).items():
        s *= p ** (e // 2)
        d *= p ** (e % 2)
    assert squarefree_decompose(n) == (s, d)


def test_bools_are_stored_as_ints():
    xs = [Scalar(True), Scalar(False), Scalar(1, 0, 0, True),
          Scalar(3, True, 2, 4), Scalar(2) * True, True * Scalar(2),
          Scalar(-1, 0, 0, 3) + True, True - Scalar(1, 0, 0, 3),
          Scalar(1, 1, 5, 2) - True, Scalar(5, 0, 0, 2) / True,
          True / Scalar(1, 0, 0, 2), Scalar(0, 1, 3, 1) * False]
    for x in xs:
        assert all(type(v) is int for v in (x.p, x.q, x.d, x.r)), repr(x)
        assert parse_scalar(format_scalar(x)) == x
    assert format_scalar(Scalar(True)) == "1"
    assert format_scalar(Scalar(1, 0, 0, True)) == "1"
    assert format_scalar(Scalar(2) * True) == "2"
    assert Scalar(True) == 1 == Scalar(1) and hash(Scalar(True)) == hash(1)


# -- the integer kernel against sympy's quadratic fields ----------------------
#
# Q(sqrt d) is sympy's AlgebraicField: an element is built from its two
# rational coordinates and every operation is sympy's, so a wrong value,
# a sign slip or a result left unreduced shows up as a mismatch.

KERNEL_RADICANDS = (2, 3, 5, 6)
_FIELDS = {d: sympy.QQ.algebraic_field(sympy.sqrt(d))
           for d in KERNEL_RADICANDS}


def _elem(K, y):
    """y (a Scalar, an int or a Fraction) as an element of K."""
    if isinstance(y, Scalar):
        return K([sympy.Rational(y.q, y.r), sympy.Rational(y.p, y.r)])
    y = Fraction(y)
    return K([sympy.Rational(y.numerator, y.denominator)])


def _assert_canonical(x):
    assert all(type(v) is int for v in (x.p, x.q, x.d, x.r)), repr(x)
    assert x.f is None and x.r > 0
    assert (x.q == 0) == (x.d == 0)
    assert math.gcd(x.p, x.q, x.r) == 1
    y = Scalar(x.p, x.q, x.d, x.r)
    assert (y.p, y.q, y.d, y.r) == (x.p, x.q, x.d, x.r)


@st.composite
def field_scalars(draw, d):
    """(p + q sqrt d)/r, rational about one time in three."""
    q = draw(st.one_of(st.just(0), st.integers(-10 ** 6, 10 ** 6),
                       st.integers(-40, 40)))
    return Scalar(draw(st.integers(-10 ** 6, 10 ** 6) | st.integers(-40, 40)),
                  q, d, draw(st.integers(1, 10 ** 4) | st.integers(1, 12)))


@st.composite
def kernel_cases(draw):
    d = draw(st.sampled_from(KERNEL_RADICANDS))
    x = draw(field_scalars(d))
    y = draw(st.one_of(field_scalars(d), st.integers(-50, 50),
                       st.builds(Fraction, st.integers(-50, 50),
                                 st.integers(1, 50))))
    return d, x, y


@settings(max_examples=300, deadline=None)
@given(kernel_cases())
@example((3, Scalar(-3, 1, 3, 6), 1))
@example((2, Scalar(1, -1, 2, 1), -1))
@example((5, Scalar(0), Fraction(1, 2)))
def test_kernel_matches_sympy_field(case):
    d, x, y = case
    K = _FIELDS[d]
    ex, ey = _elem(K, x), _elem(K, y)
    assert K.to_sympy(K([1, 0])) == sympy.sqrt(d)
    results = [(x + y, ex + ey), (y + x, ex + ey), (x - y, ex - ey),
               (y - x, ey - ex), (x * y, ex * ey), (y * x, ex * ey),
               (-x, -ex)]
    if y != 0:
        results.append((x / y, ex / ey))
    if x != 0:
        results.append((y / x, ey / ex))
    for got, want in results:
        _assert_canonical(got)
        assert _elem(K, got) == want, (x, y, got)
    sx, sy = K.to_sympy(ex), K.to_sympy(ey)
    assert x.sign() == sympy.sign(sx)
    assert x.abs_le_one() == bool(sympy.Abs(sx) <= 1)
    assert (x < y) == bool(sx < sy) and (x <= y) == bool(sx <= sy)
    assert (x > y) == bool(sx > sy) and (x >= y) == bool(sx >= sy)
    assert (x == y) == (ex == ey) and (y == x) == (ex == ey)
    if x == y:
        assert hash(x) == hash(y)


@settings(max_examples=300, deadline=None)
@given(st.integers(-10 ** 20, 10 ** 20),
       st.integers(1, 10 ** 20) | st.sampled_from([1, 2, 2 ** 61 - 1,
                                                    3 * (2 ** 61 - 1)]))
# a numerator past the hash modulus 2^61 - 1, and a denominator that is a
# multiple of it (no inverse)
@example(2 ** 64 + 1, 3)
@example(-(2 ** 62) - 1, 7)
@example(5, 2 ** 61 - 1)
def test_rationals_hash_like_fractions(p, r):
    x = Scalar(p, 0, 0, r)
    fr = Fraction(p, r)
    assert hash(x) == hash(fr)
    assert x == fr and fr == x
    if fr.denominator == 1:
        assert hash(x) == hash(fr.numerator) and x == fr.numerator


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([(2, 3), (3, 5), (5, 2), (6, 3)]),
       st.integers(-30, 30), st.integers(1, 30),
       st.integers(-30, 30), st.integers(1, 30),
       st.integers(1, 20), st.integers(1, 20))
def test_mixed_radicands_raise(ds, p1, q1, p2, q2, r1, r2):
    x, y = Scalar(p1, q1, ds[0], r1), Scalar(p2, q2, ds[1], r2)
    msg = r"sqrt\(%d\) and sqrt\(%d\) do not mix"
    for a, b in ((x, y), (y, x)):
        for op in (lambda u, v: u + v, lambda u, v: u - v,
                   lambda u, v: u * v, lambda u, v: u / v,
                   lambda u, v: u < v, lambda u, v: u >= v):
            with pytest.raises(IncompatibleRadicands,
                               match=msg % (a.d, b.d)):
                op(a, b)
    # a rational mixes with either field
    assert (x + Scalar(1, 0, 0, 2)).d == x.d
    assert (Scalar(3) * y).d == y.d


def test_float_level_equals_no_scalar():
    assert FloatLevel(1.0) != Scalar(1) and Scalar(1) != FloatLevel(1.0)
    assert FloatLevel(0.0) != Scalar(0)
    assert FloatLevel(0.5) == FloatLevel(0.5)
    assert len({FloatLevel(1.0), Scalar(1), 1}) == 2
    assert Scalar.f is None and not Scalar(1).is_float
    x = FloatLevel(-0.75)
    assert x.is_float and not x.is_rational and x.to_float() == -0.75
    assert x.abs_le_one() and not FloatLevel(1.5).abs_le_one()
    assert format_scalar(x) == "f-0.75"
    assert parse_scalar("f-0.75") == x


@pytest.mark.parametrize("other", [Scalar(2), Scalar(-3, 1, 3, 6), 2,
                                   Fraction(1, 3), 0.5, FloatLevel(0.5)],
                         ids=repr)
def test_float_level_takes_no_arithmetic(other):
    # a float operand never turns exact arithmetic into float
    x = FloatLevel(0.25)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        for left, right in ((x, other), (other, x)):
            with pytest.raises(TypeError):
                op(left, right)
        if isinstance(other, Scalar):
            with pytest.raises(TypeError):
                op(other, 0.5)
            with pytest.raises(TypeError):
                op(0.5, other)
