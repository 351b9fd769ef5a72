"""Finite field construction: moduli, generators, traces, characters.

An element is its integer code; the tables are checked against
polynomial arithmetic on coefficient tuples read from `spec.digits`."""

from types import SimpleNamespace

import numpy as np
import pytest
import sympy

from cretan.fields import (
    factor_prime_power,
    is_prime,
    is_prime_power,
    make_field,
    prime_factors,
    relative_trace,
    trace_of_powers,
    trace_to_prime,
    _is_irreducible,
    _powers,
    _times_x,
)
from cretan.scalar import is_probable_prime


def coeffs(f, c) -> tuple:
    """Coefficient tuple of code c, constant term first."""
    return tuple(f.digits[c].tolist())


def code_of(f, a) -> int:
    """Code of the coefficient tuple a."""
    return sum(x * f.p ** i for i, x in enumerate(a))


def quadratic_character(a: int, p: int) -> int:
    """Oracle: the Legendre symbol of a mod an odd prime p, in
    {-1, 0, 1}, by Euler's criterion."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def quadratic_character_code(f, c) -> int:
    """Oracle: square / nonsquare indicator of code c in GF(q), q odd, by
    the parity of the generator log.  The Paley oracle in test_hadamard
    uses it."""
    if not c:
        return 0
    return 1 if f.logs[c] % 2 == 0 else -1


def test_prime_helpers():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert prime_factors(360) == [2, 3, 5]
    assert factor_prime_power(243) == (3, 5)
    with pytest.raises(ValueError):
        factor_prime_power(12)


def test_is_prime_matches_sympy():
    want = [n for n in range(10 ** 5) if sympy.isprime(n)]
    assert [n for n in range(10 ** 5) if is_prime(n)] == want
    assert [n for n in range(10 ** 5) if is_probable_prime(n)] == want


#the least-index monic irreducible of degree 3 over GF(2) is
# x^3 + x + 1 (index 3 = binary 011 read as c0=1, c1=1, c2=0)
def test_gf8_modulus():
    f = make_field(2, 3)
    assert f.modulus == (1, 1, 0, 1)
    assert f.order == 8


#over GF(3) the least irreducible quadratic is x^2 + 1 (index 1)
# and the least primitive element is x + 1 (index 4), of order 8
def test_gf9_modulus_and_generator():
    f = make_field(3, 2)
    assert f.modulus == (1, 0, 1)
    assert f.generator == (1, 1)
    assert f.codes[1] == code_of(f, f.generator) == 4
    seen = set()
    acc = one = (1, 0)
    for _ in range(8):
        seen.add(acc)
        acc = poly_mul(f, acc, f.generator)
    assert len(seen) == 8
    assert acc == one
    assert sorted(code_of(f, a) for a in seen) == sorted(f.codes.tolist())


def test_prime_field_is_plain_modular_arithmetic():
    # codes are the residues mod 7, so the log tables multiply mod 7
    f = make_field(7, 1)
    log = f.logs
    assert f.codes[(log[3] + log[6]) % 6] == 4
    assert f.codes[6 * log[3] % 6] == 1
    assert f.codes[-log[3] % 6] == 5  # 3*5 = 15 = 1 mod 7
    assert all(f.codes[(log[a] + log[b]) % 6] == a * b % 7
               for a in range(1, 7) for b in range(1, 7))


def test_every_nonzero_element_invertible():
    # the inverse of g^i is g^(-i): its polynomial product with x is 1
    f = make_field(2, 4)
    one = coeffs(f, 1)
    for c in range(1, f.order):
        inv = f.codes[-f.logs[c] % (f.order - 1)]
        assert poly_mul(f, coeffs(f, c), coeffs(f, inv)) == one


# GF(2) and GF(3) have exp tables of length 1 and 2, so a sum of logs
# must be reduced mod p^k - 1 before it indexes them
@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 2)])
def test_log_exp_round_trip(p, k):
    f = make_field(p, k)
    codes, log, m = f.codes.tolist(), f.logs.tolist(), f.order - 1
    assert coeffs(f, codes[1 % m]) == f.generator
    one = acc = coeffs(f, 1)
    for i in range(m):
        assert coeffs(f, codes[i]) == acc
        assert log[codes[i]] == i
        acc = poly_mul(f, acc, f.generator)
    assert acc == one
    assert all(codes[log[c]] == c for c in range(1, f.order))
    for c in range(1, f.order):
        x = coeffs(f, c)
        assert coeffs(f, codes[5 * log[c] % m]) == poly_pow(f, x, 5)
        assert poly_mul(f, x, coeffs(f, codes[-log[c] % m])) == one


def test_absolute_trace_is_additive_and_balanced():
    f = make_field(2, 3)
    traces = [trace_to_prime(f, c) for c in range(f.order)]
    # trace is onto GF(p) and balanced: p^(k-1) preimages per value
    assert traces.count(0) == 4 and traces.count(1) == 4
    # codes add digitwise mod p
    sums = (f.digits[:, None] + f.digits[None, :]) % 2 @ 2 ** np.arange(3)
    for a in range(8):
        for b in range(8):
            assert trace_to_prime(f, int(sums[a, b])) == \
                (traces[a] + traces[b]) % 2


def test_relative_trace_lands_in_subfield():
    f = make_field(2, 6)
    for c in range(0, f.order, 7):
        y = relative_trace(f, c, 2)
        # members of GF(4) inside GF(64) satisfy y^4 = y
        assert y == 0 or 4 * f.logs[y] % 63 == f.logs[y]
    # j must be a positive divisor of k = 6
    for j in (4, 0, -1):
        with pytest.raises(ValueError, match="not a subfield"):
            relative_trace(f, 1, j)
        with pytest.raises(ValueError, match="not a subfield"):
            relative_trace(f, 0, j)
        with pytest.raises(ValueError, match="not a subfield"):
            trace_of_powers(f, [1], j)


def test_quadratic_character_prime():
    # squares mod 13: 1, 3, 4, 9, 10, 12
    sq = {i * i % 13 for i in range(1, 13)}
    for a in range(1, 13):
        assert quadratic_character(a, 13) == (1 if a in sq else -1)
    assert quadratic_character(0, 13) == 0
    assert quadratic_character(26, 13) == 0


def test_quadratic_character_elem_matches_prime_case():
    f = make_field(13, 1)
    for a in range(13):
        assert quadratic_character_code(f, a) == quadratic_character(a, 13)


def test_character_multiplicative_in_gf9():
    f = make_field(3, 2)
    chi = [quadratic_character_code(f, c) for c in range(9)]
    for a in range(1, 9):
        for b in range(1, 9):
            ab = code_of(f, poly_mul(f, coeffs(f, a), coeffs(f, b)))
            assert chi[ab] == chi[a] * chi[b]


def test_make_field_rejects_bad_input():
    with pytest.raises(ValueError):
        make_field(6, 1)
    with pytest.raises(ValueError):
        make_field(2, 0)
    with pytest.raises(ValueError):
        make_field(2, 11)
    with pytest.raises(ValueError):
        make_field(101, 3)  # 101^3 > 10^6


def test_determinism_and_cache():
    a = make_field(3, 2)
    b = make_field(3, 2)
    assert a is b


def test_frobenius_fixes_prime_subfield():
    # x^3 is g^(3 log x): the constants are fixed, and the generator's
    # image is its polynomial cube
    f = make_field(3, 4)
    for c in (1, 2):
        assert f.codes[3 * f.logs[c] % 80] == c
    assert coeffs(f, f.codes[3]) == poly_frobenius(f, f.generator)


# -- table kernels against polynomial arithmetic ------------------------------

ORACLE_FIELDS = [(2, 4), (3, 3), (5, 2), (7, 2)]


def poly_mul(f, a, b) -> tuple:
    """Schoolbook product of coefficient tuples a and b reduced by the
    (monic) modulus of f: no exp/log table involved."""
    p, k, m = f.p, f.k, f.modulus
    out = [0] * (2 * k - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    for top in range(2 * k - 2, k - 1, -1):
        c = out[top]
        for i, mi in enumerate(m):
            out[top - k + i] = (out[top - k + i] - c * mi) % p
    return tuple(out[:k])


def poly_pow(f, a, e) -> tuple:
    """a^e by squaring with polynomial products only."""
    result = (1,) + (0,) * (f.k - 1)
    while e:
        if e & 1:
            result = poly_mul(f, result, a)
        a = poly_mul(f, a, a)
        e >>= 1
    return result


def poly_frobenius(f, a) -> tuple:
    return poly_pow(f, a, f.p)


def poly_conjugates(f, a) -> list:
    """a^(p^t) for t < k, by polynomial products."""
    conj = [a]
    for _ in range(f.k - 1):
        conj.append(poly_frobenius(f, conj[-1]))
    return conj


def poly_trace(f, a) -> int:
    total = [sum(col) % f.p for col in zip(*poly_conjugates(f, a))]
    assert not any(total[1:])
    return total[0]


@pytest.mark.parametrize("p,k", ORACLE_FIELDS)
def test_table_product_matches_polynomial_product(p, k):
    # codes[(log a + log b) % (q - 1)] for every pair of nonzero codes
    f = make_field(p, k)
    n, log = f.order, f.logs
    for a in range(1, n):
        for b in range(1, n):
            want = code_of(f, poly_mul(f, coeffs(f, a), coeffs(f, b)))
            assert f.codes[(log[a] + log[b]) % (n - 1)] == want


@pytest.mark.parametrize("p,k", ORACLE_FIELDS)
def test_table_frobenius_and_trace_match_direct_sums(p, k):
    f = make_field(p, k)
    for c in range(f.order):
        x = coeffs(f, c)
        if c:
            assert coeffs(f, f.codes[p * f.logs[c] % (f.order - 1)]) == \
                poly_frobenius(f, x)
        assert trace_to_prime(f, c) == poly_trace(f, x)
        # the trace down to GF(p^j) sums every j-th conjugate, digitwise
        # mod p
        conj = poly_conjugates(f, x)
        for j in range(1, k + 1):
            if k % j == 0:
                want = tuple(sum(col) % p for col in zip(*conj[::j]))
                got = relative_trace(f, c, j)
                assert coeffs(f, got) == want, (c, j)


def test_trace_table_is_built_on_first_use():
    # GF(2^9) serves the Singer designs, which never take an absolute
    # trace, so make_field must not pay for a trace table
    f = make_field(2, 9)
    assert "_traces" not in vars(f)
    assert trace_to_prime(f, 300) == poly_trace(f, coeffs(f, 300))
    assert len(vars(f)["_traces"]) == f.order


# -- the polynomial table builder, kept as the oracle for make_field ----------

def oracle_modulus(p, k):
    """Least monic irreducible of degree k by coefficient index, tested
    by sympy; (0, 1) for a prime field, as make_field documents."""
    if k == 1:
        return (0, 1)
    x = sympy.Symbol("x")
    for j in range(p ** k):
        cs = [j // p ** i % p for i in range(k)] + [1]
        if sympy.Poly(cs[::-1], x, modulus=p).is_irreducible:
            return tuple(cs)


def poly_tables(p, k):
    """(modulus, generator, exp) as the polynomial builder makes them: the
    generator is the first code g with g^((n-1)/f) != 1 for every prime
    f | n - 1, and the exp table is the walk 1, g, g g, ... of products,
    as coefficient tuples."""
    spec = SimpleNamespace(p=p, k=k, modulus=oracle_modulus(p, k))
    n = p ** k
    one = (1,) + (0,) * (k - 1)
    factors = sympy.primefactors(n - 1)
    tuples = (tuple(j // p ** i % p for i in range(k)) for j in range(1, n))
    g = next(x for x in tuples
             if all(poly_pow(spec, x, (n - 1) // f) != one for f in factors))
    exp, acc = [], one
    for _ in range(n - 1):
        exp.append(acc)
        acc = poly_mul(spec, acc, g)
    assert acc == one
    return spec.modulus, g, exp


FIELDS_TO_1024 = [(p, k) for p in sympy.primerange(2, 1025)
                  for k in range(1, 11) if p ** k <= 1024]


def test_make_field_matches_polynomial_builder():
    for p, k in FIELDS_TO_1024:
        f = make_field(p, k)
        modulus, generator, exp = poly_tables(p, k)
        assert f.modulus == modulus, (p, k)
        assert f.generator == generator, (p, k)
        assert [coeffs(f, c) for c in f.codes] == exp, (p, k)
        assert f.logs.dtype == np.int64 and len(f.logs) == f.order, (p, k)
        assert f.logs[0] == 0, (p, k)
        assert f.logs[f.codes].tolist() == list(range(len(exp))), (p, k)
        assert all(type(c) is int for c in f.generator), (p, k)


def test_table_irreducibility_matches_sympy():
    # every monic candidate of every degree, roots or not, so squareful
    # ones such as (x^2 + x + 1)^2 over GF(2) and rootless products of two
    # irreducibles such as (x^3 + x + 1)(x^5 + x^2 + 1) over GF(2) are
    # among them
    x = sympy.Symbol("x")
    for p, k in FIELDS_TO_1024:
        if p ** k > 256:
            continue
        pw = p ** np.arange(k, dtype=np.int64)
        digits = (np.arange(p ** k, dtype=np.int64)[:, None] // pw) % p
        for cs in digits:
            m = sympy.Poly([1] + cs.tolist()[::-1], x, modulus=p)
            times_x = _times_x(cs, digits, pw, p)
            got = _is_irreducible(times_x, _powers(times_x, p ** k + 1),
                                  digits, pw, p)
            assert got == m.is_irreducible, (p, k, cs.tolist())


def test_trace_table_matches_direct_sums_up_to_1000():
    for q in range(2, 1001):
        if is_prime_power(q):
            f = make_field(*factor_prime_power(q))
            for c in range(q):
                assert trace_to_prime(f, c) == \
                    poly_trace(f, coeffs(f, c)), (q, c)


def test_prime_fields_to_20000_match_sympy():
    # GF(p): modulus x, generator the least primitive root and exp table
    # its powers mod p, for every p to 20000; below 2000 also the log
    # table and the trace, which is the identity.  The uncached builder
    # keeps memory flat.
    for p in sympy.primerange(2, 20001):
        f = make_field.__wrapped__(p, 1)
        # sympy's primitive_root(p) is the least one
        g = sympy.primitive_root(p) if p > 2 else 1
        assert f.modulus == (0, 1) and f.generator == (g,), p
        assert all(type(c) is int for c in f.modulus + f.generator), p
        codes = f.codes
        assert codes.dtype == np.int64 and len(codes) == p - 1, p
        assert codes[0] == 1 and (codes[1:] == codes[:-1] * g % p).all(), p
        if p < 2000:
            assert f.logs[0] == 0 and (
                f.logs[codes] == np.arange(p - 1)).all(), p
            assert [trace_to_prime(f, c) for c in range(p)] \
                == list(range(p)), p
