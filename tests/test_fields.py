"""Finite field construction: moduli, generators, traces, characters."""

import numpy as np
import pytest
import sympy

from cretan.fields import (
    FieldElem,
    FieldSpec,
    factor_prime_power,
    is_prime,
    is_prime_power,
    make_field,
    prime_factors,
    quadratic_character,
    relative_trace,
    trace_of_powers,
    trace_to_prime,
    _is_irreducible,
    _powers,
    _times_x,
)
from cretan.scalar import is_probable_prime


def quadratic_character_elem(x: FieldElem) -> int:
    """Oracle: square / nonsquare indicator in GF(q), q odd, by the parity
    of the generator log.  The Paley oracle in test_hadamard uses it."""
    if x.is_zero():
        return 0
    return 1 if x.spec.log(x) % 2 == 0 else -1


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
    g = f.gen()
    seen = set()
    acc = f.one()
    for _ in range(8):
        seen.add(acc.coeffs)
        acc = acc * g
    assert len(seen) == 8
    assert acc == f.one()


def test_prime_field_is_plain_modular_arithmetic():
    f = make_field(7, 1)
    a, b = f.from_int(3), f.from_int(6)
    assert (a * b).to_int() == 4
    assert (a + b).to_int() == 2
    assert (a ** 6).to_int() == 1
    assert a.inverse().to_int() == 5  # 3*5 = 15 = 1 mod 7


def test_every_nonzero_element_invertible():
    f = make_field(2, 4)
    for x in f.elements():
        if x.is_zero():
            with pytest.raises(ZeroDivisionError):
                x.inverse()
        else:
            assert x * x.inverse() == f.one()


# GF(2) and GF(3) have exp tables of length 1 and 2, so an index that
# is not reduced mod p^k - 1 falls off them
@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 2)])
def test_log_exp_round_trip(p, k):
    f = make_field(p, k)
    g, one, m = f.gen(), f.one(), f.order - 1
    assert g.coeffs == f.generator
    acc = one
    for i in range(m):
        assert f.exp(i) == f.exp(i + m) == f.exp(i - m) == acc
        assert f.log(acc) == i
        acc = poly_mul(acc, g)
    assert acc == one
    for x in f.elements():
        assert x ** 0 == one
        assert all(x * y == poly_mul(x, y) for y in f.elements())
        if x.is_zero():
            assert x ** 3 == x
            for bad in (lambda: f.log(x), lambda: x ** -1, x.inverse):
                with pytest.raises(ZeroDivisionError):
                    bad()
            continue
        assert f.exp(f.log(x)) == x
        assert x ** 5 == poly_pow(x, 5)
        assert poly_mul(x, x.inverse()) == one
        assert poly_mul(x ** -2, poly_mul(x, x)) == one


def test_absolute_trace_is_additive_and_balanced():
    f = make_field(2, 3)
    elems = f.elements()
    traces = [trace_to_prime(x) for x in elems]
    # trace is onto GF(p) and balanced: p^(k-1) preimages per value
    assert traces.count(0) == 4 and traces.count(1) == 4
    for x in elems:
        for y in elems:
            assert trace_to_prime(x + y) == (trace_to_prime(x)
                                             + trace_to_prime(y)) % 2


def test_relative_trace_lands_in_subfield():
    f = make_field(2, 6)
    for j in range(0, f.order, 7):
        y = relative_trace(f.from_int(j), 2)
        # members of GF(4) inside GF(64) satisfy y^4 = y
        assert y ** 4 == y or y.is_zero()
    # j must be a positive divisor of k = 6
    for j in (4, 0, -1):
        with pytest.raises(ValueError, match="not a subfield"):
            relative_trace(f.from_int(1), j)
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
    for a in range(1, 13):
        assert quadratic_character_elem(f.from_int(a)) == \
            quadratic_character(a, 13)
    assert quadratic_character_elem(f.zero()) == 0


def test_character_multiplicative_in_gf9():
    f = make_field(3, 2)
    xs = [x for x in f.elements() if not x.is_zero()]
    for x in xs:
        for y in xs:
            assert quadratic_character_elem(x * y) == \
                quadratic_character_elem(x) * quadratic_character_elem(y)


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
    f = make_field(3, 4)
    for c in range(3):
        x = f.from_int(c)
        assert x.frobenius() == x
    g = f.gen()
    assert g.frobenius() == g ** 3


# -- table kernels against polynomial arithmetic ------------------------------

ORACLE_FIELDS = [(2, 4), (3, 3), (5, 2), (7, 2)]


def poly_mul(x, y):
    """Schoolbook product of coefficient tuples reduced by the (monic)
    modulus: no exp/log table involved."""
    spec = x.spec
    p, k, m = spec.p, spec.k, spec.modulus
    out = [0] * (2 * k - 1)
    for i, a in enumerate(x.coeffs):
        for j, b in enumerate(y.coeffs):
            out[i + j] = (out[i + j] + a * b) % p
    for top in range(2 * k - 2, k - 1, -1):
        c = out[top]
        for i, mi in enumerate(m):
            out[top - k + i] = (out[top - k + i] - c * mi) % p
    return FieldElem(spec, sum(c * p ** i for i, c in enumerate(out[:k])))


def poly_frobenius(x):
    acc = x.spec.one()
    for _ in range(x.spec.p):
        acc = poly_mul(acc, x)
    return acc


def poly_trace(x):
    total, acc = x, x
    for _ in range(x.spec.k - 1):
        acc = poly_frobenius(acc)
        total = total + acc
    assert not any(total.coeffs[1:])
    return total.coeffs[0]


@pytest.mark.parametrize("p,k", ORACLE_FIELDS)
def test_table_product_matches_polynomial_product(p, k):
    elems = make_field(p, k).elements()
    for x in elems:
        for y in elems:
            assert x * y == poly_mul(x, y)


@pytest.mark.parametrize("p,k", ORACLE_FIELDS)
def test_table_frobenius_and_trace_match_direct_sums(p, k):
    for x in make_field(p, k).elements():
        assert x.frobenius() == poly_frobenius(x)
        assert trace_to_prime(x) == poly_trace(x)
        # the conjugates x^(p^t), t < k, by polynomial products; the trace
        # down to GF(p^j) sums every j-th one, digitwise mod p
        conj = [x]
        for _ in range(k - 1):
            conj.append(poly_frobenius(conj[-1]))
        for j in range(1, k + 1):
            if k % j == 0:
                want = tuple(sum(col) % p
                             for col in zip(*[c.coeffs for c in conj[::j]]))
                assert relative_trace(x, j).coeffs == want, (x, j)


def test_trace_table_is_built_on_first_use():
    # GF(2^9) serves the Singer designs, which never take an absolute
    # trace, so make_field must not pay for a trace table
    f = make_field(2, 9)
    assert f._trace is None
    x = f.from_int(300)
    assert trace_to_prime(x) == poly_trace(x)
    assert len(f._trace) == f.order


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


def poly_pow(g, e):
    """g^e by squaring with polynomial products only."""
    result, base = g.spec.one(), g
    while e:
        if e & 1:
            result = poly_mul(result, base)
        base = poly_mul(base, base)
        e >>= 1
    return result


def poly_tables(p, k):
    """(modulus, generator, exp) as the polynomial builder makes them: the
    generator is the first code g with g^((n-1)/f) != 1 for every prime
    f | n - 1, and the exp table is the walk 1, g, g g, ... of products."""
    spec = FieldSpec(p, k, oracle_modulus(p, k))
    n = p ** k
    one = spec.one()
    factors = sympy.primefactors(n - 1)
    g = next(x for x in map(spec.from_int, range(1, n))
             if all(poly_pow(x, (n - 1) // f) != one for f in factors))
    exp, acc = [], one
    for _ in range(n - 1):
        exp.append(acc.coeffs)
        acc = poly_mul(acc, g)
    assert acc == one
    return spec.modulus, g.coeffs, exp


FIELDS_TO_1024 = [(p, k) for p in sympy.primerange(2, 1025)
                  for k in range(1, 11) if p ** k <= 1024]


def test_make_field_matches_polynomial_builder():
    for p, k in FIELDS_TO_1024:
        f = make_field(p, k)
        modulus, generator, exp = poly_tables(p, k)
        assert f.modulus == modulus, (p, k)
        assert f.generator == generator, (p, k)
        powers = [f.exp(i) for i in range(len(exp))]
        assert [x.coeffs for x in powers] == exp, (p, k)
        assert [f.log(x) for x in powers] == list(range(len(exp))), (p, k)
        assert f.codes.tolist() == [x.to_int() for x in powers], (p, k)
        assert all(type(c) is int for c in f.generator), (p, k)
        assert all(type(x.code) is int for x in powers), (p, k)
        assert all(type(f.log(x)) is int for x in powers), (p, k)


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
            for x in f.elements():
                assert trace_to_prime(x) == poly_trace(x), (q, x)


def test_prime_fields_to_20000_match_sympy(monkeypatch):
    # GF(p): modulus x, generator the least primitive root and exp table
    # its powers mod p, for every p to 20000; below 2000 also the lists
    # made from the table (exp, log) and the trace, which is the identity.
    # A private cache, emptied per field, keeps memory flat.
    import cretan.fields as fields

    monkeypatch.setattr(fields, "_field_cache", {})
    for p in sympy.primerange(2, 20001):
        fields._field_cache.clear()
        f = make_field(p, 1)
        # sympy's primitive_root(p) is the least one
        g = sympy.primitive_root(p) if p > 2 else 1
        assert f.modulus == (0, 1) and f.generator == (g,), p
        assert all(type(c) is int for c in f.modulus + f.generator), p
        codes = f.codes
        assert codes.dtype == np.int64 and len(codes) == p - 1, p
        assert codes[0] == 1 and (codes[1:] == codes[:-1] * g % p).all(), p
        if p < 2000:
            assert f._exp == codes.tolist(), p
            assert f._log[0] == 0 and all(
                f._log[c] == i for i, c in enumerate(f._exp)), p
            assert [trace_to_prime(x) for x in f.elements()] \
                == list(range(p)), p
