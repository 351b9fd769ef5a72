"""Finite field construction: moduli, generators, traces, characters."""

import pytest
import sympy

from cretan.fields import (
    FieldElem,
    FieldSpec,
    factor_prime_power,
    is_prime,
    make_field,
    prime_factors,
    quadratic_character,
    relative_trace,
    trace_to_prime,
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


def test_log_exp_round_trip():
    f = make_field(5, 2)
    for j in range(1, f.order):
        x = f.from_int(j)
        assert f.exp(f.log(x)) == x


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
    with pytest.raises(ValueError):
        relative_trace(f.from_int(1), 4)


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
    return FieldElem(spec, tuple(out[:k]))


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


def test_trace_table_is_built_on_first_use():
    # GF(2^9) serves the Singer designs, which never take an absolute
    # trace, so make_field must not pay for a trace table
    f = make_field(2, 9)
    assert f._trace is None
    x = f.from_int(300)
    assert trace_to_prime(x) == poly_trace(x)
    assert len(f._trace) == f.order
