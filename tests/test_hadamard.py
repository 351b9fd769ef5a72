"""Sign matrices: Sylvester, Paley conference, regular Hadamard supply."""

import numpy as np
import pytest

from cretan.designs import Fixture, fixture_difference_set
from cretan.fields import (
    factor_prime_power,
    is_prime,
    is_prime_power,
    make_field,
)
from cretan.hadamard import (
    NoConstructionAvailable,
    SignMatrix,
    kronecker_sign,
    menon_hadamard_from_design,
    paley_conference,
    regular_hadamard,
    sign_matrix_from_fixture,
    sylvester,
)
from test_fields import (
    code_of,
    poly_mul,
    quadratic_character,
    quadratic_character_code,
)


def test_sylvester_orders():
    for e in range(6):
        H = sylvester(e)
        assert H.order == 2 ** e
        H.validate()
    assert (sylvester(1).entries == [[1, 1], [1, -1]]).all()
    with pytest.raises(ValueError):
        sylvester(-1)


def test_paley_conference_prime():
    W = paley_conference(5)
    assert W.order == 6 and W.kind == "conference"
    assert W.is_symmetric
    E = W.entries.astype(np.int64)
    assert (E @ E.T == 5 * np.eye(6, dtype=np.int64)).all()


def test_paley_conference_prime_power():
    W = paley_conference(9)
    assert W.order == 10
    assert W.is_symmetric
    W.validate()


def paley_oracle(q: int) -> np.ndarray:
    """The Paley conference matrix by a double loop over the codes of
    GF(q), with chi(x_i - x_j) from pow at primes and from the generator
    log at prime powers; codes subtract digitwise mod p."""
    if is_prime(q):
        chi = lambda a: quadratic_character(a, q)
        sub = lambda a, b: (a - b) % q
    else:
        f = make_field(*factor_prime_power(q))
        chi = lambda c: quadratic_character_code(f, c)
        sub = lambda a, b: code_of(f, (f.digits[a] - f.digits[b]) % f.p)
    C = np.zeros((q + 1, q + 1), dtype=np.int8)
    C[0, 1:] = C[1:, 0] = 1
    for a in range(q):
        for b in range(q):
            if a != b:
                C[a + 1, b + 1] = chi(sub(a, b))
    return C


@pytest.mark.parametrize("q", [5, 9, 13, 25, 49, 81, 121, 125])
def test_paley_conference_matches_double_loop(q):
    W = paley_conference(q)
    assert W.entries.dtype == np.int8
    assert np.array_equal(W.entries, paley_oracle(q))


def test_paley_conference_matches_squares_up_to_1000():
    """Every q = 1 (mod 4) below 1000: core entry (i, j) is chi(x_j - x_i)
    with x_j the element of code j and chi read off the squares, found by
    polynomial products."""
    qs = [q for q in range(5, 1000, 4) if is_prime_power(q)]
    for q in qs:
        p, k = factor_prime_power(q)
        f = make_field(p, k)
        D = f.digits
        chi = np.full(q, -1, dtype=np.int8)
        chi[0] = 0
        squares = [poly_mul(f, x, x) for x in map(tuple, D[1:].tolist())]
        chi[[code_of(f, x) for x in squares]] = 1
        diff = (D[None, :, :] - D[:, None, :]) % p @ p ** np.arange(k)
        E = paley_conference(q).entries
        assert np.array_equal(E[1:, 1:], chi[diff]), q


def test_paley_conference_validates_below_1000():
    # paley_conference does not check its own output; Paley's theorem
    # says it is a conference matrix, and this checks it at every q
    qs = [q for q in range(5, 1000, 4) if is_prime_power(q)]
    assert len(qs) == 94
    for q in qs:
        paley_conference(q).validate()


def test_paley_conference_rejects_3_mod_4():
    with pytest.raises(ValueError):
        paley_conference(7)


def test_regular_seed_and_powers_of_two():
    for m in (1, 2, 4, 8):
        M = regular_hadamard(m)
        assert M.order == 4 * m * m
        assert M.excess == 2 * m
        M.validate()


def test_regular_hadamard_from_menon_fixture():
    M = regular_hadamard(3)
    assert M.order == 36 and M.excess == 6
    M.validate()
    assert (M.entries.sum(axis=0) == 6).all()


def test_regular_hadamard_times_two():
    # regular_hadamard does not validate its Kronecker products itself
    for m in (6, 12):
        M = regular_hadamard(m)
        assert M.order == 4 * m * m and M.excess == 2 * m
        M.validate()


def test_regular_hadamard_missing_fixture():
    for m in (5, 7):
        with pytest.raises(NoConstructionAvailable):
            regular_hadamard(m)


def _sign_fixture(M):
    chars = {1: "+", -1: "-", 0: "0"}
    rows = tuple("".join(chars[x] for x in row) for row in M.entries.tolist())
    return Fixture("sign-matrix", "test", "", order=M.order, rows=rows)


def test_sign_matrix_fixture_must_be_regular_hadamard():
    M = sign_matrix_from_fixture(_sign_fixture(regular_hadamard(2)))
    assert M.order == 16 and M.excess == 4 and M.kind == "hadamard"
    with pytest.raises(ValueError, match="sign rows may hold only"):
        sign_matrix_from_fixture(_sign_fixture(paley_conference(5)))
    with pytest.raises(ValueError, match="is not regular"):
        sign_matrix_from_fixture(_sign_fixture(sylvester(2)))


def test_menon_mapping_direct():
    sb = fixture_difference_set("36-15-6").develop()
    M = menon_hadamard_from_design(sb)
    assert M.excess == 6
    assert np.isin(M.entries, (-1, 1)).all()
    M.validate()


def test_kronecker_sign_weights():
    H = kronecker_sign(sylvester(2), sylvester(1))
    assert H.order == 8 and H.weight == 8 and H.kind == "hadamard"
    H.validate()
    W = kronecker_sign(paley_conference(5), sylvester(1))
    assert W.kind == "weighing" and W.weight == 10
    W.validate()


def test_validate_catches_broken_matrix():
    H = sylvester(2)
    bad = H.entries.copy()
    bad[0, 0] = -bad[0, 0]
    broken = SignMatrix(4, bad, "hadamard", 4)
    with pytest.raises(ValueError):
        broken.validate()
