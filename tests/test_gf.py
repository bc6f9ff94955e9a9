"""Field arithmetic: table-based operations against a naive polynomial
oracle, axiom sweeps, and construction errors."""

import itertools
import random

import pytest

from shlinear import gf
from shlinear.errors import (
    NotPrimeError,
    ReduciblePolynomialError,
    UnsupportedOrderError,
)
from helpers import NaiveField

SUPPORTED_ORDERS = (2, 3, 4, 5, 7, 8, 9)


def test_prime_field_needs_no_modulus():
    ctx = gf.make_field(5, 1)
    assert ctx.q == 5 and ctx.modulus is None


def test_f4_default_modulus():
    ctx = gf.make_field(2, 2)
    assert ctx.modulus == (1, 1, 1)  # the unique irreducible quadratic


@pytest.mark.parametrize("q,modulus", [
    (4, (1, 1, 1)),
    (8, (1, 1, 0, 1)),
    (9, (1, 0, 1)),
    (16, (1, 1, 0, 0, 1)),
    (25, (2, 0, 1)),
    (27, (1, 2, 0, 1)),
])
def test_default_modulus_is_pinned(q, modulus):
    # element codes, and so every set and matrix file written without a
    # poly= header, rest on these moduli
    assert gf.field_of_order(q).modulus == modulus
    assert gf.default_modulus(*gf.factor_prime_power(q)) == modulus


def test_f9_override_modulus_square_root_of_minus_one():
    # with modulus x^2 + 1 the generator x satisfies x*x = -1 = 2
    ctx = gf.make_field(3, 2, (1, 0, 1))
    x = 3  # digits (0, 1)
    assert ctx.mul(x, x) == 2


def test_f5_inverse():
    ctx = gf.make_field(5)
    assert ctx.inv(2) == 3


def test_f4_generator_square():
    ctx = gf.make_field(2, 2)
    assert ctx.mul(2, 2) == 3  # x * x = x + 1


@pytest.mark.parametrize("q", [4, 8, 9])
def test_tables_match_naive_polynomial_oracle(q):
    p, m = gf.factor_prime_power(q)
    ctx = gf.make_field(p, m)
    naive = NaiveField(p, m, ctx.modulus)
    for a in range(q):
        for b in range(q):
            assert ctx.add(a, b) == naive.add(a, b)
            assert ctx.mul(a, b) == naive.mul(a, b)


@pytest.mark.parametrize("q", [2, 27, 64, 121, 243, 251, 256])
def test_large_tables_match_naive_polynomial_oracle(q):
    """The log/antilog multiplication and digit-wise addition tables, on
    whole rows of a few elements and a random sample of pairs."""
    p, m = gf.factor_prime_power(q)
    ctx = gf.make_field(p, m)
    naive = NaiveField(p, m, ctx.modulus)
    rng = random.Random(q)
    pairs = [(a, b) for a in {0, 1, p % q, q - 1} for b in range(q)]
    pairs += [(rng.randrange(q), rng.randrange(q)) for _ in range(1500)]
    for a, b in pairs:
        assert ctx.add(a, b) == naive.add(a, b)
        assert ctx.mul(a, b) == naive.mul(a, b)
    assert all(ctx.mul(a, ctx.inv(a)) == 1 for a in range(1, q))


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_field_axioms(q):
    ctx = gf.field_of_order(q)
    elems = range(q)
    for a, b in itertools.product(elems, repeat=2):
        assert ctx.add(a, b) == ctx.add(b, a)
        assert ctx.mul(a, b) == ctx.mul(b, a)
    rng = random.Random(q)
    triples = (
        itertools.product(elems, repeat=3)
        if q <= 5
        else [tuple(rng.randrange(q) for _ in range(3)) for _ in range(500)]
    )
    for a, b, c in triples:
        assert ctx.add(ctx.add(a, b), c) == ctx.add(a, ctx.add(b, c))
        assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
        assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_multiplicative_group_order(q):
    ctx = gf.field_of_order(q)
    for a in range(1, q):
        assert ctx.pow(a, q - 1) == 1
        assert ctx.mul(a, ctx.inv(a)) == 1


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_characteristic(q):
    ctx = gf.field_of_order(q)
    for a in range(q):
        acc = 0
        for _ in range(ctx.p):
            acc = ctx.add(acc, a)
        assert acc == 0


def test_nonzero_elems():
    assert list(gf.make_field(2).nonzero_elems()) == [1]
    assert list(gf.make_field(5).nonzero_elems()) == [1, 2, 3, 4]
    assert list(gf.make_field(3, 2).nonzero_elems()) == list(range(1, 9))


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        gf.make_field(7).inv(0)


def test_not_prime_rejected():
    with pytest.raises(NotPrimeError):
        gf.make_field(4, 1)


def test_reducible_override_rejected():
    # x^2 + 2x + 1 = (x + 1)^2 over F_3
    with pytest.raises(ReduciblePolynomialError):
        gf.make_field(3, 2, (1, 2, 1))


def test_order_cap():
    with pytest.raises(UnsupportedOrderError):
        gf.make_field(2, 9)


def test_factor_prime_power():
    assert gf.factor_prime_power(9) == (3, 2)
    assert gf.factor_prime_power(8) == (2, 3)
    assert gf.factor_prime_power(7) == (7, 1)
    with pytest.raises(UnsupportedOrderError):
        gf.factor_prime_power(12)


def test_default_moduli_are_irreducible_up_to_cap():
    # every supported extension order <= 256 gets a working default
    for p in (2, 3, 5, 7, 11, 13):
        m = 2
        while p ** m <= gf.MAX_ORDER:
            ctx = gf.make_field(p, m)
            for a in range(1, ctx.q):
                assert ctx.pow(a, ctx.q - 1) == 1
            m += 1


def test_context_identity_and_caching():
    a = gf.make_field(3, 2)
    b = gf.field_of_order(9)
    assert a is b
    c = gf.FieldCtx(3, 2)
    assert a == c and hash(a) == hash(c)
    d = gf.make_field(3, 2, (2, 2, 1))  # different modulus: different field labeling
    assert a != d
