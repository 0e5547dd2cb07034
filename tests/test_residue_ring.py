from __future__ import annotations

import math
import random

import pytest

from cyconf.counting import count_closed_formula
from cyconf.residue_ring import (
    CapExceeded,
    big_phi,
    factorization,
    inverse,
    is_ci_order,
    mult_order,
    phi,
    units,
)


def test_factorization_reassembles():
    for v in range(1, 600):
        product = 1
        for p, e in factorization(v):
            product *= p**e
        assert product == v


def test_factorization_sorted_primes():
    for v in (2, 12, 360, 1024, 9973, 2 * 3 * 5 * 7 * 11):
        facs = factorization(v)
        primes = [p for p, _ in facs]
        assert primes == sorted(primes)
        for p in primes:
            assert all(p % d for d in range(2, math.isqrt(p) + 1))
        assert all(e >= 1 for _, e in facs)


def test_factorization_cache_stays_bounded_over_a_sweep():
    for v in range(7, 3007):
        count_closed_formula(v)
    info = factorization.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize


def test_phi_matches_direct_count():
    for v in range(1, 300):
        assert phi(v) == sum(1 for x in range(1, v + 1) if math.gcd(x, v) == 1)


def test_big_phi_values():
    # v * prod over primes of (1 + 1/p)
    assert big_phi(1) == 1
    assert big_phi(7) == 8
    assert big_phi(12) == 24
    assert big_phi(30) == 72
    assert big_phi(49) == 56


def test_big_phi_multiplicative():
    for a in range(1, 40):
        for b in range(a, 40):
            if math.gcd(a, b) == 1:
                assert big_phi(a * b) == big_phi(a) * big_phi(b)


def test_units_increasing_closed_and_sized():
    for v in (2, 3, 8, 9, 12, 30, 49):
        us = units(v)
        assert list(us) == sorted(us)
        assert len(us) == phi(v)
        assert all(math.gcd(x, v) == 1 for x in us)
        assert {a * b % v for a in us for b in us} == set(us)


def test_mult_order_definition():
    for v in (7, 12, 16, 21):
        for l in units(v):
            d = mult_order(l, v)
            assert pow(l, d, v) == 1 % v
            assert all(pow(l, e, v) != 1 for e in range(1, d))
            assert phi(v) % d == 0


def _mult_order_loop(l, v):
    # the O(order) definition, kept as the reference
    if v == 1:
        return 1
    order, x = 1, l % v
    while x != 1:
        x = x * l % v
        order += 1
    return order


def test_mult_order_matches_loop_below_400():
    for v in range(1, 400):
        for l in range(v):
            if math.gcd(l, v) == 1:
                assert mult_order(l, v) == _mult_order_loop(l, v), (l, v)


def test_mult_order_matches_sympy_up_to_formula_cap():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(999999937)
    for _ in range(300):
        v = rng.randint(2, 10**9)
        l = rng.randrange(1, v)
        while math.gcd(l, v) != 1:
            l = rng.randrange(1, v)
        assert mult_order(l, v) == sympy.n_order(l, v), (l, v)


def test_mult_order_large_prime_returns():
    v = 999999937
    d = mult_order(11, v)
    assert pow(11, d, v) == 1
    assert (v - 1) % d == 0
    assert all(pow(11, d // p, v) != 1 for p, _ in factorization(d))


def test_mult_order_rejects_non_units():
    with pytest.raises(ValueError):
        mult_order(6, 21)
    with pytest.raises(ValueError):
        mult_order(0, 8)


def test_mult_order_trivial_modulus():
    assert mult_order(0, 1) == 1


def test_is_ci_order():
    assert is_ci_order(4)
    assert is_ci_order(7)
    assert is_ci_order(15)  # gcd(15, phi=8) = 1
    assert not is_ci_order(8)
    assert not is_ci_order(16)
    assert not is_ci_order(21)  # 3 | phi(21) = 12


def test_inverse():
    for v in (7, 12, 49):
        for x in units(v):
            assert x * inverse(x, v) % v == 1
    with pytest.raises(ValueError):
        inverse(6, 21)
    for v in (0, -7, True, 7.0):
        with pytest.raises(ValueError, match="modulus must be a positive integer, got"):
            inverse(3, v)


def test_cap_exceeded_is_a_value_error():
    # callers that catch ValueError keep working
    assert issubclass(CapExceeded, ValueError)
