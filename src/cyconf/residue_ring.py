"""Exact arithmetic in the residue ring Z_v and its unit group.

Everything here is integer arithmetic on plain ints.  A residue is an int
in ``range(v)``; a unit is a residue coprime to v.  Factorization is by
trial division and cached, which is plenty for the desk scale this
package targets: closed-form paths accept v up to 10**9, enumeration
paths (anything that walks all residues) are capped at 10**4.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt, prod

FORMULA_CAP = 10**9
ENUMERATION_CAP = 10**4


class CapExceeded(ValueError):
    """Raised when a modulus is beyond the supported desk scale."""


def _check_modulus(v: int) -> None:
    if not isinstance(v, int) or v < 1:
        raise ValueError(f"modulus must be a positive integer, got {v!r}")
    if v > FORMULA_CAP:
        raise CapExceeded(f"modulus {v} exceeds the closed-form cap {FORMULA_CAP}")


def _check_enumeration(v: int) -> None:
    _check_modulus(v)
    if v > ENUMERATION_CAP:
        raise CapExceeded(f"modulus {v} exceeds the enumeration cap {ENUMERATION_CAP}")


@lru_cache(maxsize=None)
def factorization(v: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of v as ((p1, e1), ...) with p1 < p2 < ...

    factorization(1) == ().
    """
    _check_modulus(v)
    out = []
    n = v
    p = 2
    while p <= isqrt(n):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def phi(v: int) -> int:
    """Euler totient, the order of the unit group of Z_v."""
    return prod(p ** (e - 1) * (p - 1) for p, e in factorization(v))


def big_phi(v: int) -> int:
    """The multiplicative function v * prod(1 + 1/p) over primes p | v.

    big_phi(1) == 1.  phi(v) * big_phi(v) counts the ordered pairs
    (x, y) that generate Z_v, a fact the tests check by direct
    enumeration.
    """
    return prod(p ** (e - 1) * (p + 1) for p, e in factorization(v))


def is_unit(x: int, v: int) -> bool:
    _check_modulus(v)
    return gcd(x, v) == 1


@lru_cache(maxsize=32)
def units(v: int) -> tuple[int, ...]:
    """All units of Z_v in increasing residue order."""
    _check_enumeration(v)
    return tuple(x for x in range(v) if gcd(x, v) == 1)


def mult_order(l: int, v: int) -> int:
    """Multiplicative order of the unit l modulo v.

    The order divides phi(v): start there and divide out each prime of
    phi(v) for as long as the smaller power of l is still 1.
    """
    _check_modulus(v)
    if v == 1:
        return 1
    l %= v
    if gcd(l, v) != 1:
        raise ValueError(f"{l} is not a unit modulo {v}")
    order = phi(v)
    for p, _ in factorization(order):
        while order % p == 0 and pow(l, order // p, v) == 1:
            order //= p
    return order


def multiplier_orbits(l: int, v: int) -> list[tuple[int, ...]]:
    """Orbits of x -> l*x on Z_v, each sorted, ordered by least element.

    The orbits partition Z_v; {0} is always one of them.
    """
    _check_enumeration(v)
    if v > 1 and gcd(l, v) != 1:
        raise ValueError(f"{l} is not a unit modulo {v}")
    seen = [False] * v
    orbits = []
    for start in range(v):
        if seen[start]:
            continue
        orbit = []
        x = start
        while not seen[x]:
            seen[x] = True
            orbit.append(x)
            x = x * l % v
        orbits.append(tuple(sorted(orbit)))
    return orbits


def is_ci_order(v: int) -> bool:
    """True iff every pair of isomorphic cyclic objects on Z_v is related
    by a multiplier, for all object types at once.

    Holds exactly for v = 4 and for v coprime to phi(v).
    """
    _check_modulus(v)
    return v == 4 or gcd(v, phi(v)) == 1


def subgroup_cosets(v: int, d: int) -> list[tuple[int, ...]]:
    """Cosets of the order-d subgroup of Z_v, ordered by least element.

    Requires d | v.  The subgroup itself is {0, v/d, 2v/d, ...} and is
    the first coset returned.
    """
    _check_enumeration(v)
    if d < 1 or v % d != 0:
        raise ValueError(f"{d} does not divide {v}")
    step = v // d
    return [tuple(range(r, v, step)) for r in range(step)]


def inverse(x: int, v: int) -> int:
    """Multiplicative inverse of the unit x modulo v."""
    return pow(x, -1, v) if v > 1 else 0


def _primitive_root_prime_power(p: int, e: int) -> int:
    # a generator mod p first; it lifts to p**e unless g**(p-1) == 1 mod p**2
    q_list = [q for q, _ in factorization(p - 1)]
    g = None
    for cand in range(2, p):
        if all(pow(cand, (p - 1) // q, p) != 1 for q in q_list):
            g = cand
            break
    if g is None:  # p == 2
        g = 1
    if e == 1:
        return g
    if pow(g, p - 1, p * p) == 1:
        g += p
    return g


def unit_group_generators(v: int) -> tuple[int, ...]:
    """A small generating set for the unit group of Z_v.

    One generator per odd prime power factor (a primitive root, lifted
    by the CRT), plus -1 and 5 for the factor 2**e with e >= 3, or just
    -1 for e == 2.  Used to walk unit-multiplication orbits without
    touching every unit.
    """
    _check_modulus(v)
    if v <= 2:
        return ()
    gens: list[int] = []
    for p, e in factorization(v):
        q = p**e
        rest = v // q
        if p == 2:
            locals_ = [] if e == 1 else ([q - 1] if e == 2 else [q - 1, 5])
        else:
            locals_ = [_primitive_root_prime_power(p, e)]
        for g in locals_:
            if rest == 1:
                gens.append(g % v)
            else:
                # CRT lift: g at the p-component, 1 everywhere else
                m = rest * pow(rest, -1, q)
                gens.append((g * m + (1 - m)) % v)
    return tuple(sorted(set(gens)))
