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


def _two_primes(v: int) -> tuple[int, int] | None:
    """(p1, p2) with p1 < p2 when v = p1*p2 for distinct primes, else None."""
    facs = factorization(v)
    if len(facs) == 2 and facs[0][1] == facs[1][1] == 1:
        return facs[0][0], facs[1][0]
    return None


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


def is_ci_order(v: int) -> bool:
    """True iff every pair of isomorphic cyclic objects on Z_v is related
    by a multiplier, for all object types at once.

    Holds exactly for v = 4 and for v coprime to phi(v).
    """
    _check_modulus(v)
    return v == 4 or gcd(v, phi(v)) == 1


def inverse(x: int, v: int) -> int:
    """Multiplicative inverse of the unit x modulo v."""
    return pow(x, -1, v) if v > 1 else 0
