"""Solving sets for cyclic objects on Z_pq: decide isomorphism by replay.

A solving set for an object X on Z_v is a finite list of point
permutations such that X is isomorphic to another cyclic object Y iff
some permutation in the list carries the line set of X exactly onto the
line set of Y.  For v = p*q with p, q distinct primes and q | p - 1,
every member is a per-class scaling: a map x -> c_r * x, where r is the
class of x mod q and the units c_r all agree mod q, so the map carries
each class onto one class and is a bijection of Z_v.

The construction needs a unit a of maximal order p - 1 with a = 1 mod q;
then b = a**s for s = (p-1)/q has order q, and an exponent alpha with
a**alpha = -s mod p exists because a is a primitive root mod p.  When
the multiplier by b is an automorphism of X but the class-0 shift
(add q to the points = 0 mod q) is not, the solving set consists of the
scalings with factors

    c_r = j**(-1) * a**(i + alpha) * b**(-k*r)   (r = 0..q-1)

over 0 <= i < beta, then the admissible layers k, then 0 < j < q.
Here beta is the least positive i with x -> a**i * x fixing X, and
layer k is admissible when the product over classes l of the class-l
shift raised to b**((l+1)*k) mod p is an automorphism of X.
Multipliers alone solve X when b is not an automorphism of it.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from ._record import Record
from .configuration import CyclicConfiguration, _is_permutation, _maps_lines_onto
from .iso import IsoWitness, _multiplier_witness, exact_isomorphic
from .iso import multiplier_equivalent  # unused here; perfbench's selftest pins this binding
from .residue_ring import _two_primes, factorization, inverse, mult_order, units


class SolvingSetUnavailable(Exception):
    """The construction's hypotheses fail for this object; fall back."""


class SolvingSetParams(Record, namedtuple("SolvingSetParams", "p q v a b s alpha")):
    """Arithmetic data for the two-prime solving set.

    p, q: the primes, q | p - 1; v = p*q.
    a: least unit of order p - 1 with a = 1 mod q.
    s: (p - 1) // q.
    b: a**s mod v, of order q.
    alpha: least exponent >= 1 with a**alpha = -s mod p.
    """

    __slots__ = ()
    p: int
    q: int
    v: int
    a: int
    b: int
    s: int
    alpha: int


def _is_prime(n: int) -> bool:
    return n > 1 and factorization(n) == ((n, 1),)


@lru_cache(maxsize=64)
def solving_set_params(p: int, q: int) -> SolvingSetParams:
    """Derive (a, b, s, alpha); rejects pairs where q does not divide p - 1."""
    if not (_is_prime(p) and _is_prime(q)) or p == q:
        raise ValueError(f"need two distinct primes, got {p}, {q}")
    if (p - 1) % q:
        raise ValueError(f"q={q} does not divide p-1={p - 1}")
    v = p * q
    a = next(c for c in units(v) if c % q == 1 and mult_order(c, v) == p - 1)
    s = (p - 1) // q
    b = pow(a, s, v)
    alpha = next(e for e in range(1, p) if pow(a, e, p) == (-s) % p)
    return SolvingSetParams(p=p, q=q, v=v, a=a, b=b, s=s, alpha=alpha)


# ------------------------------------------------------------- permutations
#
# permutations are image tables: perm[x] is the image of x.


def _scaling(v: int, q: int, factors) -> tuple[int, ...]:
    """The map x -> factors[x mod q] * x on Z_v."""
    return tuple(factors[x % q] * x % v for x in range(v))


def _class0_shift(v: int, q: int) -> tuple[int, ...]:
    """The map adding q to the points = 0 mod q, fixing the rest."""
    return tuple((x + q) % v if x % q == 0 else x for x in range(v))


def preserves_lines(perm: tuple[int, ...], C: CyclicConfiguration) -> bool:
    """True iff the permutation maps the line set of C onto itself."""
    return _maps_lines_onto(perm, C.base, C.line_set())


def _admissible_layers(C: CyclicConfiguration, params: SolvingSetParams) -> list[int]:
    # layer k passes when the product over classes l of the class-l
    # shift raised to b**((l+1)*k) mod p preserves the lines; layer 0
    # is the translation x -> x + q and always passes
    v, q = params.v, params.q
    out = []
    for k in range(q):
        sigma = list(range(v))
        for l in range(q):
            shift = pow(params.b, (l + 1) * k, params.p) * q % v
            for x in range(l, v, q):
                sigma[x] = (x + shift) % v
        if preserves_lines(tuple(sigma), C):
            out.append(k)
    return out


def solving_set(C: CyclicConfiguration, params: SolvingSetParams) -> list[tuple[int, ...]]:
    """The solving set for C, given the multiplier by b fixes its lines.

    Raises ValueError unless params are solving_set_params(p, q) and C
    lives on Z_pq, and SolvingSetUnavailable when the hypotheses fail:
    the multiplier by b must preserve C's lines and the class-0 shift
    must not.  Every returned permutation is audited for bijectivity.
    """
    v, q = params.v, params.q
    if params != solving_set_params(params.p, params.q):
        raise ValueError(f"{params} are not the solving-set parameters for p={params.p}, q={q}")
    if C.v != v:
        raise ValueError(f"configuration lives on Z_{C.v}, params on Z_{v}")
    if not preserves_lines(_scaling(v, 1, (params.b,)), C):
        raise SolvingSetUnavailable("multiplier b is not an automorphism")
    if preserves_lines(_class0_shift(v, q), C):
        raise SolvingSetUnavailable("class-0 shift is an automorphism")
    return _solving_set_members(C, params)


def _solving_set_members(C: CyclicConfiguration, params: SolvingSetParams) -> list[tuple[int, ...]]:
    """The solving set for C, whose hypotheses the caller has checked.

    b = a**s fixes C's lines, so beta, the least i >= 1 with
    x -> a**i * x fixing them, is at most s: only the powers below s
    are tried, and b is not checked again.
    """
    v, q = params.v, params.q
    beta = next(
        (i for i in range(1, params.s)
         if preserves_lines(_scaling(v, 1, (pow(params.a, i, v),)), C)),
        params.s,
    )
    binv = inverse(params.b, v)
    layers = _admissible_layers(C, params)
    out = []
    for i in range(beta):
        a_pow = pow(params.a, i + params.alpha, v)
        for k in layers:
            for j in range(1, q):  # j < q < p, so j is a unit mod pq
                c = inverse(j, v) * a_pow % v
                perm = _scaling(v, q, [c * pow(binv, k * r, v) % v for r in range(q)])
                if not _is_permutation(perm):
                    raise RuntimeError(f"solving-set member {perm} is not a permutation")
                out.append(perm)
    return out


def solve_iso_pq(
    C1: CyclicConfiguration, C2: CyclicConfiguration, cap: int | None = None
) -> IsoWitness | None:
    """Decide isomorphism on Z_pq through a solving set for C1.

    The larger prime plays p; when q does not divide p - 1 (it cannot
    the other way around), or when the multiplier by b is not an
    automorphism of C1, the plain multiplier sweep already decides.
    When the class-0 shift is an automorphism of C1 the construction's
    hypotheses fail and the exhaustive search decides.  Otherwise the
    multiplier sweep runs first, and only when it finds no map is the
    solving set for C1 built and every member replayed against C2.
    """
    if C1.v != C2.v:
        raise ValueError("isomorphism needs a common point count")
    v = C1.v
    pq = _two_primes(v)
    if pq is None:
        raise ValueError(f"v={v} is not a product of two distinct primes")
    p, q = max(pq), min(pq)
    params = None
    if (p - 1) % q == 0:
        params = solving_set_params(p, q)
        if not preserves_lines(_scaling(v, 1, (params.b,)), C1):
            params = None
        elif preserves_lines(_class0_shift(v, q), C1):
            return exact_isomorphic(C1, C2, cap=cap)
    w = _multiplier_witness(C1, C2)
    if w is not None or params is None:  # without a solving set the multiplier sweep decides
        return w
    target = C2.line_set()
    for perm in _solving_set_members(C1, params):
        if _maps_lines_onto(perm, C1.base, target):
            return IsoWitness(kind="explicit", point_map=perm)
    return None
