"""Solving sets for cyclic objects on Z_pq: decide isomorphism by replay.

A solving set for an object X on Z_v is a finite list of point
permutations such that X is isomorphic to another cyclic object Y iff
some permutation in the list carries the line set of X exactly onto the
line set of Y.  For v = p*q with p, q distinct primes and q | p - 1 the
list can be built from three permutation families on Z_v, all phrased
through the residue classes modulo q:

* class shifts: add q to the points in one class mod q;
* global multipliers x -> j*x for units j;
* class multipliers: multiply one class mod q by a unit j = 1 mod q
  (these are well defined because such j preserve every class).

The construction needs a unit a of maximal order p - 1 with a = 1 mod q;
then b = a**s for s = (p-1)/q has order q, and an exponent alpha with
a**alpha = -s mod p exists because a is a primitive root mod p.  When
the multiplier by b is an automorphism of X but the class-0 shift is
not, the solving set consists of the products

    mu_a**i * nu_k * mu_j**(-1)

over 0 <= i < beta, 0 < j < q and the layers k in 0..q-1 whose
associated product of class-shift powers is an automorphism of X; here
nu_k multiplies class j by a**alpha * b**(-k*j), beta is the least
positive power of mu_a fixing X, and products apply the left factor
first.  Multipliers alone solve X when b is not an automorphism of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .configuration import CyclicConfiguration, _maps_lines_onto
from .iso import IsoWitness, exact_isomorphic, multiplier_equivalent
from .residue_ring import factorization, inverse, mult_order, units


class SolvingSetUnavailable(Exception):
    """The construction's hypotheses fail for this object; fall back."""


@dataclass(frozen=True)
class SolvingSetParams:
    """Arithmetic data for the two-prime solving set.

    p, q: the primes, q | p - 1; v = p*q.
    a: least unit of order p - 1 with a = 1 mod q.
    s: (p - 1) // q.
    b: a**s mod v, of order q.
    alpha: least exponent >= 1 with a**alpha = -s mod p.
    """

    p: int
    q: int
    v: int
    a: int
    b: int
    s: int
    alpha: int


def _is_prime(n: int) -> bool:
    return n > 1 and factorization(n) == ((n, 1),)


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


def _is_permutation(perm: tuple[int, ...]) -> bool:
    return sorted(perm) == list(range(len(perm)))


def _perm_compose(first: tuple[int, ...], then: tuple[int, ...]) -> tuple[int, ...]:
    """Apply ``first``, then ``then`` (left-to-right product)."""
    return tuple(then[x] for x in first)


def _class_shift(v: int, q: int, i: int) -> tuple[int, ...]:
    """Add q to every point congruent to i mod q, fix the rest."""
    if v % q:
        raise ValueError(f"q={q} must divide v={v}")
    return tuple((x + q) % v if x % q == i % q else x for x in range(v))


def _multiplier_perm(v: int, j: int) -> tuple[int, ...]:
    """The global multiplier x -> j*x for a unit j."""
    if gcd(j, v) != 1:
        raise ValueError(f"{j} is not a unit modulo {v}")
    return tuple(j * x % v for x in range(v))


def _class_multiplier(v: int, q: int, i: int, j: int) -> tuple[int, ...]:
    """Multiply class i mod q by the unit j, fix the other classes.

    Needs j = 1 mod q, else the map would leak out of the class and not
    even be a bijection of it.
    """
    if v % q:
        raise ValueError(f"q={q} must divide v={v}")
    if gcd(j, v) != 1:
        raise ValueError(f"{j} is not a unit modulo {v}")
    if j % q != 1:
        raise ValueError(f"class multiplier needs j = 1 mod q, got j={j}")
    return tuple(j * x % v if x % q == i % q else x for x in range(v))


def _layered_multiplier(params: SolvingSetParams, k: int) -> tuple[int, ...]:
    """Multiply class j by a**alpha * b**(-k*j), all classes at once.

    Each factor is a class multiplier (they commute, acting on disjoint
    classes); layer 0 is the global multiplier by a**alpha.  Parameters
    from solving_set_params make every factor a unit = 1 mod q; for
    inconsistent ones _class_multiplier raises ValueError.
    """
    v, q = params.v, params.q
    binv = inverse(params.b, v)
    out = tuple(range(v))
    for j in range(q):
        m = pow(params.a, params.alpha, v) * pow(binv, k * j, v) % v
        out = _perm_compose(out, _class_multiplier(v, q, j, m))
    return out


def preserves_lines(perm: tuple[int, ...], C: CyclicConfiguration) -> bool:
    """True iff the permutation maps the line set of C onto itself."""
    target = C.line_set()
    return _maps_lines_onto(perm, target, target)


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

    Raises SolvingSetUnavailable when the hypotheses fail: the
    multiplier by b must preserve C's lines and the class-0 shift must
    not.  Every returned permutation is audited for bijectivity.
    """
    v, q = params.v, params.q
    if C.v != v:
        raise ValueError(f"configuration lives on Z_{C.v}, params on Z_{v}")
    if not preserves_lines(_multiplier_perm(v, params.b), C):
        raise SolvingSetUnavailable("multiplier b is not an automorphism")
    if preserves_lines(_class_shift(v, q, 0), C):
        raise SolvingSetUnavailable("class-0 shift is an automorphism")

    mu_a = _multiplier_perm(v, params.a)
    beta = None
    power = mu_a
    for i in range(1, params.p):
        if preserves_lines(power, C):
            beta = i
            break
        power = _perm_compose(power, mu_a)
    if beta is None:
        raise RuntimeError("no power of mu_a below p fixes the lines, but mu_a**(p-1) is the identity")

    layers = [_layered_multiplier(params, k) for k in _admissible_layers(C, params)]
    out = []
    mu_a_pow = tuple(range(v))
    for i in range(beta):
        for nu in layers:
            for j in range(1, q):  # j < q < p, so j is a unit mod pq
                mu_j_inv = _multiplier_perm(v, inverse(j, v))
                perm = _perm_compose(_perm_compose(mu_a_pow, nu), mu_j_inv)
                if not _is_permutation(perm):
                    raise RuntimeError(f"solving-set member {perm} is not a permutation")
                out.append(perm)
        mu_a_pow = _perm_compose(mu_a_pow, mu_a)
    return out


def _two_primes(v: int) -> tuple[int, int] | None:
    facs = factorization(v)
    if len(facs) == 2 and facs[0][1] == 1 and facs[1][1] == 1:
        return facs[0][0], facs[1][0]
    return None


def solve_iso_pq(
    C1: CyclicConfiguration, C2: CyclicConfiguration, cap: int | None = None
) -> IsoWitness | None:
    """Decide isomorphism on Z_pq through a solving set for C1.

    The larger prime plays p; when q does not divide p - 1 (it cannot
    the other way around), or when the multiplier by b is not an
    automorphism of C1, the plain multiplier sweep already decides.
    Otherwise the sweep runs first and every member of the solving set
    is replayed against C2; a hypothesis failure inside the
    construction falls back to the exhaustive search.
    """
    if C1.v != C2.v:
        raise ValueError("isomorphism needs a common point count")
    v = C1.v
    pq = _two_primes(v)
    if pq is None:
        raise ValueError(f"v={v} is not a product of two distinct primes")
    p, q = max(pq), min(pq)
    if (p - 1) % q:
        return _multiplier_witness(v, C1, C2)

    params = solving_set_params(p, q)
    if not preserves_lines(_multiplier_perm(v, params.b), C1):
        return _multiplier_witness(v, C1, C2)
    try:
        delta = solving_set(C1, params)
    except SolvingSetUnavailable:
        return exact_isomorphic(C1, C2, cap=cap)
    w = _multiplier_witness(v, C1, C2)
    if w is not None:
        return w
    lines1, target = C1.lines(), C2.line_set()
    for perm in delta:
        if _maps_lines_onto(perm, lines1, target):
            return IsoWitness(kind="explicit", point_map=perm)
    return None


def _multiplier_witness(
    v: int, C1: CyclicConfiguration, C2: CyclicConfiguration
) -> IsoWitness | None:
    ab = multiplier_equivalent(v, C1.base, C2.base)
    return IsoWitness(kind="multiplier", a=ab[0], b=ab[1]) if ab else None
