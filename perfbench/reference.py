"""Independent reference arithmetic for generating and checking items.

Nothing here imports cyconf.  Every answer the benchmark accepts is
checked against code in this file, written separately from the program
under test, so a bug in cyconf cannot vouch for itself.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, isqrt


def factor(n: int) -> list[tuple[int, int]]:
    """Prime factorization by trial division, smallest prime first."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))


@lru_cache(maxsize=64)
def unit_list(v: int) -> tuple[int, ...]:
    return tuple(a for a in range(1, v) if gcd(a, v) == 1)


def random_unit(rng, v: int) -> int:
    while True:
        a = rng.randrange(1, v)
        if gcd(a, v) == 1:
            return a


def has_distinct_differences(S, v: int) -> bool:
    """True iff S has |S| distinct residues and all nonzero differences differ."""
    k = len(S)
    if len({s % v for s in S}) != k:
        return False
    diffs = {(a - b) % v for a in S for b in S if a != b}
    return len(diffs) == k * (k - 1)


def is_connected(S, v: int) -> bool:
    s0 = S[0]
    return gcd(v, *[s - s0 for s in S[1:]]) == 1


def random_base_line(rng, v: int, k: int, connected: bool = True) -> tuple[int, ...]:
    """A base line through 0, drawn by rejection with the test above."""
    while True:
        S = (0, *rng.sample(range(1, v), k - 1))
        if has_distinct_differences(S, v) and is_connected(S, v) == connected:
            return tuple(sorted(S))


def affine(S, a: int, b: int, v: int) -> tuple[int, ...]:
    return tuple(sorted((a * s + b) % v for s in S))


def canonical(S, v: int) -> tuple[int, ...]:
    """Least sorted image a*(S - x) over units a and points x of S.

    The least affine image of a set always contains 0, so these images
    suffice; the benchmark's own tests compare this against a full
    scan over every (a, b).
    """
    best = None
    for x in S:
        shifted = [(s - x) % v for s in S]
        for a in unit_list(v):
            cand = tuple(sorted(a * t % v for t in shifted))
            if best is None or cand < best:
                best = cand
    return best


def orbit_size(S, v: int) -> int:
    """Number of affine images of S: images through 0, times v, over k."""
    images = {
        tuple(sorted(a * (s - x) % v for s in S)) for x in S for a in unit_list(v)
    }
    return len(images) * v // len(S)


def slice_size(v: int, k: int) -> int:
    """Number of base lines of size k through 0, by direct enumeration."""
    return sum(
        1
        for comb in combinations(range(1, v), k - 1)
        if has_distinct_differences((0, *comb), v)
    )


def class_count_formula(v: int) -> int:
    """Connected cyclic (v_3) classes from the published closed formula."""
    facs = factor(v)
    bigphi = 1
    for p, e in facs:
        bigphi *= p ** (e - 1) * (p + 1)
    if v % 2:
        if all(p % 3 == 1 for p, _ in facs):
            w = Fraction(5, 6)
        elif facs[0] == (3, 1) and all(p % 3 == 1 for p, _ in facs[1:]):
            w = Fraction(2, 3)
        else:
            w = Fraction(1, 2)
        c = 2
    else:
        w = {2: Fraction(1, 4), 6: Fraction(1, 4), 4: Fraction(1, 2), 0: Fraction(1)}[v % 8]
        c = 3
    total = Fraction(bigphi, 6) + w * 2 ** len(facs) - c
    if total.denominator != 1:
        raise ArithmeticError(f"formula not integral at v={v}")
    return int(total)


def multiplier_complete(v: int, k: int) -> bool:
    """Where affine maps decide isomorphism, per the program's documentation."""
    if k in (3, 4):
        return True
    facs = factor(v)
    if len(facs) == 1 or (len(facs) == 2 and facs[0][1] == facs[1][1] == 1):
        return True
    phi = 1
    for p, e in facs:
        phi *= p ** (e - 1) * (p - 1)
    return v == 4 or gcd(v, phi) == 1


# ------------------------------------------------------------ line systems


def lines(S, v: int) -> set[frozenset[int]]:
    return {frozenset((s + i) % v for s in S) for i in range(v)}


def maps_lines(perm, S1, S2, v: int) -> bool:
    """True iff perm is a bijection of Z_v carrying the lines of S1 onto those of S2."""
    if len(perm) != v or sorted(perm) != list(range(v)):
        return False
    return {frozenset(perm[x] for x in L) for L in lines(S1, v)} == lines(S2, v)


def levi_invariant(S, v: int) -> tuple:
    """Colour-refinement trace of the Levi graph with point 0 individualized.

    Translations are automorphisms, so any isomorphism can be composed to
    fix point 0; the refinement trace is then an isomorphism invariant and
    different traces prove NON-ISO.  Equal traces prove nothing.
    """
    n = 2 * v
    adj: list[list[int]] = [[] for _ in range(n)]
    for i in range(v):
        for s in S:
            p = (s + i) % v
            adj[p].append(v + i)
            adj[v + i].append(p)
    col = [0] * v + [1] * v
    col[0] = 2
    trace = []
    classes = 3
    while True:
        sig = [(col[x], tuple(sorted(col[y] for y in adj[x]))) for x in range(n)]
        counts: dict = {}
        for s in sig:
            counts[s] = counts.get(s, 0) + 1
        keys = sorted(counts)
        rank = {s: i for i, s in enumerate(keys)}
        col = [rank[s] for s in sig]
        trace.append(tuple((s, counts[s]) for s in keys))
        if len(keys) == classes:
            return tuple(trace)
        classes = len(keys)


# ------------------------------------------------------ two-prime solving set


def pq_multiplier_b(p: int, q: int) -> int:
    """The order-q multiplier b = a**((p-1)/q) of the Z_pq solving set.

    a is the least unit with a = 1 mod q and multiplicative order p - 1
    modulo pq, as the construction in the paper prescribes.
    """
    v = p * q
    for a in range(2, v):
        if gcd(a, v) != 1 or a % q != 1:
            continue
        order, x = 1, a
        while x != 1:
            x = x * a % v
            order += 1
        if order == p - 1:
            return pow(a, (p - 1) // q, v)
    raise ValueError(f"no suitable unit modulo {v}")


def class_shift_fixes(S, v: int, q: int) -> bool:
    """True iff adding q to the class 0 mod q preserves the lines of S."""
    perm = [(x + q) % v if x % q == 0 else x for x in range(v)]
    return maps_lines(perm, S, S, v)
