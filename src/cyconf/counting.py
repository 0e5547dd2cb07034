"""Counting connected cyclic (v_3) configurations, three independent ways.

Write U(v) for the unit group and B for the connected base triples
through 0.  Units act on B by multiplication combined with translation
back into the slice, and the isomorphism classes of connected cyclic
(v_3) configurations correspond to the orbits of that action.  Orbit
counting over the group of order 3*phi(v) gives

    classes = (1 / (3 phi(v))) * sum over units l of fixed(v, l)

where fixed(v, l) counts triples X in B with l*X a translate of X.

Three routes to the same number are implemented:

* count_closed_formula: the closed expression
  bigphi(v)/6 + w * 2**k - (2 for odd v, 3 for even v), with k the
  number of distinct primes of v and w a case weight depending on the
  primes mod 3 (odd v) or on v mod 8 (even v).
* count_unit_sum: the orbit-counting sum itself, with fixed(v, l)
  taken from the closed per-unit case analysis count_fixed_closed
  (units of order 1, 2 or 3 contribute, the rest fix nothing).  The
  sum runs over the units with l**2 = 1 or l**3 = 1 only, built by the
  Chinese remainder theorem from each prime power of v, so it reaches
  FORMULA_CAP without a walk over the units.  The
  acceptance battery checks count_fixed_closed against brute force
  for every unit (criterion 3), and `cyconf verify` checks it against
  _fixed_table, which finds every unit's exhaustive fixed count in one
  pass over the slice; count_fixed_bruteforce, one walk per unit,
  is that table's test oracle.
* count_orbit_scan: brute-force enumeration of the slice and a walk of
  the affine action over it.  No formula enters; this is the oracle for
  the other two.  Each orbit's representative is checked against
  canonical_form, which finds the least image by a least-gcd solve
  rather than by the walk's pass over every image.

Each division a count needs exact is integer division checked by its
remainder (ArithmeticError when it is not zero), so a wrong formula
fails loudly rather than rounding.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .baseline import _orbit_walk, _slice, _unit_solutions
from .baseline import canonical_form, ensure_enumerable
from .residue_ring import _check_positive, big_phi, factorization, mult_order, phi, units


def _require_v(v: int) -> None:
    _check_positive(v)
    if v <= 4:
        raise ValueError(f"counts are defined for v > 4, got v={v}")


# ---------------------------------------------------------------- fixed counts


def _halve(n: int, v: int) -> int:
    if n % 2:
        raise ArithmeticError(f"fixed count {n}/2 not integral at v={v}")
    return n // 2


def _count_fixed_identity(v: int) -> int:
    """Number of connected base triples through 0 (fixed by the unit 1).

    phi(v) (bigphi(v) - 6) / 2 for odd v; even v subtracts 3 phi(v/2)
    for the pairs whose third difference degenerates at v/2.
    """
    _require_v(v)
    n = _halve(phi(v) * (big_phi(v) - 6), v)
    if v % 2 == 0:
        n -= 3 * phi(v // 2)
    return n


def count_fixed_closed(v: int, l: int) -> int:
    """Closed count of connected base triples through 0 that the unit l
    maps to a translate of themselves.

    Nonzero only when l has multiplicative order 1, 2 or 3.  Order 2
    contributes 3 phi(v)/2 unless l = -1 or (4 | v and l = 1 mod v/2);
    order 3 contributes phi(v) exactly when l*l + l + 1 = 0 mod v.
    """
    _require_v(v)
    l %= v
    order = mult_order(l, v)  # rejects non-units
    if l == 1:
        return _count_fixed_identity(v)
    if order > 3:
        return 0
    if order == 2:
        if (l + 1) % v == 0:
            return 0
        if v % 4 == 0 and l % (v // 2) == 1:
            return 0
        return _halve(3 * phi(v), v)
    return phi(v) if (l * l + l + 1) % v == 0 else 0


@lru_cache(maxsize=1)  # one modulus at a time: the callers walk every unit at one v
def _slice_shift_keys(v: int, k: int) -> tuple[tuple[tuple[int, ...], ...], tuple[frozenset, ...]]:
    # checking k and the cap is the caller's job
    slice_ = _slice(v, k, True)
    keys = tuple(
        frozenset(tuple(sorted((s - x) % v for s in X)) for x in X) for X in slice_
    )
    return slice_, keys


def count_fixed_bruteforce(v: int, k: int, l: int, cap: int | None = None) -> int:
    """Exhaustive version of the fixed count, for any k.

    Walks the connected slice and counts the sets X with l*X equal to
    X - x for some x in X.  Shares no arithmetic with the closed forms.
    `verify` reads all units at once from the one-pass _fixed_table;
    this walk is the table's test oracle and criterion 3's.
    """
    ensure_enumerable(v, k, cap)
    mult_order(l, v)  # rejects non-units
    slice_, keys = _slice_shift_keys(v, k)
    count = 0
    for X, shifts in zip(slice_, keys):
        image = tuple(sorted(l * x % v for x in X))
        if image in shifts:
            count += 1
    return count


def _fixed_table(v: int, k: int) -> dict[int, int]:
    """count_fixed_bruteforce(v, k, l) for every unit l, in one pass over the slice.

    For each member X and each x in X, a unit l with l*X = X - x sends
    the nonzero s in X with the least gcd(s, v) to some y in X - x, so
    l is in _unit_solutions(s, y, v); each is kept if l*X is X - x, and
    counts at most once per X.  No unit sends s to y = 0, and each
    congruence is solved once per call.  Shares no arithmetic with the
    closed forms.
    """
    # checking k and the cap is the caller's job
    table = dict.fromkeys(units(v), 0)
    gcds = [gcd(t, v) for t in range(v)]
    solutions: dict[tuple[int, int], list[int]] = {}
    for X in _slice(v, k, True):
        s = min(X[1:], key=gcds.__getitem__)  # X[0] is 0
        fixers = set()
        for x in X:
            shifted = {(t - x) % v for t in X}
            for y in shifted:
                if not y:
                    continue
                ls = solutions.get((s, y))
                if ls is None:
                    ls = solutions[s, y] = _unit_solutions(s, y, v)
                for l in ls:
                    if l not in fixers and {l * t % v for t in X} == shifted:
                        fixers.add(l)
        for l in fixers:
            table[l] += 1
    return table


# ------------------------------------------------------------------- the counts


def _formula_weight(v: int) -> int:
    """12 times the formula's case weight, set by the primes of v (odd) or v mod 8 (even)."""
    _require_v(v)
    facs = factorization(v)
    if v % 2:
        if all(p % 3 == 1 for p, _ in facs):
            return 10  # 5/6: all primes 1 mod 3
        if facs[0] == (3, 1) and all(p % 3 == 1 for p, _ in facs[1:]):
            return 8  # 2/3: a single 3, the rest 1 mod 3
        return 6  # 1/2
    r = v % 8
    if r in (2, 6):
        return 3  # 1/4
    if r == 4:
        return 6  # 1/2
    return 12  # 1


def count_closed_formula(v: int) -> int:
    """Number of connected cyclic (v_3) configurations, closed form, summed in twelfths."""
    weight = _formula_weight(v)
    k = len(factorization(v))
    total, rest = divmod(2 * big_phi(v) + weight * 2**k - (24 if v % 2 else 36), 12)
    if rest:
        raise ArithmeticError(f"formula not integral at v={v}")
    return total


def _prime_power_roots(p: int, e: int, n: int) -> list[int]:
    # the solutions of l**n = 1 mod p**e, for n = 2 or 3
    q = p**e
    if n == 2:
        if p > 2 or e <= 2:
            return sorted({1, q - 1})
        return [1, q // 2 - 1, q // 2 + 1, q - 1]
    f = q // p * (p - 1)  # phi(q); for odd p the units mod q form a cyclic group
    if f % 3:  # always so for p = 2
        return [1]
    # a non-cube g mod p is a non-cube mod q, and g**(f/3) then has order 3
    c = next(c for c in (pow(g, f // 3, q) for g in range(2, p)) if c != 1)
    return [1, c, c * c % q]


def _roots_of_unity(v: int, n: int) -> list[int]:
    """The units l of Z_v with l**n = 1, for n = 2 or 3, in increasing order.

    Built by the Chinese remainder theorem from the roots modulo each
    prime power of v: for n = 2, +-1 modulo an odd p**e and, modulo
    2**e, {1} at e = 1, {1, 3} at e = 2 and {1, -1, 2**(e-1) +- 1}
    beyond; for n = 3, {1, c, c*c} with c = g**(phi(p**e)/3) for a
    non-cube g below p when 3 divides phi(p**e), else {1}.  No walk over
    the units, so v may reach FORMULA_CAP.
    """
    if n not in (2, 3):
        raise ValueError(f"roots of unity are built for n = 2 or 3, got n={n}")
    roots, m = [0], 1
    for p, e in factorization(v):
        q = p**e
        inv = pow(m, -1, q)
        roots = [r + m * ((t - r) * inv % q) for r in roots for t in _prime_power_roots(p, e, n)]
        m *= q
    return sorted(r % v for r in roots)


def count_unit_sum(v: int) -> int:
    """Same count through the orbit-counting sum of the closed fixed counts.

    Only units of order 1, 2 or 3 fix anything, so the sum runs over the
    units with l**2 = 1 or l**3 = 1, built by _roots_of_unity.
    """
    _require_v(v)
    roots = sorted({*_roots_of_unity(v, 2), *_roots_of_unity(v, 3)})
    total, rest = divmod(sum(count_fixed_closed(v, l) for l in roots), 3 * phi(v))
    if rest:
        raise ArithmeticError(f"unit sum not integral at v={v}")
    return total


def count_orbit_scan(v: int, k: int = 3, cap: int | None = None) -> int:
    """Count affine orbits on connected base lines by enumeration.

    Walks the connected translation slice with baseline's bare orbit
    walk, which reports each orbit's representative and its number of
    slice members; no formula enters.  The partition is checked against
    the canonicalizer, whose least-gcd solve shares no step with the
    walk: every representative must be its own canonical form and the
    orbit sizes must add up to the slice size, else ArithmeticError.
    """
    ensure_enumerable(v, k, cap)
    size = len(_slice(v, k, True))
    orbits = covered = 0
    for rep, members, _ in _orbit_walk(v, k, connected=True):
        if canonical_form(rep, v) != rep:
            raise ArithmeticError(f"orbit representative {rep} is not canonical at v={v}")
        orbits += 1
        covered += members
    if covered != size:
        raise ArithmeticError(f"orbits cover {covered} of {size} slice members at v={v}")
    return orbits
