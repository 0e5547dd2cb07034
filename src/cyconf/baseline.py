"""Base lines: the k-subsets of Z_v whose translates form a configuration.

A k-subset S of Z_v is a base line when its difference set S - S has the
maximal size k*k - k + 1, i.e. all nonzero differences are distinct.  The
v translates S + i are then the lines of a combinatorial (v_k)
configuration.  The affine group {x -> a*x + b : a a unit} acts on base
lines; its orbits are exactly the isomorphism classes for k = 3 and 4,
which is what makes the canonical form here decisive.

Enumeration works on the translation slice (subsets containing 0): every
base line has exactly k translates containing 0, so nothing is lost and
the slice is v/k times smaller.  The slice is grown point by point in
increasing order, with the differences used so far held as bits of one
int, so a point that would repeat a difference is never placed; the
members come out in lexicographic order.

Two routes find the least affine image.  slice_orbits walks all k*phi(v)
images a*(rep - x) of each orbit once, built a column per point, and
takes the first member it reaches.  canonical_form solves for the least
image instead: its second point is the least gcd(s - x, v) over the
differences of S, and only the few units that send such a difference
onto that gcd can produce it.  canonical_form, affine_map_between and
counting's one-pass fixed table all find their units through one solve,
_unit_solutions; the orbit walk shares none of it, nor any step past the
slice, so count_orbit_scan can check the one route against the other.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache
from math import gcd
from typing import NamedTuple

from .residue_ring import (
    CapExceeded,
    ENUMERATION_CAP,
    units,
)

# The slice holds O(v**(k-1)) members (43662 at v=300, k=3), and the orbit
# walk visits k*phi(v) images of each orbit; these defaults keep a run in
# seconds.  CLI callers may override per invocation.
DEFAULT_ENUMERATION_CAPS = {3: 300, 4: 60}
FALLBACK_ENUMERATION_CAP = 40


def enumeration_cap(k: int, cap: int | None = None) -> int:
    chosen = cap if cap is not None else DEFAULT_ENUMERATION_CAPS.get(k, FALLBACK_ENUMERATION_CAP)
    return min(chosen, ENUMERATION_CAP)


def ensure_enumerable(v: int, k: int, cap: int | None = None) -> None:
    """Raise CapExceeded when v is too large to enumerate at this k."""
    limit = enumeration_cap(k, cap)
    if v > limit:
        raise CapExceeded(f"v={v} exceeds the enumeration cap {limit} for k={k}")


def _difference_set(S, v: int) -> frozenset[int]:
    """The set of differences s1 - s2 mod v over all pairs from S."""
    S = [s % v for s in S]
    return frozenset((a - b) % v for a in S for b in S)


def is_base_line(S, v: int, k: int | None = None) -> bool:
    """True iff S is a k-subset of Z_v with |S - S| = k*k - k + 1.

    k defaults to |S|; k < 3 is rejected outright since the configuration
    axioms below degenerate there.
    """
    elems = {s % v for s in S}
    if k is None:
        k = len(elems)
    if k < 3:
        raise ValueError(f"base lines need k >= 3, got k={k}")
    if len(elems) != k:
        return False
    return len(_difference_set(elems, v)) == k * k - k + 1


def is_connected(S, v: int) -> bool:
    """True iff the differences of S generate all of Z_v."""
    elems = sorted({s % v for s in S})
    if not elems:
        return False
    s0 = elems[0]
    return gcd(v, *[s - s0 for s in elems[1:]]) == 1 if len(elems) > 1 else v == 1


def _unit_solutions(t: int, e: int, v: int) -> list[int]:
    """The units a of Z_v with a*t = e (mod v), in increasing order.

    A unit preserves gcd(., v), so there are none unless
    gcd(e, v) = gcd(t, v) = g.  Then the congruence is
    a*(t/g) = e/g (mod v/g) with t/g a unit mod v/g, and the solutions
    are the lifts of (e/g) * (t/g)**-1 mod v/g that are units of Z_v.
    Without the gcd check, e // g could drop a remainder and solve a
    different congruence.
    """
    g = gcd(t, v)
    if gcd(e, v) != g:
        return []
    step = v // g
    a = e // g * pow(t // g, -1, step) % step
    if g == 1:
        return [a]  # the one solution, a unit since gcd(e, v) = 1
    return [a for a in range(a, v, step) if gcd(a, v) == 1]


def affine_map_between(S1, S2, v: int) -> tuple[int, int] | None:
    """Least (a, b) lexicographically with a*S1 + b == S2, or None.

    Sets with different canonical forms lie in different orbits and
    return None at once.  Otherwise a valid a sends d = s - s0 with the
    least gcd(d, v) onto a difference e of S2: the candidates are
    _unit_solutions(d, e, v) over those e, in increasing order, and for
    each only the b sending s0 = min S1 into S2 are tried.  Every valid
    a is a candidate, so this is the least pair a scan of all units
    finds.  Equal forms with no map found raise RuntimeError.
    """
    set1 = frozenset(s % v for s in S1)
    set2 = frozenset(s % v for s in S2)
    if len(set1) != len(set2):
        return None
    s0 = min(set1)
    if canonical_form(set1, v) != canonical_form(set2, v):
        return None  # different orbits: no unit can work
    if len(set1) == 1:
        candidates = units(v)  # every unit works
    else:
        d = min(((s - s0) % v for s in set1 if s != s0), key=lambda t: gcd(t, v))
        solved = set()
        for e in {(u - t) % v for t in set2 for u in set2}:
            solved.update(_unit_solutions(d, e, v))
        candidates = sorted(solved)
    for a in candidates:
        base = a * s0
        for b in sorted((t - base) % v for t in set2):
            if all((a * s + b) % v in set2 for s in set1):
                return a, b
    raise RuntimeError(
        f"equal canonical forms mod {v} but no affine map {sorted(set1)} -> {sorted(set2)}"
    )


def _zero_images(S, v: int) -> list[tuple[int, ...]]:
    """The sorted tuples a*(S - x) for each x in S, then each unit a.

    S is first reduced to its sorted residues mod v, and the order is
    that of product(S, units(v)).  Any affine image of S that contains 0
    is among these.  Each shifted point t gives one column a*t over all
    units, and the images are the sorted rows of those columns.
    """
    elems = sorted({s % v for s in S})
    us = units(v)
    images: list[tuple[int, ...]] = []
    for x in elems:
        columns = [[a * t % v for a in us] for t in ((s - x) % v for s in elems)]
        images.extend(map(tuple, map(sorted, zip(*columns))))
    return images


def canonical_form(S, v: int) -> tuple[int, ...]:
    """Lexicographically least sorted tuple among all a*S + b.

    The least image contains 0 (translating the minimum to 0 can only
    shrink the tuple), and its least nonzero point is
    g = min gcd(s - x, v) over distinct s, x in S: a*(s - x) is a
    multiple of gcd(s - x, v), and some unit reaches g.  So only the
    maps y -> a*(y - x) with a in _unit_solutions(s - x, g, v) can give
    the least image: O(k*k*g) candidate images in place of the k*phi(v)
    images through 0.  The tests compare against a full a,b scan.
    """
    elems = sorted({s % v for s in S})
    units(v)  # checks v, with CapExceeded beyond the enumeration cap
    if not elems:
        raise ValueError("empty set has no canonical form")
    if len(elems) == 1:
        return (0,)
    pairs = [(x, (s - x) % v) for x in elems for s in elems if s != x]
    g = min(gcd(t, v) for _, t in pairs)
    best = None
    for x, t in pairs:
        for a in _unit_solutions(t, g, v):
            image = tuple(sorted([a * (s - x) % v for s in elems]))
            if best is None or image < best:
                best = image
    return best


def orbit_size(S, v: int) -> int:
    """Number of distinct affine images of S.

    Counting pairs (image T, element t of T) two ways gives
    |orbit| * k = |images through 0| * v, valid even for periodic S.
    """
    return _orbit_size(S, v, len(set(_zero_images(S, v))))


def _orbit_size(S, v: int, through_zero: int) -> int:
    # S's orbit size from the number of its images through 0
    k = len({s % v for s in S})
    total = through_zero * v
    if total % k:
        raise ArithmeticError(f"orbit of {tuple(S)} mod {v}: {total} point-line pairs, k={k}")
    return total // k


@lru_cache(maxsize=1)  # reused only within one command, at one (v, k, connected)
def _slice(v: int, k: int, connected: bool) -> tuple[tuple[int, ...], ...]:
    # Depth-first growth of X from (0,), one larger point at a time, with
    # an explicit stack so that no call frame or closure outlives the walk.
    # used has bits d and v - d for every difference d of X; banned is
    # the set of points p whose new differences would repeat one:
    # p - x in used for some x in X (used rotated by x), or p - x = y - p
    # for x, y in X (2p = x + y, which for x = y is p - x = v/2).
    if k * k - k + 1 > v:
        return ()
    full = (1 << v) - 1
    halves = [0] * (2 * v - 1)  # halves[s]: the points p with 2p = s mod v
    for p in range(v):
        for s in (2 * p - v, 2 * p, 2 * p + v):
            if 0 <= s < 2 * v - 1:
                halves[s] |= 1 << p
    coprime = {1: full}  # g -> the points p with gcd(g, p) = 1
    out = []
    # entries (X, used, the points p with 2p = x + y for x, y in X, gcd(v, *X))
    stack = [((0,), 0, halves[0], v)]
    while stack:
        X, used, mids, g = stack.pop()
        banned = mids
        for x in X:
            banned |= used << x | used >> (v - x)
        above = X[-1] + 1
        free = full >> above << above & ~banned
        if len(X) + 1 == k:
            if connected:
                if g not in coprime:
                    coprime[g] = sum(1 << p for p in range(v) if gcd(g, p) == 1)
                free &= coprime[g]
            while free:
                low = free & -free
                out.append(X + (low.bit_length() - 1,))
                free ^= low
            continue
        free &= full >> (k - len(X) - 1)  # leave room for the later points
        while free:  # largest first, so the stack pops the least
            p = free.bit_length() - 1
            free ^= 1 << p
            grown, grown_mids = used, mids | halves[2 * p]
            for x in X:
                grown |= 1 << (p - x) | 1 << (v - p + x)
                grown_mids |= halves[x + p]
            stack.append((X + (p,), grown, grown_mids, gcd(g, p)))
    return tuple(out)


class SliceOrbit(NamedTuple):
    """One affine orbit of the translation slice.

    rep is the orbit's canonical form.  members lists every slice member
    in slice order as (X, a, x) with X = a*(rep - x), so the affine map
    y -> a**-1 * y + x carries X onto rep.
    """

    rep: tuple[int, ...]
    members: tuple[tuple[tuple[int, ...], int, int], ...]

    def size(self, v: int) -> int:
        """Number of distinct affine images of rep, as `orbit_size` counts them."""
        return _orbit_size(self.rep, v, len(self.members))


def slice_orbits(v: int, k: int, connected: bool) -> Iterator[SliceOrbit]:
    """The affine orbits of the slice of base lines through 0.

    The slice is walked in sorted order, so the first member of an orbit
    reached is its least, which is its canonical form (the least affine
    image contains 0).  One pass over the images a*(rep - x) then finds
    the whole orbit together with each member's witness: the images are
    looked up in a {member: slice index} table, and each member keeps
    its first (a, x) in product order.  Members are marked by slice
    index, so nothing per member outlives its orbit.  The walk raises
    ArithmeticError unless every image of rep lies in the slice and in
    no earlier orbit (an image below rep would be in one), naming the
    first offending image in product order.
    """
    if k < 3:
        raise ValueError(f"base lines need k >= 3, got k={k}")
    slice_ = _slice(v, k, connected)
    position = dict(zip(slice_, range(len(slice_))))
    seen = bytearray(len(slice_))
    for i, rep in enumerate(slice_):
        if seen[i]:
            continue
        us = units(v)
        n = len(us)
        images = _zero_images(rep, v)
        indices = list(map(position.get, images))
        # each member's first position p in product order: the least p
        # is written last; p is (rep[p // n], us[p % n]) as (x, a)
        first = dict(zip(reversed(indices), range(len(indices) - 1, -1, -1)))
        if None in first or any(map(seen.__getitem__, first)):
            for p, j in enumerate(indices):
                if j is None:
                    raise ArithmeticError(f"image {images[p]} of {rep} mod {v} is not in the slice")
                if seen[j]:
                    raise ArithmeticError(f"orbits of {slice_[j]} and {rep} mod {v} overlap")
        order = sorted(first)
        for j in order:
            seen[j] = 1
        ps = list(map(first.__getitem__, order))
        members = zip(
            map(slice_.__getitem__, order),
            map(us.__getitem__, map(n.__rmod__, ps)),
            map(rep.__getitem__, map(n.__rfloordiv__, ps)),
        )
        yield SliceOrbit(rep, tuple(members))


def _check_enumeration(
    v: int, k: int, expand: bool, representatives_only: bool, cap: int | None
) -> None:
    # the argument checks of enumerate_base_lines, in its order
    if k < 3:
        raise ValueError(f"base lines need k >= 3, got k={k}")
    if expand and representatives_only:
        raise ValueError("expand and representatives_only are mutually exclusive")
    ensure_enumerable(v, k, cap)


def enumerate_base_lines(
    v: int,
    k: int,
    *,
    connected_only: bool = False,
    expand: bool = False,
    representatives_only: bool = False,
    cap: int | None = None,
) -> list[tuple[int, ...]]:
    """Base lines of Z_v with |S| = k, in lexicographic order.

    By default only the translation slice (sets containing 0) is
    returned.  ``expand`` lists every base line, ``representatives_only``
    collapses to one canonical representative per affine orbit.  The
    result is empty when k*k - k + 1 > v.
    """
    _check_enumeration(v, k, expand, representatives_only, cap)
    if representatives_only:
        return sorted(orbit.rep for orbit in slice_orbits(v, k, connected_only))
    slice_ = _slice(v, k, connected_only)
    if expand:
        seen = {tuple(sorted((x + b) % v for x in X)) for X in slice_ for b in range(v)}
        return sorted(seen)
    return list(slice_)
