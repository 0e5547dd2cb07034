"""Base lines: the k-subsets of Z_v whose translates form a configuration.

A k-subset S of Z_v is a base line when its difference set S - S has the
maximal size k*k - k + 1, i.e. all nonzero differences are distinct.  The
v translates S + i are then the lines of a combinatorial (v_k)
configuration.  The affine group {x -> a*x + b : a a unit} acts on base
lines.  For k = 3 its orbits are exactly the isomorphism classes, which
rests on the source paper's count and makes the canonical form here
decisive; for k = 4 that is checked on small v (acceptance criteria 5
and 7) but not proven.

Enumeration works on the translation slice (subsets containing 0): every
base line has exactly k translates containing 0, so nothing is lost and
the slice is v/k times smaller.  The slice is grown point by point in
increasing order, with the differences used so far held as bits of one
int, so a point that would repeat a difference is never placed; the
members come out in lexicographic order.

Two routes find the least affine image.  The orbit walk visits all
k*phi(v) images a*(rep - x) of each orbit once, built a column per point,
and takes the first member it reaches; slice_orbits dresses its orbits
with a witness per member, and the callers that only count or list
representatives read the bare walk.  _least_images solves for the least
image instead, keeping every map onto it: its second point is the least
gcd(s - x, v) over the differences of S, which few units can produce.
It is the one enumeration behind canonical_form, affine_map_between and
orbit_size: the maps onto the image number |stabiliser|, which gives the
orbit size.
It and counting's one-pass fixed table find their units through one
solve, _unit_solutions; the orbit walk shares none of it, nor any step
past the slice, so count_orbit_scan can check the one route against the
other.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from functools import lru_cache
from math import gcd

from .residue_ring import (
    CapExceeded,
    _check_enumeration,
    _check_modulus,
    _clamped_cap,
    _residues,
    inverse,
    phi,
    units,
)

# The slice holds O(v**(k-1)) members (43662 at v=300, k=3), and the orbit
# walk visits k*phi(v) images of each orbit; these defaults keep a run in
# seconds.  CLI callers may override per invocation.
DEFAULT_ENUMERATION_CAPS = {3: 300, 4: 60}
FALLBACK_ENUMERATION_CAP = 40


def enumeration_cap(k: int, cap: int | None = None) -> int:
    return _clamped_cap(cap, DEFAULT_ENUMERATION_CAPS.get(k, FALLBACK_ENUMERATION_CAP))


def ensure_enumerable(v: int, k: int, cap: int | None = None) -> None:
    """The enumeration routes' entry check: k, then this k's cap, then the modulus."""
    _require_k(k)
    limit = enumeration_cap(k, cap)
    if v > limit:
        raise CapExceeded(f"v={v} exceeds the enumeration cap {limit} for k={k}")
    _check_modulus(v)


def _difference_set(S, v: int) -> frozenset[int]:
    """The set of differences s1 - s2 mod v over all pairs from the residues S."""
    return frozenset((a - b) % v for a in S for b in S)


def _require_k(k: int) -> None:
    if not isinstance(k, int):
        raise ValueError(f"k must be an integer, got {k!r}")
    if k < 3:
        raise ValueError(f"base lines need k >= 3, got k={k}")


def is_base_line(S, v: int, k: int | None = None) -> bool:
    """True iff S is a k-subset of Z_v with |S - S| = k*k - k + 1.

    k defaults to |S|; k < 3 is rejected outright since the configuration
    axioms below degenerate there.
    """
    elems = _residues(S, v)
    if k is None:
        k = len(elems)
    _require_k(k)
    if len(elems) != k:
        return False
    return len(_difference_set(elems, v)) == k * k - k + 1


def _component_split(S, v: int) -> tuple[int, list[int]]:
    """(g, T) with g = gcd(v, S - min S) and S - min S = g*T, over S mod v.

    The differences of S generate the subgroup of Z_v of order d = v/g,
    so the configuration on S is g disjoint copies of the one on Z_d
    with base T.  The empty set gives (v, []).
    """
    elems = _residues(S, v)
    shifted = [s - elems[0] for s in elems]
    g = gcd(v, *shifted)
    return g, [s // g for s in shifted]


def is_connected(S, v: int) -> bool:
    """True iff S is nonempty and its differences generate all of Z_v."""
    g, T = _component_split(S, v)
    return g == 1 and bool(T)


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

    Sets with different least images lie in different orbits.  Else, for
    one map m2 of S2 onto the least image, m2**-1 o m1 over S1's maps m1
    onto it are all the maps of S1 onto S2, so their least is the least
    pair a scan of all units finds.  It is replayed on S1 before return.
    """
    set1, set2 = _residues(S1, v), _residues(S2, v)
    if len(set1) != len(set2):
        return None
    form1, maps1 = _least_images(set1, v)
    form2, ((a2, x2), *_) = _least_images(set2, v)
    if form1 != form2:
        return None  # different orbits: no unit can work
    # m2**-1(a1*(y - x1)) = c*y + x2 - c*x1 with c = a1 / a2
    inv = inverse(a2, v)
    a, b = min((a1 * inv % v, (x2 - a1 * inv * x1) % v) for a1, x1 in maps1)
    if tuple(sorted((a * s + b) % v for s in set1)) != set2:
        raise RuntimeError(f"no affine map {sorted(set1)} -> {sorted(set2)} mod {v}")
    return a, b


@lru_cache(maxsize=1)  # one modulus at a time, as for _slice
def _unit_columns(v: int) -> dict[int, tuple[int, ...]]:
    # t -> the column (a*t % v for each unit a), filled by _zero_images
    return {}


def _zero_images(S, v: int) -> list[tuple[int, ...]]:
    """The sorted tuples a*(S - x) for each x in S, then each unit a.

    S is first reduced to its sorted residues mod v, and the order is
    that of product(S, units(v)).  Any affine image of S that contains 0
    is among these.  Each shifted point t gives one column a*t over all
    units, and the images are the sorted rows of those columns.  A
    column depends on t and v alone, so each is built once per modulus.
    """
    elems = sorted({s % v for s in S})
    us = units(v)
    table = _unit_columns(v)
    images: list[tuple[int, ...]] = []
    for x in elems:
        columns = []
        for t in ((s - x) % v for s in elems):
            column = table.get(t)
            if column is None:
                column = table[t] = tuple([a * t % v for a in us])
            columns.append(column)
        images.extend(map(tuple, map(sorted, zip(*columns))))
    return images


def _least_images(S, v: int) -> tuple[tuple[int, ...], list[tuple[int, int]]]:
    """S's least affine image, and every (a, x) whose y -> a*(y - x) reaches it.

    The least image holds 0 (translating the minimum to 0 can only shrink
    it), and its least nonzero point is g = min gcd(s - x, v) over
    distinct s, x in S, since a unit reaches gcd(t, v) from t.  So every
    map onto it is y -> a*(y - x), x in S and a in _unit_solutions(s - x,
    g, v): O(k*k*g) candidates, not k*phi(v).  For each x a unit sends
    one s - x at most onto g, so each map is listed once, |stabiliser| in all.
    """
    _check_enumeration(v)
    elems = _residues(S, v)
    if not elems:
        raise ValueError("empty set has no canonical form")
    if len(elems) == 1:
        return (0,), [(a, elems[0]) for a in units(v)]
    pairs = [(x, (s - x) % v) for x in elems for s in elems if s != x]
    g = min(gcd(t, v) for _, t in pairs)
    best, maps = (v,), []  # above every image, since each holds 0
    for x, t in pairs:
        for a in _unit_solutions(t, g, v):
            image = tuple(sorted([a * (s - x) % v for s in elems]))
            if image <= best:
                if image < best:
                    best, maps = image, []
                maps.append((a, x))
    return best, maps


def canonical_form(S, v: int) -> tuple[int, ...]:
    """Lexicographically least sorted tuple among all a*S + b."""
    return _least_images(S, v)[0]


def orbit_size(S, v: int) -> int:
    """Number of distinct affine images of S."""
    return _form_and_orbit_size(S, v)[1]


def _form_and_orbit_size(S, v: int) -> tuple[tuple[int, ...], int]:
    """S's canonical form and orbit size, both from one _least_images search.

    The maps onto S's least image are one coset of its stabiliser in the
    affine group, of order v*phi(v), so the orbit has v*phi(v) / |maps|
    members, valid even for periodic S.
    """
    form, maps = _least_images(S, v)
    size, rest = divmod(v * phi(v), len(maps))
    if rest:
        raise ArithmeticError(f"orbit of {tuple(S)} mod {v}: {len(maps)} maps onto its form")
    return form, size


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


def _orbit_walk(v: int, k: int, connected: bool) -> Iterator[tuple[tuple[int, ...], dict[int, int]]]:
    """The affine orbits of the slice of base lines through 0, bare.

    Yields (rep, first) per orbit, reps in increasing order.  The slice
    is walked in sorted order, so the first member of an orbit reached
    is its least, which is its canonical form (the least affine image
    contains 0).  One pass over the images a*(rep - x) then finds the
    whole orbit: the images are looked up in a {member: slice index}
    table, and first maps each member's slice index to its first
    position p in product(rep, units(v)).  Members are marked by slice
    index, so nothing per member outlives its orbit.  The walk raises
    ArithmeticError unless every image of rep lies in the slice and in
    no earlier orbit (an image below rep would be in one), naming the
    first offending image in product order.
    """
    _require_k(k)
    slice_ = _slice(v, k, connected)
    position = dict(zip(slice_, range(len(slice_))))
    seen = bytearray(len(slice_))
    for i, rep in enumerate(slice_):
        if seen[i]:
            continue
        images = _zero_images(rep, v)
        indices = list(map(position.get, images))
        # the least p is written last
        first = dict(zip(reversed(indices), range(len(indices) - 1, -1, -1)))
        if None in first or any(map(seen.__getitem__, first)):
            for p, j in enumerate(indices):
                if j is None:
                    raise ArithmeticError(f"image {images[p]} of {rep} mod {v} is not in the slice")
                if seen[j]:
                    raise ArithmeticError(f"orbits of {slice_[j]} and {rep} mod {v} overlap")
        for j in first:
            seen[j] = 1
        yield rep, first


class SliceOrbit(namedtuple("SliceOrbit", "rep members")):
    """One affine orbit of the translation slice.

    rep is the orbit's canonical form.  members lists every slice member
    in slice order as (X, a, x) with X = a*(rep - x), so the affine map
    y -> a**-1 * y + x carries X onto rep.
    """

    __slots__ = ()
    rep: tuple[int, ...]
    members: tuple[tuple[tuple[int, ...], int, int], ...]


def slice_orbits(v: int, k: int, connected: bool) -> Iterator[SliceOrbit]:
    """The affine orbits of the slice of base lines through 0, witnessed.

    The orbits of _orbit_walk, reps in increasing order, with each
    member's first (a, x) in product order as its witness.  Raises as
    the walk does.
    """
    _require_k(k)
    slice_ = _slice(v, k, connected)
    for rep, first in _orbit_walk(v, k, connected):
        us = units(v)
        n = len(us)
        order = sorted(first)
        ps = list(map(first.__getitem__, order))
        # p is (rep[p // n], us[p % n]) as (x, a)
        members = zip(
            map(slice_.__getitem__, order),
            map(us.__getitem__, map(n.__rmod__, ps)),
            map(rep.__getitem__, map(n.__rfloordiv__, ps)),
        )
        yield SliceOrbit(rep, tuple(members))


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
    _require_k(k)
    if expand and representatives_only:
        raise ValueError("expand and representatives_only are mutually exclusive")
    ensure_enumerable(v, k, cap)
    if representatives_only:
        return [rep for rep, _ in _orbit_walk(v, k, connected_only)]
    slice_ = _slice(v, k, connected_only)
    if expand:
        seen = {tuple(sorted((x + b) % v for x in X)) for X in slice_ for b in range(v)}
        return sorted(seen)
    return list(slice_)
