"""Isomorphism of cyclic configurations, by multiplier and by exhaustive search.

Two configurations on Z_v are isomorphic when some point bijection maps
the line set of one onto the line set of the other.  Affine maps
x -> a*x + b with a a unit always work when a*S1 + b = S2 (multiplier
equivalence).  The exhaustive route searches all point bijections by
backtracking on the line systems and is the oracle everything else is
measured against; it shares no arithmetic with the multiplier route.

For k = 3 and k = 4, and for any k when v is a prime power, a product
of two distinct primes, or coprime to phi(v), multiplier equivalence is
complete: isomorphic configurations are always affinely related.  The
dispatcher uses the cheap route exactly in those cases.  Elsewhere it
first compares refinement traces, which prove NON-ISO when they
differ, and searches only when they agree.  The traces are compared
round by round while they are computed, and refinement stops at the
first round in which they differ, since the rest of the trace cannot
make them equal again.  Then the refinement's final
point colouring restricts each point's images to its own colour class.
Every bijection fixing point 0 respects that colouring, so the search
loses only subtrees that hold no witness and still returns the first
witness in increasing candidate order.  Disconnected
configurations are compared through their component decompositions, and
the returned witness is still a full point bijection, assembled from an
affine match of the components and replayable like any other witness.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations

from . import _search
from .baseline import (
    affine_map_between,
    canonical_form,  # unused here; perfbench's selftest pins this binding
    ensure_enumerable,
    is_connected,
    slice_orbits,
)
from .configuration import (
    CyclicConfiguration,
    _component_split,
    _kept,
    _maps_lines_onto,
)
from .residue_ring import CapExceeded, _two_primes, factorization, inverse, is_ci_order

EXACT_SEARCH_CAP = 300
# automorphisms() refuses a group larger than this; three disjoint Fano
# planes, (21, {0, 3, 9}), have 168**3 * 3! maps
AUTOMORPHISM_CAP = 10**5


@dataclass(frozen=True)
class IsoWitness:
    """A verified isomorphism: either an affine map or an explicit bijection.

    kind is "multiplier" (fields a, b) or "explicit" (field point_map).
    Either way, as_point_map gives the bijection on points.
    """

    kind: str
    a: int | None = None
    b: int | None = None
    point_map: tuple[int, ...] | None = None

    def as_point_map(self, v: int) -> tuple[int, ...]:
        if self.kind == "multiplier":
            if self.a is None or self.b is None:
                raise ValueError("a multiplier witness needs a and b")
            return tuple((self.a * x + self.b) % v for x in range(v))
        if self.point_map is None:
            raise ValueError("an explicit witness needs a point map")
        return self.point_map


def multiplier_equivalent(v: int, S1, S2) -> tuple[int, int] | None:
    """Least (a, b) lexicographically with a*S1 + b = S2, or None."""
    return affine_map_between(S1, S2, v)


def _multiplier_witness(C1: CyclicConfiguration, C2: CyclicConfiguration) -> IsoWitness | None:
    """The multiplier witness for the least (a, b) with a*S1 + b = S2, or None."""
    ab = affine_map_between(C1.base, C2.base, C1.v)
    return IsoWitness(kind="multiplier", a=ab[0], b=ab[1]) if ab else None


def witness_valid(C1: CyclicConfiguration, C2: CyclicConfiguration, w: IsoWitness) -> bool:
    """Replay a witness: the point map must carry lines onto lines, bijectively."""
    if C1.v != C2.v:
        return False
    sigma = w.as_point_map(C1.v)
    if sorted(sigma) != list(range(C1.v)):
        return False
    return _maps_lines_onto(sigma, C1.base, C2.line_set())


def _refinement_rounds(C: CyclicConfiguration):
    """Yield the refinement trace of C one round at a time.

    Colour refinement of the Levi graph with point 0 individualized:
    points and lines start in separate colour classes, point 0 alone in
    a third.  Each round recolours every vertex by its colour and the
    sorted colours of its neighbours, numbering the new classes in the
    sorted order of those signatures, until the number of classes stops
    growing.  The trace is every round's signatures with their
    multiplicities.  Translations are automorphisms, so any isomorphism
    can be composed with one that fixes point 0: isomorphic
    configurations share traces, and unequal traces prove NON-ISO.
    Equal traces prove nothing.

    Works on Z_v directly: point x lies on the lines x - s and line i
    holds the points i + s, so a round's neighbour colours are the
    rotations of the line and point colour lists by each s in the base,
    zipped.  Only when the last round is reached is (trace, final point
    colouring) kept on C, as "_refined"; a caller that stops earlier
    leaves C unrefined.  A refined C replays its kept trace.
    """
    kept = _kept(C, "_refined")
    if kept:
        yield from kept[0]
        return
    v, S = C.v, C.base
    points = [0] + [1] * (v - 1)
    lines = [2] * v
    classes = len(set(points + lines))
    trace = []
    while True:
        around_points = zip(*[lines[v - s:] + lines[:v - s] for s in S])
        around_lines = zip(*[points[s:] + points[:s] for s in S])
        point_sigs = list(zip(points, map(tuple, map(sorted, around_points))))
        line_sigs = list(zip(lines, map(tuple, map(sorted, around_lines))))
        entry = tuple(sorted(Counter(point_sigs + line_sigs).items()))
        trace.append(entry)
        done = len(entry) == classes
        if done:
            _kept(C, "_refined", lambda: (tuple(trace), tuple(points)))
        yield entry
        if done:
            return
        index = {sig: n for n, (sig, _) in enumerate(entry)}
        points = list(map(index.__getitem__, point_sigs))
        lines = list(map(index.__getitem__, line_sigs))
        classes = len(entry)


def _equal_trace_groups(configs) -> list[list[int]]:
    """Index groups, two or more strong, of configs with equal refinement traces.

    The configurations are refined in lock-step, one round each per
    step, and split by the round they yield; one that ends up alone is
    dropped at once, unrefined unless that was its last round.  So every
    configuration in a returned group is fully refined, and no two
    configurations in different groups, or outside all of them, share a
    trace.  Groups come sorted, each in increasing index order.
    """
    rounds = [_refinement_rounds(C) for C in configs]
    pending = [list(range(len(configs)))]
    groups = []
    while pending:
        step = []
        for group in pending:
            by_round: dict = {}
            for i in group:
                # None once the trace has ended, which no round equals
                by_round.setdefault(next(rounds[i], None), []).append(i)
            for entry, same in by_round.items():
                if len(same) > 1:
                    (step if entry is not None else groups).append(same)
        pending = step
    return sorted(groups)


def _check_exact_cap(v: int, cap: int | None) -> None:
    limit = cap if cap is not None else EXACT_SEARCH_CAP
    if v > limit:
        raise CapExceeded(f"v={v} exceeds the exact search cap {limit}")


def exact_isomorphic(
    C1: CyclicConfiguration, C2: CyclicConfiguration, cap: int | None = None
) -> IsoWitness | None:
    """Search all point bijections; witness or None.  The oracle route.

    Equal line sets short-circuit to the identity.  Otherwise a
    backtracking search over the two line systems runs with sigma(0)
    pinned to 0, which is complete because translations are
    automorphisms.  Deterministic: the first witness in increasing
    candidate order is returned.

    When both configurations have already been refined, unequal traces
    answer None, and equal ones let each point be mapped only into its
    own colour class.  Every bijection fixing 0 respects those classes,
    so the search only skips subtrees that hold no witness, and returns
    the same first witness.  Nothing is refined here otherwise.
    """
    if C1.v != C2.v:
        raise ValueError("isomorphism needs a common point count")
    _check_exact_cap(C1.v, cap)
    if C1.k != C2.k:
        return None
    if C1.line_set() == C2.line_set():
        return IsoWitness(kind="explicit", point_map=tuple(range(C1.v)))
    colours = None
    kept1, kept2 = _kept(C1, "_refined"), _kept(C2, "_refined")
    if kept1 and kept2:
        if kept1[0] != kept2[0]:
            return None
        colours = (kept1[1], kept2[1])
    for sigma in _search.line_bijections(
        C1.v, C1.lines(), C2.lines(), fix_zero=True, colours=colours
    ):
        return IsoWitness(kind="explicit", point_map=sigma)
    return None


def automorphisms(C: CyclicConfiguration, cap: int | None = None) -> list[tuple[int, ...]]:
    """All point bijections preserving the line set, in search order.

    Raises CapExceeded as soon as more than AUTOMORPHISM_CAP are found.
    """
    _check_exact_cap(C.v, cap)
    found = []
    for sigma in _search.line_bijections(C.v, C.lines(), C.lines(), fix_zero=False):
        if len(found) == AUTOMORPHISM_CAP:
            raise CapExceeded(f"{C} has more than {AUTOMORPHISM_CAP} automorphisms")
        found.append(sigma)
    return found


def _multiplier_complete(v: int, k: int) -> bool:
    # complete for k <= 4 always; otherwise for prime powers, products
    # of two distinct primes, and orders coprime to phi(v).  k = 3 rests
    # on the source paper's count of the (v_3) classes, which the
    # acceptance battery's criterion 1 checks against the orbit scan;
    # k = 4 has no cited theorem yet, and no counterexample is known
    if k in (3, 4):
        return True
    return len(factorization(v)) == 1 or _two_primes(v) is not None or is_ci_order(v)


def _component_witness(
    C1: CyclicConfiguration, C2: CyclicConfiguration
) -> IsoWitness | None:
    """Match disconnected configurations component by component.

    Both bases are translated to contain 0; the components then live on
    the residue classes modulo g = v/d.  All components of one cyclic
    configuration are mutually isomorphic, so the multiset comparison
    reduces to equality of g and of the canonical component base.  The
    witness maps class r to class r through one affine map of Z_d.
    """
    v = C1.v
    g, t1 = _component_split(C1)
    g2, t2 = _component_split(C2)
    if g != g2:
        return None
    d = v // g
    ab = affine_map_between(t1, t2, d)
    if ab is None:
        return None
    a, b = ab
    m1, m2 = C1.base[0], C2.base[0]
    sigma = [0] * v
    for x in range(v):
        # undo C1's shift, split into class and quotient, map on Z_d,
        # and reapply C2's shift
        y = (x - m1) % v
        r, t = y % g, y // g
        sigma[x] = (r + g * ((a * t + b) % d) + m2) % v
    return IsoWitness(kind="explicit", point_map=tuple(sigma))


def isomorphic(
    C1: CyclicConfiguration,
    C2: CyclicConfiguration,
    method: str = "auto",
    cap: int | None = None,
) -> IsoWitness | None:
    """Decide isomorphism, dispatching on structure unless forced.

    method "multiplier" trusts affine equivalence outright, "exact" runs
    the backtracking oracle, "solving-set" delegates to the two-prime
    solving-set procedure, and "auto" picks: component comparison for
    disconnected inputs, the multiplier route where it is complete,
    the refinement traces and then the exact search otherwise.
    """
    if C1.v != C2.v:
        raise ValueError("isomorphism needs a common point count")
    v = C1.v
    if method == "exact":
        return exact_isomorphic(C1, C2, cap=cap)
    if method == "solving-set":
        from .solving_sets import solve_iso_pq

        return solve_iso_pq(C1, C2, cap=cap)
    if method == "auto":
        if C1.k != C2.k:
            return None
        conn1 = is_connected(C1.base, v)
        conn2 = is_connected(C2.base, v)
        if conn1 != conn2:
            return None
        if not conn1:
            return _component_witness(C1, C2)
        if not _multiplier_complete(v, C1.k):
            _check_exact_cap(v, cap)
            if not _equal_trace_groups((C1, C2)):
                return None
            return exact_isomorphic(C1, C2, cap=cap)
    elif method != "multiplier":
        raise ValueError(f"unknown method {method!r}")
    # the multiplier route, or auto where multipliers are complete
    return _multiplier_witness(C1, C2)


def _member_maps(v: int):
    """A function (a, x) -> the point map y -> a^-1*y + x on Z_v.

    An orbit member a*(rep - x) goes onto its representative by that
    map, the multiplier witness (a^-1, x).  One table y -> a^-1*y is
    built per unit a, on first use, and the map is that table rotated
    by c = a*x, since a^-1*(y + c) = a^-1*y + x.
    """
    tables: dict[int, tuple[int, ...]] = {}

    def point_map(a: int, x: int) -> tuple[int, ...]:
        table = tables.get(a)
        if table is None:
            a_inv = inverse(a, v)
            table = tables[a] = tuple(a_inv * y % v for y in range(v))
        c = a * x % v
        return table[c:] + table[:c]

    return point_map


def completeness_report(
    v: int,
    k: int,
    *,
    exact_members: int | None = None,
    cap: int | None = None,
) -> dict:
    """Compare the affine-orbit partition with the exact oracle at (v, k).

    Walks the connected translation slice into affine orbits and checks
    that the exact oracle induces the same partition: members must be
    isomorphic to their orbit representative and distinct
    representatives must not be isomorphic.  Isomorphism is an
    equivalence relation, so those two facts pin the whole partition.

    Every member is checked against its representative by replaying the
    affine witness the orbit walk found for it as a point bijection;
    ``exact_members`` of them per orbit (all when None, the first in
    slice order otherwise) are additionally pushed through the
    backtracking oracle.  Two representatives with different refinement
    traces are NON-ISO; every pair with equal traces goes to the
    backtracking oracle.  The representatives are refined together
    round by round, each only until its trace is its own.

    Returns a dict with orbit count, member count and a list of
    mismatch descriptions (empty means agreement).
    """
    ensure_enumerable(v, k, cap)
    mismatches: list[str] = []
    orbits = sorted(slice_orbits(v, k, connected=True))
    reps = [CyclicConfiguration(v, orbit.rep) for orbit in orbits]
    member_map = _member_maps(v)
    for (rep, members), rep_cfg in zip(orbits, reps):
        for idx, (member, a, x) in enumerate(members):
            cfg = CyclicConfiguration(v, member)
            w = IsoWitness(kind="explicit", point_map=member_map(a, x))
            if not witness_valid(cfg, rep_cfg, w):
                mismatches.append(f"affine witness fails replay {member} -> {rep}")
            if exact_members is None or idx < exact_members:
                if exact_isomorphic(cfg, rep_cfg, cap=cap) is None:
                    mismatches.append(f"oracle misses {member} ~ {rep}")
    groups = _equal_trace_groups(reps)
    for i, j in sorted(pair for group in groups for pair in combinations(group, 2)):
        if exact_isomorphic(reps[i], reps[j], cap=cap) is not None:
            mismatches.append(f"oracle merges {reps[i].base} ~ {reps[j].base}")
    return {
        "v": v,
        "k": k,
        "orbits": len(orbits),
        "members": sum(len(orbit.members) for orbit in orbits),
        "mismatches": mismatches,
    }
