"""Isomorphism of cyclic configurations, by multiplier and by exhaustive search.

Two configurations on Z_v are isomorphic when some point bijection maps
the line set of one onto the line set of the other.  Affine maps
x -> a*x + b with a a unit always work when a*S1 + b = S2 (multiplier
equivalence).  The exhaustive route searches all point bijections by
backtracking on the line systems and is the oracle everything else is
measured against; it shares no arithmetic with the multiplier route.

For any k when v is a prime power, a product of two distinct primes, or
coprime to phi(v), multiplier equivalence is complete: isomorphic
configurations are always affinely related.  At k = 3 it is complete
too, by the source paper's count; at k = 4 it is checked (acceptance
criteria 5 and 7: v <= 20 and eight composites up to 49) but not proven.
The dispatcher uses the cheap route exactly in these cases.  Elsewhere it
first compares refinement traces, which prove NON-ISO when they
differ, and searches only when they agree.  The refinement recolours
the lines from the points and then the points from the new line
colours, so each round carries a split two edges on, and it stops when
the point colouring is discrete or gains no class.  The traces are
compared round by round while they are computed, and refinement stops
at the first round in which they differ, since the rest of the trace
cannot make them equal again.  No round is stored, and nothing is kept
on a configuration: the refinement hands its final point colouring to
its caller, and the dispatcher passes the two colourings to the search,
which replays the one map that two discrete colourings name.
`exact_isomorphic` passes none.  Disconnected configurations are
compared through their component decompositions, and the returned
witness is still a full point bijection, assembled from an affine match
of the components and replayable like any other witness.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from itertools import combinations

from . import _search
from ._record import Record
from .baseline import (
    _component_split,
    affine_map_between,
    canonical_form,  # unused here; perfbench's selftest pins this binding
    ensure_enumerable,
    slice_orbits,
)
from .circulant import _translates
from .configuration import CyclicConfiguration, _is_permutation, _maps_lines_onto
from .residue_ring import (
    CapExceeded, _check_cap, _check_enumeration, _two_primes, factorization, inverse, is_ci_order
)

# automorphisms() refuses a group larger than this; three disjoint Fano
# planes, (21, {0, 3, 9}), have 168**3 * 3! maps
AUTOMORPHISM_CAP = 10**5
# and refuses a list of more point images than this: at v = 2017, {1, a, a^2}
# with a of order 3 has only 6051 maps, but they hold 12.2 million images
AUTOMORPHISM_IMAGE_CAP = 5 * 10**6


class IsoWitness(
    Record, namedtuple("IsoWitness", "kind a b point_map", defaults=(None, None, None))
):
    """A verified isomorphism: either an affine map or an explicit bijection.

    kind is "multiplier" (fields a, b) or "explicit" (field point_map);
    the fields a kind does not use default to None.  Either way,
    as_point_map gives the bijection on points.
    """

    __slots__ = ()
    kind: str
    a: int | None
    b: int | None
    point_map: tuple[int, ...] | None

    def as_point_map(self, v: int) -> tuple[int, ...]:
        if self.kind == "multiplier":
            if self.a is None or self.b is None:
                raise ValueError("a multiplier witness needs a and b")
            _check_enumeration(v)  # v entries: refuse huge v first
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
    target = C2.line_set()  # refuses a huge v before the map is expanded or sorted
    sigma = w.as_point_map(C1.v)
    if len(sigma) != C1.v or not _is_permutation(sigma):
        return False
    return _maps_lines_onto(sigma, C1.base, target)


def _refinement_rounds(C: CyclicConfiguration):
    """Yield the refinement trace of C one round at a time.

    Colour refinement of the Levi graph with point 0 individualized:
    point 0 starts in a colour class of its own, the other points in a
    second, and the lines in one class, numbered apart from the points.
    Each round recolours the lines, each by its colour and the sorted
    colours of its points, and then the points, each by its colour and
    the sorted new colours of its lines; either half numbers its new
    classes in the sorted order of their signatures.  So a split crosses
    two edges per round.  The trace is every half's signatures with
    their multiplicities.  Translations are automorphisms, so any
    isomorphism can be composed with one that fixes point 0: isomorphic
    configurations share traces, and unequal traces prove NON-ISO.
    Equal traces prove nothing.

    The rounds end when the point colouring is discrete or its round
    added no point class: the lines were recoloured from the same point
    partition, so both halves are then equitable.  A discrete colouring
    already names the only map that equal traces allow.  Either way the
    final point partition is the coarsest equitable one that refines
    the start, which recolouring every vertex from the old colours at
    once also reaches, in about twice the rounds.

    Works on Z_v directly: point x lies on the lines x - s and line i holds
    the points i + s, so a half's neighbour colours are the line or point
    colour list read through _translates by -S or S.  No round is kept
    and C is left as it was: each round is yielded as (entry, points),
    the trace entry, a (line half, point half) pair, and the point
    colouring of its point half, one colour per point, for the caller to
    compare as it comes.  The last round's points are the final colouring.
    """
    v, S = C.v, C.base
    down = [-s for s in S]
    points = [0] + [1] * (v - 1)
    lines = [0] * v
    before = len(set(points))
    while True:
        line_half, lines = _recoloured(lines, _translates(points, S))
        point_half, points = _recoloured(points, _translates(lines, down))
        yield (line_half, point_half), points
        if len(point_half) in (v, before):
            return
        before = len(point_half)


def _recoloured(colours, around):
    """(entry, colours): the sorted signatures with their counts, and the new colours.

    Each vertex's signature is its colour and the sorted colours of its
    neighbours, listed in around; new colours number the signatures in
    sorted order.
    """
    sigs = list(zip(colours, map(tuple, map(sorted, around))))
    entry = tuple(sorted(Counter(sigs).items()))
    index = {sig: n for n, (sig, _) in enumerate(entry)}
    return entry, list(map(index.__getitem__, sigs))


def _equal_trace_groups(configs) -> list[dict[int, list[int]]]:
    """Groups, two or more strong, of configs with equal refinement traces.

    Each group maps the index of each member, in increasing order, to
    its final point colouring.  The configurations are refined in
    lock-step, one round each per step, and split by the round they
    yield; one that ends up alone is dropped at once, before its last
    round if its trace parts earlier.  So every member of a returned
    group is fully refined, to a discrete point colouring or to the
    coarsest equitable partition, and no two configurations in different
    groups, or outside all of them, share a trace.  Groups come sorted
    by their indices.
    """
    rounds = [_refinement_rounds(C) for C in configs]
    points = [None] * len(configs)  # each configuration's latest colouring
    pending = [list(range(len(configs)))]
    groups = []
    while pending:
        step = []
        for group in pending:
            by_round: dict = {}
            for i in group:
                # None once the trace has ended, which no round equals
                entry, points[i] = next(rounds[i], (None, points[i]))
                by_round.setdefault(entry, []).append(i)
            for entry, same in by_round.items():
                if len(same) > 1:
                    (step if entry is not None else groups).append(same)
        pending = step
    return [{i: points[i] for i in group} for group in sorted(groups)]


def _searched(C1: CyclicConfiguration, C2: CyclicConfiguration, colours=None) -> IsoWitness | None:
    """The identity on equal line sets, else the search's first witness, or None.

    colours, the pair of final colourings of equal refinement traces,
    is passed to the search.
    """
    if C1.line_set() == C2.line_set():
        return IsoWitness(kind="explicit", point_map=tuple(range(C1.v)))
    sigma = next(_search.line_bijections(C1.v, C1.base, C2.base, colours=colours), None)
    return None if sigma is None else IsoWitness(kind="explicit", point_map=sigma)


def exact_isomorphic(
    C1: CyclicConfiguration, C2: CyclicConfiguration, cap: int | None = None
) -> IsoWitness | None:
    """Search all point bijections; witness or None.  The oracle route.

    Equal line sets short-circuit to the identity.  Otherwise a
    backtracking search over the translates of the two bases runs with
    sigma(0) pinned to 0, which is complete because translations are
    automorphisms; it answers bases of different sizes before it starts.
    Deterministic: the first witness in increasing candidate order is
    returned.  Nothing is refined, and no colouring is passed.
    """
    if C1.v != C2.v:
        raise ValueError("isomorphism needs a common point count")
    _check_cap(C1.v, cap, _search.SEARCH_CAP, "exact search")
    return _searched(C1, C2)


def automorphisms(C: CyclicConfiguration, cap: int | None = None) -> list[tuple[int, ...]]:
    """All point bijections preserving the line set, in increasing order.

    Every automorphism is a translation x -> x + t composed with one that
    fixes point 0, so one search lists those and each is composed with
    the v translations.  Raises CapExceeded, before composing any, as
    soon as v times the number fixing 0 exceeds AUTOMORPHISM_CAP, and
    once the search ends if the v entries of each map would exceed
    AUTOMORPHISM_IMAGE_CAP in all.
    """
    v = C.v
    _check_cap(v, cap, _search.SEARCH_CAP, "exact search")
    fixing = []
    for sigma in _search.line_bijections(v, C.base, C.base):
        fixing.append(sigma)
        if v * len(fixing) > AUTOMORPHISM_CAP:
            raise CapExceeded(f"{C} has more than {AUTOMORPHISM_CAP} automorphisms")
    if v * v * len(fixing) > AUTOMORPHISM_IMAGE_CAP:
        raise CapExceeded(
            f"the automorphisms of {C} hold more than {AUTOMORPHISM_IMAGE_CAP} point images"
        )
    return sorted(tuple((y + t) % v for y in sigma) for t in range(v) for sigma in fixing)


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
    C1: CyclicConfiguration, C2: CyclicConfiguration, split1, split2
) -> IsoWitness | None:
    """Match disconnected configurations component by component.

    split1 and split2 are the bases' splits (g, T), with equal g: the
    components live on the residue classes modulo g = v/d.  All
    components of one cyclic configuration are mutually isomorphic, so
    the multiset comparison reduces to an affine match of the T.  The
    witness maps class r to class r through one affine map of Z_d; past
    the enumeration cap a match raises CapExceeded before the map exists.
    """
    v = C1.v
    (g, t1), (_, t2) = split1, split2
    d = v // g
    ab = affine_map_between(t1, t2, d)
    if ab is None:
        return None
    _check_enumeration(v)
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
        split1 = _component_split(C1.base, v)
        split2 = _component_split(C2.base, v)
        if split1[0] != split2[0]:
            return None
        if split1[0] > 1:
            return _component_witness(C1, C2, split1, split2)
        if not _multiplier_complete(v, C1.k):
            _check_cap(v, cap, _search.SEARCH_CAP, "exact search")
            groups = _equal_trace_groups((C1, C2))
            return _searched(C1, C2, tuple(groups[0].values())) if groups else None
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
    traces are NON-ISO; every pair with equal traces is searched, and
    its two final colourings are passed to the search, as in auto.  The
    representatives are refined together round by round, each only
    until its trace is its own.

    Returns a dict with orbit count, member count and a list of
    mismatch descriptions (empty means agreement).
    """
    ensure_enumerable(v, k, cap)
    mismatches: list[str] = []
    orbits = list(slice_orbits(v, k, connected=True))
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
    points = {i: colouring for group in groups for i, colouring in group.items()}
    for i, j in sorted(pair for group in groups for pair in combinations(group, 2)):
        if _searched(reps[i], reps[j], (points[i], points[j])) is not None:
            mismatches.append(f"oracle merges {reps[i].base} ~ {reps[j].base}")
    return {
        "v": v,
        "k": k,
        "orbits": len(orbits),
        "members": sum(len(orbit.members) for orbit in orbits),
        "mismatches": mismatches,
    }
