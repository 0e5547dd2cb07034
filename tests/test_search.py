"""The bitmask search kernel against the set-based kernel it replaced.

`reference_line_bijections` is the earlier implementation of
`_search.line_bijections`, kept as it was apart from its name and some
annotations: Python sets of system-2 lines per line of system 1, a scan
of every line to pick the next point, set unions for the candidates,
and a multiset check at every leaf.  It takes any two line lists; the
kernel takes two bases and searches their translates.  So the tests
hand the kernel the bases and the reference the translate systems built
from them, and the kernel, which pins point 0, must yield exactly the
reference's pinned sequence, order included, so that every first witness
stays as it was; on bases of more than v/2 points, which the kernel
searches as their complements, the reference gets the complements too.
The reference's unpinned mode lists the whole group independently, the
oracle for `automorphisms`.
"""

from __future__ import annotations

import random
import sys
from collections import Counter
from itertools import islice
from time import process_time

import pytest

from cyconf import _search
from cyconf.baseline import enumerate_base_lines
from cyconf.circulant import CirculantMatrix
from cyconf.configuration import CyclicConfiguration
from cyconf.iso import automorphisms, exact_isomorphic, witness_valid
from cyconf.residue_ring import units
from helpers import affine_image, refined_colours


def reference_line_bijections(v, lines1, lines2, *, fix_zero=False, cap=None):
    if cap is not None and v > cap:
        raise ValueError(f"v={v} exceeds the search cap {cap}")
    lines1 = [frozenset(L) for L in lines1]
    lines2 = [frozenset(L) for L in lines2]
    if len(lines1) != len(lines2):
        return
    if Counter(map(len, lines1)) != Counter(map(len, lines2)):
        return
    m = len(lines1)
    target = Counter(lines2)

    point_lines1: list[list[int]] = [[] for _ in range(v)]
    for i, L in enumerate(lines1):
        for x in L:
            point_lines1[x].append(i)

    sigma: list[int] = [-1] * v
    used = [False] * v
    assigned_in: list[int] = [0] * m  # assigned points per line of system 1
    cand: list[set[int]] = [
        {j for j in range(m) if len(lines2[j]) == len(lines1[i])} for i in range(m)
    ]

    def pick_point() -> int:
        # the unassigned point on the tightest partially-assigned line,
        # falling back to the least unassigned point
        best, best_key = -1, None
        for i in range(m):
            if 0 < assigned_in[i] < len(lines1[i]):
                key = (len(cand[i]), i)
                if best_key is None or key < best_key:
                    pts = [x for x in sorted(lines1[i]) if sigma[x] < 0]
                    if pts:
                        best, best_key = pts[0], key
        if best >= 0:
            return best
        for x in range(v):
            if sigma[x] < 0:
                return x
        return -1

    def candidates(x: int) -> list[int]:
        allowed: set[int] | None = None
        for i in point_lines1[x]:
            pool = set()
            for j in cand[i]:
                pool |= lines2[j]
            allowed = pool if allowed is None else allowed & pool
            if not allowed:
                return []
        if allowed is None:
            return [y for y in range(v) if not used[y]]
        return sorted(y for y in allowed if not used[y])

    def assign(x: int, y: int) -> list[tuple[int, set[int]]] | None:
        trail: list[tuple[int, set[int]]] = []
        for i in point_lines1[x]:
            keep = {j for j in cand[i] if y in lines2[j]}
            trail.append((i, cand[i]))
            cand[i] = keep
            assigned_in[i] += 1
            if not keep:
                undo(x, trail)
                return None
        sigma[x] = y
        used[y] = True
        return trail

    def undo(x: int, trail: list[tuple[int, set[int]]]) -> None:
        for i, old in reversed(trail):
            cand[i] = old
            assigned_in[i] -= 1
        if sigma[x] >= 0:
            used[sigma[x]] = False
            sigma[x] = -1

    def search(depth: int):
        if depth == v:
            if Counter(frozenset(sigma[x] for x in L) for L in lines1) == target:
                yield tuple(sigma)
            return
        x = pick_point()
        for y in candidates(x):
            trail = assign(x, y)
            if trail is None:
                continue
            yield from search(depth + 1)
            undo(x, trail)

    if fix_zero:
        if v == 0:
            return
        trail = assign(0, 0)
        if trail is None:
            return
        yield from search(1)
        undo(0, trail)
    else:
        yield from search(0)


def _translates(v, S):
    """The lines S + t for t = 0..v-1, in order, repeats kept."""
    return [frozenset((s + t) % v for s in S) for t in range(v)]


def _period(v, S):
    """The number of distinct translates of S."""
    return len(set(_translates(v, S)))


def _complement(v, S):
    return tuple(sorted(set(range(v)).difference(S)))


def assert_same_sequence(v, S1, S2, *, limit=None):
    """The kernel on the bases and the reference on their translates yield
    the same bijections fixing 0 in the same order (the first ``limit`` of
    them when given); returns how many were compared.  The kernel searches
    bases of more than v/2 points as their complements, so the reference
    gets the complements' translates there, and every yield must still
    carry the lines of S1, repeats kept, onto those of S2."""
    got = list(islice(_search.line_bijections(v, S1, S2), limit))
    T1, T2 = (_complement(v, S) if 2 * len(S1) > v else S for S in (S1, S2))
    want = list(
        islice(reference_line_bijections(v, _translates(v, T1), _translates(v, T2), fix_zero=True), limit)
    )
    assert got == want, (v, S1, S2)
    lines2 = Counter(_translates(v, S2))
    for sigma in got:
        assert Counter(frozenset(sigma[x] for x in L) for L in _translates(v, S1)) == lines2
    return len(got)


def _reps(v, k, connected_only=False):
    return enumerate_base_lines(v, k, connected_only=connected_only, representatives_only=True)


@pytest.mark.parametrize("k,vmax", [(3, 16), (4, 21)])
def test_automorphism_lists_match_reference(k, vmax):
    total = 0
    for v in range(k * k - k + 1, vmax + 1):
        for R in _reps(v, k):
            C = CyclicConfiguration(v, R)
            lines = C.lines()
            auts = automorphisms(C)
            assert auts == sorted(reference_line_bijections(v, lines, lines))
            total += len(auts)
    assert total > 1000


@pytest.mark.parametrize("k,vs", [(3, range(7, 23)), (4, range(13, 26)), (5, (28,))])
def test_pinned_searches_match_reference(k, vs):
    for v in vs:
        reps = _reps(v, k, connected_only=True)
        a = units(v)[len(units(v)) // 2]
        for R in reps:
            # ISO: every pinned bijection, in order
            assert assert_same_sequence(v, R, affine_image(R, a, 3, v)) >= 1
        for R1, R2 in zip(reps, reps[1:]):
            # NON-ISO: both kernels exhaust the same tree without a yield
            assert assert_same_sequence(v, R1, R2) == 0


def test_first_witnesses_match_reference_at_k5():
    rng = random.Random(20)
    for v in (28, 30, 36, 40):
        for R in rng.sample(_reps(v, 5, connected_only=True), 4):
            image = affine_image(R, rng.choice(units(v)), rng.randrange(v), v)
            assert assert_same_sequence(v, R, image, limit=1) == 1


def test_translate_systems_match_reference():
    # the systems paq_equivalent searches: translates of any support,
    # periodic supports repeating lines
    rng = random.Random(7)
    periodic = [
        (12, (0, 4, 8)), (12, (0, 1, 6, 7)), (10, (0, 2, 5, 7)), (9, (0, 3, 6)), (8, (0, 4))
    ]
    cases = periodic + [
        (v, tuple(rng.sample(range(v), rng.randint(2, min(5, v - 1)))))
        for v in rng.choices(range(5, 15), k=25)
    ]
    for v, support in cases:
        A1 = CirculantMatrix(v, support)
        A2 = CirculantMatrix(v, affine_image(support, rng.choice(units(v)), rng.randrange(v), v))
        A3 = CirculantMatrix(v, tuple(rng.sample(range(v), len(A1.support))))
        for A in (A2, A3):
            if _period(v, A1.support) == _period(v, A.support) or v <= 9:
                assert_same_sequence(v, A1.support, A.support, limit=100)
            else:
                # the reference exhausts a huge tree to reject every leaf
                assert next(_search.line_bijections(v, A1.support, A.support), None) is None
    assert all(_period(v, S) < v for v, S in periodic)


def _random_support(rng, v):
    """A support of Z_v: empty, full, periodic, or of at most 5 points.

    Dense supports are left out: a NON-ISO pair of 9-point supports at
    v = 12 takes both kernels tens of seconds to exhaust.
    """
    kind = rng.randrange(3)
    if kind == 0:
        return rng.choice(((), tuple(range(v))))
    if kind == 1:
        # one or two cosets of the subgroup of order v // d, so its period divides d
        d = rng.choice([d for d in range(1, v + 1) if v % d == 0])
        cosets = rng.sample(range(d), min(d, rng.randint(1, 2)))
        return tuple(sorted(r + d * j for r in cosets for j in range(v // d)))
    return tuple(sorted(rng.sample(range(v), rng.randint(0, min(5, v)))))


def test_random_supports_match_reference():
    # both directions: an affine image, and another support of the same
    # size, which may differ in period.  The reference rejects unequal
    # periods only at its leaves, after a huge tree past v = 9, so there
    # the kernel alone is asked, and must yield nothing
    rng = random.Random(11)
    against_reference = kernel_only = 0
    for _ in range(300):
        v = rng.randint(1, 12)
        S = _random_support(rng, v)
        image = affine_image(S, rng.choice(units(v)), rng.randrange(v), v)
        other = tuple(sorted(rng.sample(range(v), len(S))))
        for S1, S2 in ((S, image), (image, S), (S, other), (other, S)):
            if _period(v, S1) == _period(v, S2):
                assert_same_sequence(v, S1, S2, limit=100)
            elif v <= 9:
                assert assert_same_sequence(v, S1, S2) == 0
                against_reference += 1
            else:
                assert next(_search.line_bijections(v, S1, S2), None) is None
                kernel_only += 1
    assert against_reference > 10 and kernel_only > 10


def test_repeated_lines_never_fill_distinct_ones():
    # the reference rejects each of these at every leaf: a periodic
    # system repeats lines that an aperiodic one holds once.  The kernel
    # compares periods first and yields nothing, in both directions
    cases = [(12, (0, 4, 8), (0, 1, 5)), (6, (0, 3), (0, 1)), (12, (0, 1, 6, 7), (0, 1, 3, 9))]
    for v, S1, S2 in cases:
        assert _period(v, S1) != _period(v, S2)
        assert assert_same_sequence(v, S1, S2) == 0
        assert assert_same_sequence(v, S2, S1) == 0
    # a periodic system onto itself still yields
    assert assert_same_sequence(6, (0, 3), (0, 3)) >= 1


def test_size_prechecks_and_edges_match_reference():
    cases = [
        (3, (0, 1), (0,)),  # sizes differ
        (4, (), (0,)),
        (1, (), ()),  # v = 1, on the empty set and on the full set
        (1, (0,), (0,)),
        (4, (), ()),  # the empty support: every map fixing 0
        (4, (0, 1, 2, 3), (0, 1, 2, 3)),  # the full support: every map fixing 0
    ]
    for v, S1, S2 in cases:
        assert_same_sequence(v, S1, S2)
        assert_same_sequence(v, S2, S1)
    assert assert_same_sequence(1, (), ()) == assert_same_sequence(1, (0,), (0,)) == 1
    assert assert_same_sequence(4, (), ()) == assert_same_sequence(4, (0, 1, 2, 3), (0, 1, 2, 3)) == 6


def test_dense_bases_are_searched_as_their_complements():
    # the complements of (0, 1, 3) and (0, 1, 4) are ISO at v = 11, by the
    # unit 4, and NON-ISO at v = 12 and 13; searched as they are, they took
    # 3 s at v = 12 and 36 s at v = 13
    verdicts = {}
    t0 = process_time()
    for v in (11, 12, 13):
        C1, C2 = (CyclicConfiguration(v, _complement(v, S)) for S in ((0, 1, 3), (0, 1, 4)))
        w = exact_isomorphic(C1, C2)
        assert w is None or witness_valid(C1, C2, w)
        verdicts[v] = w is not None
    assert process_time() - t0 < 1
    assert verdicts == {11: True, 12: False, 13: False}
    # the same bijections as the reference lists from the dense translates
    cases = [(7, (0, 1, 3), 3, 2), (8, (0, 1, 3), 5, 1), (8, (0, 1, 4), 3, 0), (9, (0, 1, 3), 2, 4)]
    for v, S, a, b in cases:
        D1, D2 = _complement(v, S), _complement(v, affine_image(S, a, b, v))
        got = sorted(_search.line_bijections(v, D1, D2))
        want = sorted(
            reference_line_bijections(v, _translates(v, D1), _translates(v, D2), fix_zero=True)
        )
        assert got == want and got, (v, S)


@pytest.mark.parametrize("k,vs", [(3, range(7, 31)), (4, range(13, 26)), (5, (28, 30))])
def test_colour_pruning_keeps_every_pinned_automorphism(k, vs):
    # the refinement's point colouring, fed to both sides, must leave the
    # full fix-zero sequence unchanged, in order, whether a discrete
    # colouring replays or a coarser one leaves the search to run.
    # Disconnected representatives only up to v = 16: at (21, {0, 3, 9})
    # alone 1354752 automorphisms fix 0
    compared = 0
    for v in vs:
        for R in _reps(v, k, connected_only=v > 16):
            colours = refined_colours(CyclicConfiguration(v, R))
            want = list(_search.line_bijections(v, R, R))
            got = list(_search.line_bijections(v, R, R, colours=(colours, colours)))
            assert got == want, (v, R)
            compared += len(want)
    assert compared > len(vs)


def test_a_discrete_colouring_yields_what_the_backtracking_yields():
    # discrete colourings name one map, x -> 2x or 3x or x + 1 here; it is
    # yielded exactly when it fixes 0 and carries lines onto lines, that
    # is when the unrestricted backtracking yields it too
    v, S = 7, (0, 1, 3)  # the Fano plane: 2S = S + 6, and 3S is no line
    searched = list(_search._backtrack(v, S, S))
    c1 = tuple(range(v))
    for sigma, replayed in [
        (range(v), True),
        ([2 * x % v for x in range(v)], True),
        ([3 * x % v for x in range(v)], False),
        ([(x + 1) % v for x in range(v)], False),  # an automorphism, but it moves 0
    ]:
        c2 = [0] * v
        for x, y in enumerate(sigma):
            c2[y] = c1[x]
        sigma = tuple(sigma)
        want = [sigma] if replayed else []
        assert list(_search.line_bijections(v, S, S, colours=(c1, tuple(c2)))) == want
        assert (sigma in searched) == replayed, sigma


def test_exact_search_runs_deeper_than_the_recursion_limit():
    # one stack frame per assigned point, and no Python call per point
    v, S = 1200, (0, 1, 3, 7, 12)
    assert v > sys.getrecursionlimit()
    C1 = CyclicConfiguration(v, S)
    C2 = CyclicConfiguration(v, affine_image(S, 7, 5, v))
    w = exact_isomorphic(C1, C2, cap=v)
    assert w.kind == "explicit" and witness_valid(C1, C2, w)
    assert w.point_map == tuple(7 * x % v for x in range(v))
