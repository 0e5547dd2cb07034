"""The bitmask search kernel against the set-based kernel it replaced.

`reference_line_bijections` is the earlier implementation of
`_search.line_bijections`, kept as it was apart from its name and some
annotations: Python sets of system-2 lines per line of system 1, a scan
of every line to pick the next point, and set unions for the
candidates.  The kernel must yield exactly the same sequence, order
included, so that every first witness and every automorphism list stays
as it was.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import islice

import pytest

from cyconf import _search
from cyconf.baseline import enumerate_base_lines
from cyconf.circulant import CirculantMatrix
from cyconf.configuration import CyclicConfiguration, _kept
from cyconf.iso import automorphisms
from cyconf.residue_ring import units
from helpers import affine_image, full_trace


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


def assert_same_sequence(v, lines1, lines2, *, fix_zero, limit=None):
    """Both kernels yield the same bijections in the same order (the first
    ``limit`` of them when given); returns how many were compared."""
    got = list(islice(_search.line_bijections(v, lines1, lines2, fix_zero=fix_zero), limit))
    want = list(islice(reference_line_bijections(v, lines1, lines2, fix_zero=fix_zero), limit))
    assert got == want, (v, lines1, lines2, fix_zero)
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
            assert auts == list(reference_line_bijections(v, lines, lines))
            total += len(auts)
    assert total > 1000


@pytest.mark.parametrize("k,vs", [(3, range(7, 23)), (4, range(13, 26)), (5, (28,))])
def test_pinned_searches_match_reference(k, vs):
    for v in vs:
        reps = _reps(v, k, connected_only=True)
        a = units(v)[len(units(v)) // 2]
        for R in reps:
            image = affine_image(R, a, 3, v)
            C1, C2 = CyclicConfiguration(v, R), CyclicConfiguration(v, image)
            # ISO: every pinned bijection, in order
            assert assert_same_sequence(v, C1.lines(), C2.lines(), fix_zero=True) >= 1
        for R1, R2 in zip(reps, reps[1:]):
            # NON-ISO: both kernels exhaust the same tree without a yield
            lines1 = CyclicConfiguration(v, R1).lines()
            lines2 = CyclicConfiguration(v, R2).lines()
            assert assert_same_sequence(v, lines1, lines2, fix_zero=True) == 0


def test_first_witnesses_match_reference_at_k5():
    rng = random.Random(20)
    for v in (28, 30, 36, 40):
        for R in rng.sample(_reps(v, 5, connected_only=True), 4):
            image = affine_image(R, rng.choice(units(v)), rng.randrange(v), v)
            lines1 = CyclicConfiguration(v, R).lines()
            lines2 = CyclicConfiguration(v, image).lines()
            assert assert_same_sequence(v, lines1, lines2, fix_zero=True, limit=1) == 1


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
        lines1 = A1.translate_system()
        for lines2 in (A2.translate_system(), A3.translate_system()):
            for fix_zero in (True, False):
                assert_same_sequence(v, lines1, lines2, fix_zero=fix_zero, limit=100)
    assert all(len(set(CirculantMatrix(v, S).translate_system())) < v for v, S in periodic)


def _random_system(rng, v):
    # lines of mixed sizes, some points on no line, the odd empty line
    sizes = rng.choices((0, 1, 2, 2, 3, 3, 4), k=rng.randint(1, v + 2))
    return [frozenset(rng.sample(range(v), min(n, v))) for n in sizes]


def test_mixed_systems_match_reference():
    rng = random.Random(11)
    unreached = 0
    for _ in range(300):
        v = rng.randint(1, 9)
        lines1 = _random_system(rng, v)
        perm = rng.sample(range(v), v)
        image = [frozenset(perm[x] for x in L) for L in lines1]
        rng.shuffle(image)
        other = [frozenset(rng.sample(range(v), len(L))) for L in lines1]
        unreached += len(set(range(v)) - set().union(*lines1))
        for lines2 in (image, other):
            for fix_zero in (True, False):
                assert_same_sequence(v, lines1, lines2, fix_zero=fix_zero, limit=200)
    assert unreached > 100


def test_repeated_lines_never_fill_distinct_ones():
    # the leaf multiset check runs only when lines1 repeats a line; here
    # every point map sends both copies of {0, 1} into lines2, which holds
    # it once, so the leaf must still reject
    cases = [
        (3, [{0, 1}, {0, 1}], [{0, 1}, {1, 2}]),
        (6, [{0, 3}, {1, 4}, {2, 5}] * 2, [frozenset({i, (i + 3) % 6}) for i in range(3)]
         + [frozenset({i, (i + 1) % 6}) for i in range(3)]),
    ]
    for v, lines1, lines2 in cases:
        for fix_zero in (True, False):
            assert assert_same_sequence(v, lines1, lines2, fix_zero=fix_zero) == 0
            assert assert_same_sequence(v, lines2, lines1, fix_zero=fix_zero) == 0
    # a repeated system onto itself still yields
    assert assert_same_sequence(3, [{0, 1}, {0, 1}], [{0, 1}, {0, 1}], fix_zero=False) == 2


def test_size_prechecks_and_edges_match_reference():
    cases = [
        (0, [], [], False),
        (0, [], [], True),
        (3, [{0, 1}], [{0, 1}, {1, 2}], False),  # line counts differ
        (3, [{0, 1}, {2}], [{0, 1}, {1, 2}], False),  # size multisets differ
        (3, [{0, 1}], [{2}], False),
        (4, [{0, 1}], [{2, 3}], True),  # 0 cannot stay at 0
        (4, [{1, 2}], [{2, 3}], True),  # 0 is on no line
    ]
    for v, lines1, lines2, fix_zero in cases:
        assert_same_sequence(v, lines1, lines2, fix_zero=fix_zero)


@pytest.mark.parametrize("k,vs", [(3, range(7, 31)), (4, range(13, 26)), (5, (28, 30))])
def test_colour_pruning_keeps_every_pinned_automorphism(k, vs):
    # the refinement's point colouring, fed to both sides, must cut only
    # dead subtrees: the full fix-zero sequences are unchanged, in order.
    # Disconnected representatives only up to v = 16: at (21, {0, 3, 9})
    # alone 1354752 automorphisms fix 0
    compared = 0
    for v in vs:
        for R in _reps(v, k, connected_only=v > 16):
            C = CyclicConfiguration(v, R)
            lines = C.lines()
            full_trace(C)
            colours = _kept(C, "_refined")[1]
            want = list(_search.line_bijections(v, lines, lines, fix_zero=True))
            got = list(_search.line_bijections(v, lines, lines, fix_zero=True, colours=(colours, colours)))
            assert got == want, (v, R)
            compared += len(want)
    assert compared > len(vs)
