from __future__ import annotations

import random
from itertools import islice

import pytest

from cyconf import baseline
from cyconf.baseline import (
    _unit_solutions,
    affine_map_between,
    _difference_set,
    _zero_images,
    canonical_form,
    enumerate_base_lines,
    ensure_enumerable,
    is_base_line,
    is_connected,
    orbit_size,
    slice_orbits,
)
from cyconf.residue_ring import CapExceeded, inverse, units
from helpers import (
    affine_image,
    contains_coset,
    reference_affine_map_between,
    reference_slice,
    reference_slice_orbits,
    reference_zero_images,
)

# orbit counts frozen from the union-find scan over the whole slice
ORBITS_K3 = {7: 1, 8: 1, 9: 1, 10: 1, 11: 1, 12: 3, 13: 2, 14: 2, 15: 4, 16: 3, 21: 6}

SLICE_SIZES_K3 = {7: 6, 13: 48, 21: 156, 49: 1050}


def _full_affine_scan(S, v):
    return min(affine_image(S, a, b, v) for a in units(v) for b in range(v))


def test_difference_set_fano():
    assert _difference_set((0, 1, 3), 7) == frozenset(range(7))


def test_difference_set_contains_zero_and_negatives():
    d = _difference_set((0, 2, 9), 16)
    assert 0 in d
    assert all((-x) % 16 in d for x in d)


def test_is_base_line_spots():
    assert is_base_line((0, 1, 3), 7)
    assert is_base_line((0, 1, 3), 8)
    assert not is_base_line((0, 1, 2), 8)  # difference 1 repeats
    assert not is_base_line((0, 1, 3), 6)  # 7 differences cannot fit in Z_6
    assert is_base_line((0, 2, 6), 14)  # valid but disconnected
    assert not is_base_line((0, 1, 2, 9), 16)
    assert not is_base_line((0, 1, 9, 10), 16)
    assert is_base_line((0, 1, 3, 9), 13)


def test_is_base_line_rejects_small_k():
    with pytest.raises(ValueError):
        is_base_line((0, 1), 7)
    with pytest.raises(ValueError):
        is_base_line((0, 1, 3), 7, k=2)


def test_is_connected():
    assert is_connected((0, 1, 3), 7)
    assert not is_connected((0, 2, 6), 14)
    assert not is_connected((0, 3, 9), 21)
    assert is_connected((5, 6, 8), 21)


def test_contains_coset_spots():
    # {1, 9} is a coset of the order-2 subgroup {0, 8}
    assert contains_coset((0, 1, 2, 9), 16)
    assert not contains_coset((0, 1, 3), 7)
    assert contains_coset((0, 7, 14), 21)


def test_base_lines_never_contain_cosets():
    for v in range(7, 31):
        for S in enumerate_base_lines(v, 3):
            assert not contains_coset(S, v)


def test_affine_image():
    assert affine_image((0, 1, 3), 5, 0, 8) == (0, 5, 7)
    assert affine_image((0, 1, 3), 1, 2, 7) == (2, 3, 5)


def test_affine_map_between_least_witness():
    # both a=5 and a=7 send {0,1,3} onto {0,5,7} mod 8; the least pair wins
    assert affine_map_between((0, 1, 3), (0, 5, 7), 8) == (5, 0)
    a, b = affine_map_between((0, 1, 3), (2, 3, 5), 7)
    assert affine_image((0, 1, 3), a, b, 7) == (2, 3, 5)


def test_affine_map_between_absent():
    assert affine_map_between((0, 1, 3), (0, 1, 4), 13) is None
    assert affine_map_between((0, 1), (0, 1, 3), 7) is None


def test_affine_map_between_raises_when_equal_forms_have_no_map(monkeypatch):
    # with every canonical form made equal, two different orbits must raise, not answer None
    monkeypatch.setattr(baseline, "canonical_form", lambda S, v: (0,))
    with pytest.raises(RuntimeError, match="no affine map"):
        affine_map_between((0, 1, 3), (0, 1, 4), 13)


def test_affine_map_between_replays():
    for v in (8, 13, 16):
        for S in enumerate_base_lines(v, 3):
            T = affine_image(S, units(v)[-1], 1, v)
            a, b = affine_map_between(S, T, v)
            assert affine_image(S, a, b, v) == T


def test_affine_map_between_matches_the_unit_scan():
    # seeded pairs over v 1..300 and |S| 1..6, 70% of them affine images,
    # with v = 1 and single points included
    rng = random.Random(12)
    cases = [((0,), (0,), 1), ((3,), (5,), 7), ((0,), (4,), 8), ((2,), (2,), 2), ((0, 1), (0,), 5)]
    for _ in range(3000):
        v = rng.randint(1, 300)
        S1 = rng.sample(range(v), rng.randint(1, min(6, v)))
        if rng.random() < 0.7:
            S2 = affine_image(S1, rng.choice(units(v)), rng.randrange(v), v)
        else:
            S2 = rng.sample(range(v), len(S1))
        cases.append((S1, S2, v))
    found = 0
    for S1, S2, v in cases:
        want = reference_affine_map_between(S1, S2, v)
        assert affine_map_between(S1, S2, v) == want, (S1, S2, v)
        found += want is not None
    assert 0.6 * len(cases) < found < len(cases)
    assert affine_map_between((0,), (0,), 1) == (0, 0)
    assert affine_map_between((3,), (5,), 7) == (1, 2)


def test_zero_slice_orbit_contents():
    orb = frozenset(_zero_images((0, 1, 3), 7))
    assert all(0 in X for X in orb)
    assert len(orb) == 6
    assert (0, 1, 3) in orb


def test_canonical_form_and_orbit_size_reduce_to_residues():
    # 7 = 0 mod 7, so (0, 7, 1) is the 2-set {0, 1}: 6 images through 0,
    # 6 * 7 / 2 = 21 images in all
    assert canonical_form((0, 7, 1), 7) == (0, 1)
    assert orbit_size((0, 7, 1), 7) == 21
    assert canonical_form((16, 14, 13), 13) == canonical_form((0, 1, 3), 13)
    assert orbit_size((16, 14, 13), 13) == orbit_size((0, 1, 3), 13)


def _structured_subsets(v, size, rng):
    # disconnected sets (every point a multiple of some d | v, d > 1) and
    # periodic ones (unions of cosets of a subgroup), where the least
    # gcd of a difference with v exceeds 1
    out = []
    for d in range(2, v):
        if v % d == 0 and v // d >= size:
            out.append(tuple(rng.sample(range(0, v, d), size)))
        if v % d == 0 and size % (v // d) == 0 and size // (v // d) <= d:
            cosets = rng.sample(range(d), size // (v // d))
            out.append(tuple(c + j * d for c in cosets for j in range(v // d)))
    return out


def test_canonical_form_matches_full_affine_scan():
    for v in range(7, 17):
        for S in enumerate_base_lines(v, 3):
            assert canonical_form(S, v) == _full_affine_scan(S, v)
    # seeded subsets of every size up to 7, disconnected and periodic ones included
    rng = random.Random(12)
    checked = structured = 0
    for v in range(1, 61):
        for size in range(1, min(7, v) + 1):
            picks = [tuple(rng.sample(range(v), size)) for _ in range(2)]
            extra = _structured_subsets(v, size, rng)
            for S in picks + rng.sample(extra, min(2, len(extra))):
                assert canonical_form(S, v) == _full_affine_scan(S, v), (v, S)
                checked += 1
            structured += min(2, len(extra))
    assert checked > 700 and structured > 100


def test_canonical_form_on_unreduced_and_repeated_points():
    # points are reduced mod v first; repeats collapse
    assert canonical_form((3, 3, 10, 17), 7) == (0,)
    assert canonical_form((1, 14, 2, 15), 13) == canonical_form((1, 2), 13) == (0, 1)
    assert canonical_form((-1, 5, 30), 12) == _full_affine_scan((11, 5, 6), 12)


def test_canonical_form_cap_and_empty_set():
    with pytest.raises(CapExceeded, match="modulus 10001 exceeds the enumeration cap 10000"):
        canonical_form((0, 1, 3), 10001)
    with pytest.raises(CapExceeded, match="enumeration cap"):
        canonical_form((), 10001)
    with pytest.raises(ValueError, match="empty set"):
        canonical_form((), 7)


def test_canonical_form_is_orbit_invariant():
    for v in (9, 13):
        for S in enumerate_base_lines(v, 3):
            c = canonical_form(S, v)
            for a in units(v):
                for b in (0, 1, v - 2):
                    assert canonical_form(affine_image(S, a, b, v), v) == c


def test_orbit_size_matches_direct_expansion():
    for v in (7, 8, 13):
        for S in enumerate_base_lines(v, 3):
            direct = {affine_image(S, a, b, v) for a in units(v) for b in range(v)}
            assert orbit_size(S, v) == len(direct)


def test_orbit_size_on_periodic_sets():
    # {0,5,10} is its own translate by 5; the pair-counting identity
    # must still hold
    S = (0, 5, 10)
    direct = {affine_image(S, a, b, 15) for a in units(15) for b in range(15)}
    assert orbit_size(S, 15) == len(direct)


SLICE_REFERENCE_CASES = [
    *((v, 3) for v in range(1, 61)),
    *((v, 4) for v in range(1, 41)),
    *((v, 5) for v in range(1, 33)),
    (31, 6),
]


@pytest.mark.parametrize("connected", [False, True])
def test_slice_matches_reference_filter(connected):
    for v, k in SLICE_REFERENCE_CASES:
        assert baseline._slice(v, k, connected) == reference_slice(v, k, connected), (v, k)


def test_enumerate_slice_sizes():
    for v, n in SLICE_SIZES_K3.items():
        assert len(enumerate_base_lines(v, 3, connected_only=True)) == n


def test_enumerate_empty_when_v_too_small():
    for v in range(1, 7):
        assert enumerate_base_lines(v, 3) == []
    assert enumerate_base_lines(12, 4) == []  # needs v >= 13


def test_enumerate_slice_members_are_base_lines_through_zero():
    for v in (9, 14, 16):
        slice_ = enumerate_base_lines(v, 3)
        assert len(set(slice_)) == len(slice_)
        for S in slice_:
            assert S[0] == 0
            assert is_base_line(S, v)
        connected = enumerate_base_lines(v, 3, connected_only=True)
        assert connected == [S for S in slice_ if is_connected(S, v)]


def test_enumerate_expand_counts_translates():
    # each full base line T arises from exactly k slice members (T - t
    # for t in T), so |slice| * v = |expanded| * k
    for v in (7, 13, 14):
        slice_ = enumerate_base_lines(v, 3)
        expanded = enumerate_base_lines(v, 3, expand=True)
        assert len(slice_) * v == len(expanded) * 3
        assert all(is_base_line(S, v) for S in expanded)


def test_enumerate_representatives():
    for v, n in ORBITS_K3.items():
        reps = enumerate_base_lines(v, 3, connected_only=True, representatives_only=True)
        assert len(reps) == n
        assert reps == sorted(reps)
        for R in reps:
            assert canonical_form(R, v) == R


def test_enumerate_rejects_expand_with_reps():
    with pytest.raises(ValueError):
        enumerate_base_lines(7, 3, expand=True, representatives_only=True)


def test_enumeration_cap():
    with pytest.raises(CapExceeded):
        enumerate_base_lines(301, 3)
    with pytest.raises(CapExceeded):
        ensure_enumerable(61, 4)
    ensure_enumerable(61, 4, cap=61)
    assert enumerate_base_lines(301, 3, cap=301) is not None


ENGINE_CASES = [(v, 3) for v in range(7, 41)] + [(v, 4) for v in range(13, 26)]


@pytest.mark.parametrize("connected", [True, False])
def test_slice_orbits_partition_the_slice(connected):
    for v, k in ENGINE_CASES:
        slice_ = enumerate_base_lines(v, k, connected_only=connected)
        orbits = list(slice_orbits(v, k, connected))
        members = [X for orbit in orbits for X, _, _ in orbit.members]
        assert sorted(members) == slice_, (v, k)
        for orbit in orbits:
            assert canonical_form(orbit.rep, v) == orbit.rep
            assert [X for X, _, _ in orbit.members] == sorted(X for X, _, _ in orbit.members)


@pytest.mark.parametrize("connected", [True, False])
def test_slice_orbit_witnesses_replay(connected):
    for v, k in ENGINE_CASES:
        for rep, members in slice_orbits(v, k, connected):
            for X, a, x in members:
                assert affine_image([s - x for s in rep], a, 0, v) == X
                assert affine_image(X, inverse(a, v), x, v) == rep


@pytest.mark.parametrize("connected", [True, False])
def test_slice_orbits_match_per_member_canonical_forms(connected):
    # the reference: one canonical form per slice member, grouped
    for v, k in ENGINE_CASES:
        groups: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for X in enumerate_base_lines(v, k, connected_only=connected):
            groups.setdefault(canonical_form(X, v), []).append(X)
        walked = {rep: [X for X, _, _ in members] for rep, members in slice_orbits(v, k, connected)}
        assert walked == groups, (v, k)
        assert enumerate_base_lines(
            v, k, connected_only=connected, representatives_only=True
        ) == sorted(groups)


BISECT_WALK_CASES = [
    *((v, 3) for v in range(1, 121)),
    *((v, 4) for v in range(1, 46)),
    *((v, 5) for v in (21, 28, 30, 31)),
]


@pytest.mark.parametrize("connected", [True, False])
def test_slice_orbits_match_the_bisect_walk(connected):
    # same orbits, same members in the same order, same first witnesses
    for v, k in BISECT_WALK_CASES:
        assert list(slice_orbits(v, k, connected)) == list(reference_slice_orbits(v, k, connected)), (v, k)


def test_zero_images_match_the_generator():
    rng = random.Random(5)
    cases = [((0, 1, 3), 7), ((16, 14, 13), 13), ((0, 7, 1), 7), ((0, 5, 10), 15), ((), 9)]
    cases += [(tuple(rng.sample(range(-v, 2 * v), rng.randint(1, min(6, 3 * v)))), v) for v in range(1, 50)]
    for S, v in cases:
        assert _zero_images(S, v) == list(reference_zero_images(S, v)), (S, v)


def test_slice_orbits_sizes_agree_with_orbit_size():
    for v in (13, 21, 28):
        for rep, members in slice_orbits(v, 3, True):
            assert orbit_size(rep, v) * 3 == len(members) * v


def test_slice_orbits_rejects_small_k():
    with pytest.raises(ValueError):
        list(slice_orbits(7, 2, True))


def test_slice_orbits_partition_check_raises(monkeypatch):
    # a slice that lost a member no longer holds every image of its orbit
    broken = tuple(X for X in baseline._slice(13, 3, True) if X != (0, 1, 4))
    monkeypatch.setattr(baseline, "_slice", lambda v, k, connected: broken)
    with pytest.raises(ArithmeticError, match="not in the slice"):
        list(slice_orbits(13, 3, True))


def test_slice_orbits_overlap_check_raises(monkeypatch):
    # the second representative gains an image in the first orbit
    first, second = (orbit.rep for orbit in islice(slice_orbits(13, 3, True), 2))
    zero_images = baseline._zero_images

    def images(S, v):
        if tuple(S) == second:
            yield first
        yield from zero_images(S, v)

    monkeypatch.setattr(baseline, "_zero_images", images)
    with pytest.raises(ArithmeticError, match="overlap"):
        list(slice_orbits(13, 3, True))


def test_orbit_size_check_raises(monkeypatch):
    monkeypatch.setattr(baseline, "_zero_images", lambda S, v: iter([tuple(S)]))
    with pytest.raises(ArithmeticError):
        orbit_size((0, 1, 3), 13)


def test_unit_solutions_are_the_units_solving_the_congruence():
    # the one solve behind canonical_form, affine_map_between and
    # _fixed_table, against a scan over the units for every t and e
    for v in range(1, 61):
        us = units(v)
        for t in range(v):
            for e in range(v):
                want = [a for a in us if (a * t - e) % v == 0]
                assert _unit_solutions(t, e, v) == want, (t, e, v)
