from __future__ import annotations

import random
from functools import cache
from itertools import islice, product

import pytest

from cyconf import baseline, cli
from cyconf.baseline import (
    _component_split,
    _least_images,
    _orbit_walk,
    _slice,
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
)
from cyconf.counting import count_orbit_scan
from cyconf.iso import completeness_report
from cyconf.residue_ring import CapExceeded, inverse, phi, units
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
    # a k that is not an int is refused too, before any slice is built
    for k in (3.0, 4.5):
        for route in (
            lambda: is_base_line((0, 1, 3), 7, k),
            lambda: enumerate_base_lines(13, k),
            lambda: count_orbit_scan(13, k),
            lambda: completeness_report(13, k),
        ):
            with pytest.raises(ValueError, match="k must be an integer, got"):
                route()


def test_is_connected():
    assert is_connected((0, 1, 3), 7)
    assert not is_connected((0, 2, 6), 14)
    assert not is_connected((0, 3, 9), 21)
    assert is_connected((5, 6, 8), 21)


def test_component_split_matches_a_direct_reading():
    # g is read off as the largest divisor of v under which all of S is
    # congruent, and connectivity as the size of the subgroup that the
    # differences generate
    rng = random.Random(23)
    for v in range(1, 301):
        divisors = [d for d in range(1, v + 1) if v % d == 0]
        d = rng.choice(divisors)
        draws = [[], [rng.randrange(-v, 2 * v)], [5, 5 + v, 5 + 2 * v]]  # empty, singleton, one residue thrice
        draws += [[rng.randrange(-v, 2 * v) for _ in range(rng.randint(2, 6))] for _ in range(3)]
        draws.append([3 + d * rng.randrange(v) for _ in range(rng.randint(2, 6))])  # one coset of d*Z_v
        for S in draws:
            elems = sorted({s % v for s in S})
            g, T = _component_split(S, v)
            if not elems:
                assert (g, T) == (v, [])
                assert not is_connected(S, v)
                continue
            m = elems[0]
            assert g == max(d for d in divisors if all((s - m) % d == 0 for s in elems))
            assert [m + g * t for t in T] == elems
            span, frontier = {0}, [0]
            while frontier:
                x = frontier.pop()
                for y in {(x + s - m) % v for s in elems} - span:
                    span.add(y)
                    frontier.append(y)
            assert len(span) == v // g
            assert is_connected(S, v) == (len(span) == v)


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
    # with every least image made equal, and a map that does not carry
    # S1 onto S2, two different orbits must raise, not answer None
    monkeypatch.setattr(baseline, "_least_images", lambda S, v: ((0,), [(1, 0)]))
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


def test_least_images_checks_the_modulus_before_reducing():
    # v = 0 is refused before any s % v, and the empty set by
    # _least_images, for the orbit size as for the canonical form
    for route in (canonical_form, orbit_size):
        with pytest.raises(ValueError, match="modulus must be a positive integer, got 0"):
            route((0, 1, 3), 0)
    with pytest.raises(ValueError, match="empty set has no canonical form"):
        orbit_size((), 7)


def test_canonical_form_is_orbit_invariant():
    for v in (9, 13):
        for S in enumerate_base_lines(v, 3):
            c = canonical_form(S, v)
            for a in units(v):
                for b in (0, 1, v - 2):
                    assert canonical_form(affine_image(S, a, b, v), v) == c


def _least_image_scan(S, v):
    # the least a*(S - x) over every x in S and unit a, and every (a, x) reaching it
    elems = sorted({s % v for s in S})
    found = [(sorted([a * (s - x) % v for s in elems]), a, x) for x in elems for a in units(v)]
    least = min(found)[0]
    return tuple(least), sorted((a, x) for image, a, x in found if image == least)


def test_least_images_lists_every_map_onto_the_form_once():
    # every slice member at v = 7..40 for k = 3 and 4, then seeded sets of
    # size 1..6 at v <= 300; the maps onto the form number |stabiliser|,
    # which the orbit size, counted from the images through 0 that the
    # independent _zero_images lists once per orbit, fixes
    rng = random.Random(22)
    cases = [(S, v) for k in (3, 4) for v in range(7, 41) for S in _slice(v, k, False)]
    for _ in range(600):
        v = rng.randint(1, 300)
        cases.append((rng.sample(range(v), rng.randint(1, min(6, v))), v))
    sized = cache(lambda form, v: len(set(_zero_images(form, v))) * v // len(form))
    for S, v in cases:
        form, maps = _least_images(S, v)
        assert (form, sorted(maps)) == _least_image_scan(S, v), (S, v)
        assert len(maps) * sized(form, v) == v * phi(v), (S, v)


def test_orbit_size_matches_direct_expansion():
    cases = [(S, v) for v in (7, 8, 13) for S in enumerate_base_lines(v, 3)]
    # seeded sets of size 1..6 at v <= 40, disconnected and periodic ones included
    rng = random.Random(25)
    structured = 0
    for v in range(1, 41):
        for size in range(1, min(6, v) + 1):
            extra = _structured_subsets(v, size, rng)
            picked = rng.sample(extra, min(2, len(extra)))
            cases += [(S, v) for S in [tuple(rng.sample(range(v), size)), *picked]]
            structured += len(picked)
    assert structured > 50
    for S, v in cases:
        direct = {affine_image(S, a, b, v) for a in units(v) for b in range(v)}
        assert orbit_size(S, v) == len(direct), (S, v)


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
    # within the cap, v must still be a positive integer
    for route in (
        lambda: enumerate_base_lines(0, 3),
        lambda: enumerate_base_lines(7.0, 3),
        lambda: count_orbit_scan(-7, 3),
        lambda: completeness_report(0, 3),
    ):
        with pytest.raises(ValueError, match="modulus must be a positive integer"):
            route()
    with pytest.raises(CapExceeded, match="exceeds the enumeration cap 10000 for k=3"):
        ensure_enumerable(10**10, 3, cap=10**10)


ENGINE_CASES = [(v, 3) for v in range(7, 41)] + [(v, 4) for v in range(13, 26)]


@pytest.mark.parametrize("connected", [True, False])
def test_slice_orbits_partition_the_slice(connected):
    # the walk's orbits, each its set of images, partition the slice
    for v, k in ENGINE_CASES:
        orbits = list(_orbit_walk(v, k, connected))
        members = [X for _, _, images in orbits for X in set(images)]
        assert sorted(members) == enumerate_base_lines(v, k, connected_only=connected), (v, k)
        assert [rep for rep, _, _ in orbits] == sorted(rep for rep, _, _ in orbits)
        for rep, size, images in orbits:
            assert canonical_form(rep, v) == rep
            assert size == len(set(images))


@pytest.mark.parametrize("connected", [True, False])
def test_slice_orbit_witnesses_replay(connected):
    # the image at (x, a) in product order is a*(rep - x), and
    # y -> a**-1 * y + x carries it back onto rep
    for v, k in ENGINE_CASES:
        for rep, _, images in _orbit_walk(v, k, connected):
            assert len(images) == k * phi(v)
            for X, (x, a) in zip(images, product(rep, units(v))):
                assert affine_image([s - x for s in rep], a, 0, v) == X
                assert affine_image(X, inverse(a, v), x, v) == rep


@pytest.mark.parametrize("connected", [True, False])
def test_slice_orbits_match_per_member_canonical_forms(connected):
    # the reference: one canonical form per slice member, grouped
    for v, k in ENGINE_CASES:
        groups: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for X in enumerate_base_lines(v, k, connected_only=connected):
            groups.setdefault(canonical_form(X, v), []).append(X)
        walked = {rep: sorted(set(images)) for rep, _, images in _orbit_walk(v, k, connected)}
        assert walked == groups, (v, k)
        assert enumerate_base_lines(
            v, k, connected_only=connected, representatives_only=True
        ) == sorted(groups)


BISECT_WALK_CASES = [
    *((v, 3) for v in range(1, 121)),
    *((v, 4) for v in range(1, 46)),
    *((v, 5) for v in (21, 28, 30, 31)),
    *((v, 6) for v in (31, 36, 40)),
]


@pytest.mark.parametrize("connected", [True, False])
def test_slice_orbits_match_the_bisect_walk(connected):
    # same orbits, same members in slice order, same first witnesses: each
    # member's first (a, x) in the walk's product order
    for v, k in BISECT_WALK_CASES:
        us = units(v)
        walked = []
        for rep, _, images in _orbit_walk(v, k, connected):
            first = dict(zip(reversed(images), reversed([(a, x) for x in rep for a in us])))
            walked.append((rep, tuple((X, *first[X]) for X in sorted(first))))
        assert walked == list(reference_slice_orbits(v, k, connected)), (v, k)


@pytest.mark.parametrize("connected", [True, False])
def test_bare_walk_matches_slice_orbits(connected):
    # the same representatives, member counts and member tuples, witnesses aside
    for v, k in BISECT_WALK_CASES:
        bare = [(rep, size, set(images)) for rep, size, images in _orbit_walk(v, k, connected)]
        dressed = [
            (rep, len(members), {X for X, _, _ in members})
            for rep, members in reference_slice_orbits(v, k, connected)
        ]
        assert bare == dressed, (v, k)


def test_zero_images_match_the_generator():
    rng = random.Random(5)
    cases = [((0, 1, 3), 7), ((16, 14, 13), 13), ((0, 7, 1), 7), ((0, 5, 10), 15), ((), 9)]
    cases += [(tuple(rng.sample(range(-v, 2 * v), rng.randint(1, min(6, 3 * v)))), v) for v in range(1, 50)]
    # the moduli alternate while the shifts t recur: a column is kept per modulus
    cases += [((0, 1, 4, 6), v) for v in (13, 14, 13, 26, 13)]
    for S, v in cases:
        assert _zero_images(S, v) == list(reference_zero_images(S, v)), (S, v)


def test_slice_orbits_sizes_agree_with_orbit_size():
    for v in (13, 21, 28):
        for rep, size, _ in _orbit_walk(v, 3, True):
            assert orbit_size(rep, v) * 3 == size * v


def test_slice_orbits_rejects_small_k():
    with pytest.raises(ValueError):
        list(_orbit_walk(7, 2, True))


def _drop_a_slice_member(monkeypatch):
    # a slice that lost a member no longer holds every image of its orbit
    broken = tuple(X for X in baseline._slice(13, 3, True) if X != (0, 1, 4))
    monkeypatch.setattr(baseline, "_slice", lambda v, k, connected: broken)


def _overlap_two_orbits(monkeypatch):
    # the second representative gains an image in the first orbit
    first, second = (rep for rep, _, _ in islice(_orbit_walk(13, 3, True), 2))
    zero_images = baseline._zero_images

    def images(S, v):
        if tuple(S) == second:
            yield first
        yield from zero_images(S, v)

    monkeypatch.setattr(baseline, "_zero_images", images)


def _lead_second_orbit_with(monkeypatch, first_leads):
    # the second representative's images start with the first
    # representative and (0, 1, 2), which repeats the difference 1 and so
    # is in no slice, in the order first_leads picks
    first, second = (rep for rep, _, _ in islice(_orbit_walk(13, 3, True), 2))
    lead = [first, (0, 1, 2)] if first_leads else [(0, 1, 2), first]
    zero_images = baseline._zero_images

    def images(S, v):
        if tuple(S) == second:
            yield from lead
        yield from zero_images(S, v)

    monkeypatch.setattr(baseline, "_zero_images", images)


BARE_WALK_ROUTES = {
    "completeness_report": lambda: completeness_report(13, 3),
    "count_orbit_scan": lambda: count_orbit_scan(13, 3),
    "representatives_only": lambda: enumerate_base_lines(
        13, 3, connected_only=True, representatives_only=True
    ),
    "enumerate_reps_cli": lambda: cli.main(["enumerate", "--v", "13", "--reps", "--connected"]),
}


@pytest.mark.parametrize("route", sorted(BARE_WALK_ROUTES))
def test_bare_walk_partition_check_raises(monkeypatch, route):
    _drop_a_slice_member(monkeypatch)
    with pytest.raises(ArithmeticError, match="not in the slice"):
        BARE_WALK_ROUTES[route]()


@pytest.mark.parametrize("route", sorted(BARE_WALK_ROUTES))
def test_bare_walk_overlap_check_raises(monkeypatch, route):
    _overlap_two_orbits(monkeypatch)
    with pytest.raises(ArithmeticError, match="overlap"):
        BARE_WALK_ROUTES[route]()


@pytest.mark.parametrize("route", sorted(BARE_WALK_ROUTES))
@pytest.mark.parametrize(
    "first_leads,message",
    [(True, "overlap"), (False, r"image \(0, 1, 2\) of .* is not in the slice")],
)
def test_the_first_offending_image_names_the_refusal(monkeypatch, route, first_leads, message):
    # the first image in product order that is no unreached member
    # decides the message, whatever the images after it are
    _lead_second_orbit_with(monkeypatch, first_leads)
    with pytest.raises(ArithmeticError, match=message):
        BARE_WALK_ROUTES[route]()


def test_orbit_size_check_raises(monkeypatch):
    # 5 maps onto the form cannot be a stabiliser: 5 does not divide 13 * 12
    monkeypatch.setattr(baseline, "_least_images", lambda S, v: ((0, 1, 3), [(1, 0)] * 5))
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
