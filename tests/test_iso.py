from __future__ import annotations

import random
import tracemalloc
from itertools import combinations
from math import gcd

import networkx as nx
import pytest
from networkx.algorithms.isomorphism import GraphMatcher

from cyconf import _search, baseline, iso
from cyconf.baseline import (
    canonical_form,
    enumerate_base_lines,
    is_base_line,
    is_connected,
    slice_orbits,
)
from cyconf.circulant import CirculantMatrix, paq_equivalent
from cyconf.configuration import CyclicConfiguration
from cyconf.iso import (
    IsoWitness,
    automorphisms,
    completeness_report,
    exact_isomorphic,
    isomorphic,
    multiplier_equivalent,
    witness_valid,
)
from cyconf.residue_ring import CapExceeded, factorization, inverse, is_ci_order, units
from helpers import (
    affine_image,
    full_trace,
    jacobi_partition,
    reference_maps_lines_onto,
    reference_refinement_invariant,
    refined_colours,
    refined_partition,
)

FANO = CyclicConfiguration(7, (0, 1, 3))
MOEBIUS_KANTOR = CyclicConfiguration(8, (0, 1, 3))


def test_witness_point_maps():
    w = IsoWitness(kind="multiplier", a=5, b=0)
    assert w.as_point_map(8) == tuple(5 * x % 8 for x in range(8))
    table = tuple(range(7))
    assert IsoWitness(kind="explicit", point_map=table).as_point_map(7) == table
    with pytest.raises(CapExceeded, match="modulus 20001 exceeds the enumeration cap 10000"):
        IsoWitness(kind="multiplier", a=1, b=0).as_point_map(20001)


def test_witness_valid_checks_bijectivity_and_lines():
    w = IsoWitness(kind="explicit", point_map=(0,) * 7)
    assert not witness_valid(FANO, FANO, w)
    shuffle = IsoWitness(kind="explicit", point_map=(1, 0, 2, 3, 4, 5, 6))
    assert not witness_valid(FANO, FANO, shuffle)
    translation = IsoWitness(kind="multiplier", a=1, b=3)
    assert witness_valid(FANO, FANO, translation)
    # past the enumeration cap it refuses before reading the map, which
    # would raise ValueError here
    C = CyclicConfiguration(20001, (0, 1, 3))
    with pytest.raises(CapExceeded, match="modulus 20001 exceeds the enumeration cap 10000"):
        witness_valid(C, C, IsoWitness(kind="explicit"))


def _reference_witness_valid(C1, C2, w):
    sigma = w.as_point_map(C1.v)
    bijective = sorted(sigma) == list(range(C1.v))
    return bijective and reference_maps_lines_onto(sigma, C1.lines(), C2.line_set())


def test_witness_valid_matches_reference_replay():
    # affine witnesses, searched and component witnesses, automorphisms,
    # random permutations and non-bijections, on base lines and on
    # periodic bases whose lines repeat
    rng = random.Random(3)
    pairs = [
        (CyclicConfiguration(v, S1), CyclicConfiguration(v, S2))
        for v, S1, S2 in [
            (13, (0, 1, 4), (0, 2, 8)), (13, (0, 1, 4), (0, 1, 6)), (21, (0, 1, 5), (0, 2, 10)),
            (26, (0, 2, 6), (0, 4, 12)), (30, (0, 1, 3, 7, 12), (0, 7, 19, 21, 24)),
            (12, (0, 4, 8), (1, 5, 9)), (12, (0, 1, 6, 7), (0, 5, 6, 11)),
            (9, (0, 3, 6), (0, 3, 6)),
        ]
    ]
    verdicts = set()
    for C1, C2 in pairs:
        v = C1.v
        witnesses = [
            IsoWitness(kind="multiplier", a=rng.choice(units(v)), b=rng.randrange(v))
            for _ in range(4)
        ] + [
            IsoWitness(kind="explicit", point_map=tuple(rng.sample(range(v), v))),
            IsoWitness(kind="explicit", point_map=tuple(rng.randrange(v) for _ in range(v))),
            IsoWitness(kind="explicit", point_map=tuple(range(1, v)) + (0,)),
        ]
        for w in (isomorphic(C1, C2), exact_isomorphic(C1, C2)):
            if w is not None:
                witnesses.append(w)
        witnesses += [IsoWitness(kind="explicit", point_map=s) for s in automorphisms(C1)[:20]]
        for w in witnesses:
            for pair in ((C1, C2), (C2, C1), (C1, C1)):
                want = _reference_witness_valid(*pair, w)
                assert witness_valid(*pair, w) == want, (pair, w)
                verdicts.add(want)
    assert verdicts == {True, False}


def test_multiplier_equivalent_least_pair():
    assert multiplier_equivalent(8, (0, 1, 3), (0, 5, 7)) == (5, 0)
    assert multiplier_equivalent(13, (0, 1, 3), (0, 1, 4)) is None


def test_exact_identity_shortcut():
    w = exact_isomorphic(FANO, FANO)
    assert w is not None and w.as_point_map(7) == tuple(range(7))


def test_exact_finds_affine_pairs():
    C2 = CyclicConfiguration(8, (0, 5, 7))
    w = exact_isomorphic(MOEBIUS_KANTOR, C2)
    assert w is not None
    assert witness_valid(MOEBIUS_KANTOR, C2, w)


def test_exact_separates_the_two_classes_at_13():
    C1 = CyclicConfiguration(13, (0, 1, 3))
    C2 = CyclicConfiguration(13, (0, 1, 4))
    assert exact_isomorphic(C1, C2) is None


def test_exact_requires_common_modulus():
    with pytest.raises(ValueError):
        exact_isomorphic(FANO, MOEBIUS_KANTOR)


def test_exact_distinguishes_line_sizes():
    C4 = CyclicConfiguration(13, (0, 1, 3, 9))
    C3 = CyclicConfiguration(13, (0, 1, 3))
    assert exact_isomorphic(C3, C4) is None


def test_exact_cap():
    big = CyclicConfiguration(400, (0, 1, 3))
    with pytest.raises(CapExceeded):
        exact_isomorphic(big, big)
    with pytest.raises(CapExceeded):
        automorphisms(big)


def test_exact_deterministic():
    C2 = CyclicConfiguration(8, (0, 5, 7))
    w1 = exact_isomorphic(MOEBIUS_KANTOR, C2)
    w2 = exact_isomorphic(MOEBIUS_KANTOR, C2)
    assert w1 == w2


def test_automorphisms_refuse_a_huge_group():
    # three disjoint Fano planes: 168**3 * 3! automorphisms
    with pytest.raises(CapExceeded):
        automorphisms(CyclicConfiguration(21, (0, 3, 9)))
    assert len(automorphisms(CyclicConfiguration(12, (0, 4, 8)))) == 31104


def test_automorphisms_refuse_too_many_point_images(monkeypatch):
    # at v = 2017 the unit 294 has order 3 and fixes {1, 294, 294**2}: only
    # 3 maps fix 0, but the 6051 maps of the group hold 12.2 million images
    v, a = 2017, 294
    assert pow(a, 3, v) == 1
    C = CyclicConfiguration(v, (1, a, a * a))
    refusal = f"the automorphisms of {C} hold more than {iso.AUTOMORPHISM_IMAGE_CAP} point images"
    with pytest.raises(CapExceeded) as refused:
        automorphisms(C, cap=v)
    assert str(refused.value) == refusal
    # the refusal is exact: (12, {0, 4, 8}) has 2592 maps fixing 0, so 12 * 12 * 2592 images
    C = CyclicConfiguration(12, (0, 4, 8))
    monkeypatch.setattr(iso, "AUTOMORPHISM_IMAGE_CAP", 12 * 12 * 2592)
    assert len(automorphisms(C)) == 31104
    monkeypatch.setattr(iso, "AUTOMORPHISM_IMAGE_CAP", 12 * 12 * 2592 - 1)
    with pytest.raises(CapExceeded, match="point images"):
        automorphisms(C)


def test_automorphisms_search_only_the_maps_that_fix_zero(monkeypatch):
    # the translations supply every image of 0, so the search draws
    # |Aut|/v maps, and a huge group is refused once v times the draws
    # pass the cap
    draws = []
    line_bijections = _search.line_bijections

    def counting(*args, **kwargs):
        for sigma in line_bijections(*args, **kwargs):
            draws.append(sigma)
            yield sigma

    monkeypatch.setattr(_search, "line_bijections", counting)
    for C, order in ((FANO, 168), (CyclicConfiguration(12, (0, 4, 8)), 31104)):
        draws.clear()
        assert len(automorphisms(C)) == order
        assert len(draws) == order // C.v
    draws.clear()
    C = CyclicConfiguration(280, (0, 40, 120))
    with pytest.raises(CapExceeded, match=f"has more than {iso.AUTOMORPHISM_CAP} automorphisms"):
        automorphisms(C)
    assert len(draws) <= iso.AUTOMORPHISM_CAP // C.v + 1


def test_the_search_builds_no_translate_system_before_an_answer(monkeypatch):
    # the search reads the two bases: automorphisms lists no lines, and
    # paq_equivalent lists them only to read the rows off a bijection, so
    # a periodic support against an aperiodic one answers with none built
    def refuse(A):
        raise RuntimeError(f"the translate system of {A} was built")

    monkeypatch.setattr(CirculantMatrix, "translate_system", refuse)
    assert len(automorphisms(FANO)) == 168
    assert len(automorphisms(CyclicConfiguration(12, (0, 4, 8)))) == 31104
    assert paq_equivalent(CirculantMatrix(18, (0, 6, 12)), CirculantMatrix(18, (0, 1, 5))) is None


def test_automorphism_group_orders():
    assert len(automorphisms(FANO)) == 168
    assert len(automorphisms(MOEBIUS_KANTOR)) == 48


def test_automorphisms_form_a_group():
    auts = automorphisms(MOEBIUS_KANTOR)
    aut_set = set(auts)
    assert tuple(range(8)) in aut_set
    assert tuple((x + 1) % 8 for x in range(8)) in aut_set
    sample = auts[5], auts[17], auts[30]
    for f in sample:
        for g in sample:
            assert tuple(g[f[x]] for x in range(8)) in aut_set
        assert tuple(sorted(f)) == tuple(range(8))


def test_every_automorphism_preserves_lines():
    target = FANO.line_set()
    for sigma in automorphisms(FANO):
        assert {frozenset(sigma[x] for x in L) for L in FANO.lines()} == target


def test_isomorphic_method_dispatch_agrees():
    C1 = CyclicConfiguration(8, (0, 1, 3))
    C2 = CyclicConfiguration(8, (0, 5, 7))
    for method in ("auto", "multiplier", "exact"):
        w = isomorphic(C1, C2, method=method)
        assert w is not None and witness_valid(C1, C2, w)
    C3 = CyclicConfiguration(13, (0, 1, 3))
    C4 = CyclicConfiguration(13, (0, 1, 4))
    for method in ("auto", "multiplier", "exact"):
        assert isomorphic(C3, C4, method=method) is None


def test_isomorphic_solving_set_method():
    C1 = CyclicConfiguration(21, (0, 1, 3))
    C2 = CyclicConfiguration(21, tuple(affine_image((0, 1, 3), 2, 5, 21)))
    w = isomorphic(C1, C2, method="solving-set")
    assert w is not None and witness_valid(C1, C2, w)


def test_isomorphic_rejects_unknown_method():
    with pytest.raises(ValueError):
        isomorphic(FANO, FANO, method="magic")


def test_isomorphic_k_mismatch_is_none():
    assert isomorphic(CyclicConfiguration(13, (0, 1, 3)), CyclicConfiguration(13, (0, 1, 3, 9))) is None


def test_connectivity_mismatch_is_none():
    conn = CyclicConfiguration(26, (0, 1, 3))
    split = CyclicConfiguration(26, (0, 2, 6))
    assert isomorphic(conn, split) is None


def test_disconnected_isomorphic_pair():
    # both decompose into two Fano-class components on Z_13
    C1 = CyclicConfiguration(26, (0, 2, 6))
    C2 = CyclicConfiguration(26, (0, 4, 12))
    w = isomorphic(C1, C2)
    assert w is not None
    assert w.kind == "explicit"
    assert witness_valid(C1, C2, w)


def test_disconnected_distinct_components():
    # components fall in the two different classes mod 13
    C1 = CyclicConfiguration(26, (0, 2, 6))
    C2 = CyclicConfiguration(26, (0, 2, 8))
    assert isomorphic(C1, C2) is None


def test_disconnected_verdicts_match_exact_oracle():
    cases = []
    for v in (14, 21, 26):
        # slice members contain 0, so gcd(v, *S) is their g
        cases.append((v, [S for S in enumerate_base_lines(v, 3) if gcd(v, *S) > 1]))
    # at v=63 the components have g = 3, 7 and 9; connected members (g = 1)
    # pair with disconnected ones, and members of one g with another's
    rng = random.Random(63)
    by_g: dict[int, list] = {}
    for S in enumerate_base_lines(63, 3):
        by_g.setdefault(gcd(63, *S), []).append(S)
    assert sorted(by_g) == [1, 3, 7, 9]
    drawn = [
        S for g, members in sorted(by_g.items())
        for S in rng.sample(members, min(len(members), 4 if g == 1 else 6))
    ]
    cases.append((63, drawn))
    for v, members in cases:
        for S1 in members:
            for S2 in members:
                C1, C2 = CyclicConfiguration(v, S1), CyclicConfiguration(v, S2)
                w = isomorphic(C1, C2)
                exact = exact_isomorphic(C1, C2)
                assert (w is None) == (exact is None), (v, S1, S2)
                if w is not None:
                    assert witness_valid(C1, C2, w)


def test_auto_verdicts_match_exact_on_small_slices():
    for v in (9, 12, 16):
        slice_ = enumerate_base_lines(v, 3, connected_only=True)
        reps = sorted({canonical_form(S, v) for S in slice_})
        for S in slice_:
            for R in reps:
                C1, C2 = CyclicConfiguration(v, S), CyclicConfiguration(v, R)
                w = isomorphic(C1, C2)
                assert (w is not None) == (canonical_form(S, v) == R)
                if w is not None:
                    assert witness_valid(C1, C2, w)


def test_completeness_report_clean():
    rep = completeness_report(13, 3)
    assert rep["orbits"] == 2
    assert rep["members"] == 48
    assert rep["mismatches"] == []
    rep16 = completeness_report(16, 3, exact_members=2)
    assert rep16["orbits"] == 3
    assert rep16["mismatches"] == []


# ------------------------------------------------- the refinement invariant


# bases that are periodic, disconnected or tiny
ODD_BASES = (
    (1, (0,)), (2, (0,)), (2, (0, 1)), (3, (0, 1)), (12, (0, 4, 8)), (12, (0, 1, 6, 7)),
    (9, (0, 3, 6)), (8, (0, 4)), (26, (0, 2, 6)), (21, (0, 3, 9)), (16, (0, 1, 2, 9)),
)


def _reps(v, k):
    return [
        CyclicConfiguration(v, R)
        for R in enumerate_base_lines(v, k, connected_only=True, representatives_only=True)
    ]


def _coloured_levi(C):
    """Levi graph, each vertex coloured by its side and its distance from point 0.

    Pinning point 0 loses no isomorphism (translations are automorphisms)
    and lets VF2 prune; without it VF2 runs for minutes on k=5 pairs.
    """
    G = nx.Graph()
    for i, line in enumerate(C.lines()):
        for p in line:
            G.add_edge(("p", p), ("l", i))
    dist = nx.single_source_shortest_path_length(G, ("p", 0))
    nx.set_node_attributes(G, {n: (n[0], dist[n]) for n in G}, "colour")
    return G


def _three_verdicts(C1, C2):
    """(invariants equal, search finds a bijection, VF2 finds an isomorphism)."""
    searched = next(_search.line_bijections(C1.v, C1.base, C2.base), None)
    matcher = GraphMatcher(
        _coloured_levi(C1), _coloured_levi(C2), node_match=lambda a, b: a["colour"] == b["colour"]
    )
    same = full_trace(C1) == full_trace(C2)
    return same, searched is not None, matcher.is_isomorphic()


def _assert_agree(pairs):
    for C1, C2 in pairs:
        same, searched, vf2 = _three_verdicts(C1, C2)
        assert searched == vf2, (C1, C2)
        assert same == vf2, (C1, C2)  # no collisions are known at these sizes


@pytest.mark.parametrize("v,k", [(v, 3) for v in range(7, 31)] + [(v, 4) for v in range(13, 23)])
def test_invariant_search_and_vf2_agree_on_representatives(v, k):
    reps = _reps(v, k)
    _assert_agree(combinations(reps, 2))
    # and each representative against an affine image of itself
    a = units(v)[-2]
    _assert_agree((R, CyclicConfiguration(v, affine_image(R.base, a, 5, v))) for R in reps)


@pytest.mark.parametrize("v", [28, 30])
def test_invariant_search_and_vf2_agree_at_k5(v):
    # VF2 needs about 0.25 s per pair here and (30, 5) has 406 pairs, so
    # only neighbours in sorted order, plus one affine image
    reps = _reps(v, 5)
    image = CyclicConfiguration(v, affine_image(reps[-1].base, units(v)[-2], 5, v))
    _assert_agree([*zip(reps, reps[1:]), (reps[-1], image)])


def test_invariant_is_a_full_trace():
    inv = full_trace(CyclicConfiguration(13, (0, 1, 3)))
    assert isinstance(inv, tuple) and len(inv) > 1
    assert inv == full_trace(CyclicConfiguration(13, (0, 3, 9)))  # 3 * (0, 1, 3)
    assert inv != full_trace(CyclicConfiguration(13, (0, 1, 4)))


def test_refinement_matches_the_levi_graph_reference():
    # every k=3 representative and an affine image of it, every k=4
    # representative, a seeded sample of k=5 representatives, and bases
    # that are periodic, disconnected or tiny
    rng = random.Random(14)
    cases = list(ODD_BASES)
    for v in range(7, 41):
        for R in enumerate_base_lines(v, 3, representatives_only=True):
            cases += [(v, R), (v, affine_image(R, units(v)[-1], 3, v))]
    for v in range(13, 26):
        cases += [(v, R) for R in enumerate_base_lines(v, 4, representatives_only=True)]
    for v in range(28, 49):
        reps = enumerate_base_lines(v, 5, representatives_only=True, cap=48)
        cases += [(v, R) for R in rng.sample(reps, min(8, len(reps)))]
    for v, S in cases:
        C = CyclicConfiguration(v, S)
        assert full_trace(C) == reference_refinement_invariant(C), (v, S)


def _random_base_line(rng, v, k):
    while True:
        S = (0, *sorted(rng.sample(range(1, v), k - 1)))
        if is_base_line(S, v) and is_connected(S, v):
            return S


def _assert_the_simultaneous_schedule_agrees(configs):
    """The alternating rounds against the simultaneous ones, on one modulus.

    Each final point partition must equal the simultaneous one, in at
    most half its rounds and one more, and the trace groups must be the
    groups of equal simultaneous traces.
    """
    for C in configs:
        trace, partition = jacobi_partition(C)
        assert refined_partition(C) == partition, C
        assert len(full_trace(C)) <= (len(trace) + 1) // 2 + 1, (C, len(trace))
    by_trace: dict = {}
    for i, C in enumerate(configs):
        by_trace.setdefault(jacobi_partition(C)[0], []).append(i)
    want = sorted(group for group in by_trace.values() if len(group) > 1)
    assert [list(group) for group in iso._equal_trace_groups(configs)] == want, configs[0].v


def _with_images(v, bases):
    # each base and an affine image of it, which shares its trace
    a = units(v)[-2]
    return [CyclicConfiguration(v, T) for S in bases for T in (S, affine_image(S, a, 5, v))]


@pytest.mark.parametrize(
    "k,vs,sample",
    [(3, range(7, 41), None), (4, range(13, 26), None), (5, range(28, 49), 12), (6, (36, 40), None)],
)
def test_refinement_ends_at_the_simultaneous_partition(k, vs, sample):
    # every connected representative (a seeded sample of them at k = 5)
    # with an affine image of each
    rng = random.Random(34)
    for v in vs:
        reps = enumerate_base_lines(v, k, connected_only=True, representatives_only=True, cap=v)
        if sample is not None and len(reps) > sample:
            reps = rng.sample(reps, sample)
        _assert_the_simultaneous_schedule_agrees(_with_images(v, reps))


def test_refinement_ends_at_the_simultaneous_partition_on_odd_and_large_bases():
    for v, S in ODD_BASES:
        _assert_the_simultaneous_schedule_agrees([CyclicConfiguration(v, S)])
    rng = random.Random(34)
    for v in sorted(rng.sample(range(49, 2001), 6)) + [2000]:
        S = _random_base_line(rng, v, 5)
        _assert_the_simultaneous_schedule_agrees(_with_images(v, [S]))


def test_refinement_round_counts():
    # a split crosses two edges per round: a short-span base at v = 2000
    # needs 68 rounds (136 when every vertex was recoloured at once)
    assert len(full_trace(CyclicConfiguration(2000, (0, 1, 3, 7, 15)))) == 68
    # a random connected k = 5 base stops at its first discrete point
    # colouring, with no line half in that round
    S = _random_base_line(random.Random(34), 40, 5)
    trace = full_trace(CyclicConfiguration(40, S))
    assert len(trace) == 4 and trace[-1][1] is None
    assert len(trace[-1][0]) == 40 and all(n == 1 for _, n in trace[-1][0])
    # the NON-ISO pair of the CI check parts at round 2, counting from 0
    # (round 3 when every vertex was recoloured at once)
    C1, C2 = (CyclicConfiguration(28, S) for S in ((0, 1, 3, 7, 12), (0, 1, 3, 7, 20)))
    traces = full_trace(C1), full_trace(C2)
    assert traces[0][:2] == traces[1][:2] and traces[0][2] != traces[1][2]


def test_refinement_leaves_the_configuration_as_it_was():
    # the final point colouring, one colour per point, is handed out with
    # the last round and kept nowhere; refining again hands out the same one
    C = CyclicConfiguration(13, (0, 1, 3))
    colours = refined_colours(C)
    assert vars(C) == {}
    assert refined_colours(C) == colours
    assert vars(C) == {}
    assert C == CyclicConfiguration(13, (0, 1, 3))
    assert hash(C) == hash(CyclicConfiguration(13, (0, 1, 3)))
    # point 0 keeps a class of its own, and colour c is the class of the
    # c-th signature in the point half of the trace's last round, so it
    # has that signature's count
    assert isinstance(colours, tuple) and len(colours) == 13
    assert colours.count(colours[0]) == 1
    point_half, _ = full_trace(C)[-1]
    assert all(colours.count(c) == point_half[c][1] for c in colours)


def test_refinement_keeps_no_trace_in_memory():
    # a base of span 15 needs about v/30 rounds, each O(v*k) in size, so
    # a kept trace grows as O(v**2): about 30 MB here
    C1, C2 = (CyclicConfiguration(1000, (0, 1, 3, 7, 15)) for _ in range(2))
    tracemalloc.start()
    try:
        groups = iso._equal_trace_groups((C1, C2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [list(group) for group in groups] == [[0, 1]]
    assert peak < 8 * 2**20, peak


def _first_unpruned(C1, C2):
    return next(_search.line_bijections(C1.v, C1.base, C2.base), None)


def _assert_pruning_keeps_the_witness(pairs):
    # the search given both final colourings, as auto runs it, must
    # return the unpruned search's first yield, whether it replays a
    # discrete pair or backtracks
    for C1, C2 in pairs:
        assert C1.line_set() != C2.line_set()  # else the identity shortcut answers
        assert full_trace(C1) == full_trace(C2)
        colours = (refined_colours(C1), refined_colours(C2))
        first = _first_unpruned(C1, C2)
        w = iso._searched(C1, C2, colours)
        assert (w.point_map if w else None) == first, (C1, C2)


@pytest.mark.parametrize("k,vs", [(3, range(7, 31)), (4, range(13, 23)), (5, (28, 30, 33, 36))])
def test_pruned_search_returns_the_unpruned_witness(k, vs):
    # member/rep pairs, a few members per orbit, and every pair of
    # representatives with equal invariants (none are known at these
    # sizes); the other representative pairs must answer NON-ISO, pruned
    # by colourings from unequal traces
    rng = random.Random(k)
    for v in vs:
        orbits = list(slice_orbits(v, k, connected=True))
        reps = [CyclicConfiguration(v, orbit.rep) for orbit in orbits]
        pairs = []
        for orbit, rep in zip(orbits, reps):
            members = [m for m, _, _ in orbit.members if m != orbit.rep]
            pairs += [(CyclicConfiguration(v, m), rep) for m in rng.sample(members, min(3, len(members)))]
        for C1, C2 in combinations(reps, 2):
            if full_trace(C1) == full_trace(C2):
                pairs.append((C1, C2))
            else:
                assert iso._searched(C1, C2, (refined_colours(C1), refined_colours(C2))) is None
        pairs = [(C1, C2) for C1, C2 in pairs if C1.line_set() != C2.line_set()]
        assert pairs
        _assert_pruning_keeps_the_witness(pairs)


# 56 and 84 are neither prime powers nor products of two primes, so auto
# takes the exact route there
K6_PAIRS = [
    (CyclicConfiguration(v, S), CyclicConfiguration(v, affine_image(S, a, b, v)))
    for v, S, a, b in [
        (56, (0, 4, 7, 16, 21, 29), 3, 10),
        (56, (0, 4, 7, 16, 21, 29), 45, 7),
        (84, (0, 1, 3, 7, 25, 38), 5, 2),
        (84, (0, 1, 3, 7, 25, 38), 71, 40),
    ]
]


def test_pruned_search_returns_the_unpruned_witness_at_k6():
    _assert_pruning_keeps_the_witness(K6_PAIRS)
    for C1, C2 in K6_PAIRS:
        assert isomorphic(C1, C2) == exact_isomorphic(C1, C2)


def _discrete(C):
    return len(set(refined_colours(C))) == C.v


def test_discrete_colourings_replay_the_search_witness(monkeypatch):
    # a discrete final colouring names the one bijection fixing 0 that
    # respects it, so auto replays that map and never searches; it must
    # be the oracle's first witness.  The moduli are the benchmark's k = 5
    # exact route
    rng = random.Random(5)
    pairs = []
    for v in (28, 30, 36, 40, 42, 44, 45, 48):
        reps = enumerate_base_lines(v, 5, connected_only=True, representatives_only=True, cap=v)
        for R in rng.sample(reps, min(4, len(reps))):
            image = affine_image(R, rng.choice(units(v)), rng.randrange(v), v)
            pairs.append((CyclicConfiguration(v, R), CyclicConfiguration(v, image)))
    pairs = [pair for pair in pairs + K6_PAIRS if all(map(_discrete, pair))]
    pairs = [(C1, C2) for C1, C2 in pairs if C1.line_set() != C2.line_set()]
    assert len(pairs) >= 30
    want = [exact_isomorphic(C1, C2) for C1, C2 in pairs]
    assert None not in want

    def refuse(*args, **kwargs):
        raise AssertionError("a discrete pair was searched")

    monkeypatch.setattr(_search, "_backtrack", refuse)
    assert [isomorphic(C1, C2) for C1, C2 in pairs] == want
    # a colour of one colouring that the other lacks answers NON-ISO
    C1, C2 = pairs[0]
    c1, c2 = refined_colours(C1), refined_colours(C2)
    assert iso._searched(C1, C2, (c1, tuple(c + C2.v for c in c2))) is None


def test_a_non_discrete_colouring_keeps_the_search(monkeypatch):
    # (28, {9, 14, 16, 22, 26}) refines to 12 point classes, so auto
    # backtracks, unrestricted, and returns the unpruned first witness
    C1 = CyclicConfiguration(28, (9, 14, 16, 22, 26))
    C2 = CyclicConfiguration(28, affine_image(C1.base, 3, 5, 28))
    assert len(set(refined_colours(C1))) == 12
    want = exact_isomorphic(C1, C2)
    assert want is not None and want.point_map == _first_unpruned(C1, C2)
    searched = []
    backtrack = _search._backtrack

    def recording(*args, **kwargs):
        searched.append((args, kwargs))
        return backtrack(*args, **kwargs)

    monkeypatch.setattr(_search, "_backtrack", recording)
    assert isomorphic(C1, C2) == want
    assert searched == [((28, C1.base, C2.base), {})]


def test_auto_replays_a_discrete_pair_in_bounded_memory():
    # a random connected base line and an affine image: the search kept a
    # copy of its line masks per assigned point, 64 MB here
    v = 1500
    C1 = CyclicConfiguration(v, (0, 130, 276, 523, 1166))
    C2 = CyclicConfiguration(v, affine_image(C1.base, 227, 1014, v))
    tracemalloc.start()
    try:
        w = isomorphic(C1, C2, cap=v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert w is not None and witness_valid(C1, C2, w)
    assert peak < 16 * 2**20, peak


def test_exact_isomorphic_ignores_what_ran_before_it(monkeypatch):
    # auto refines both configurations and searches with their final
    # colourings, and completeness_report refines its representatives;
    # neither leaves anything on a configuration, so the exact route then
    # runs its one unrestricted search, with the same answers
    C1, C3 = _reps(28, 5)[:2]
    C2 = CyclicConfiguration(28, affine_image(C1.base, 3, 5, 28))
    pairs = [(C1, C2), (C1, C3)]
    verdicts = [isomorphic(*pair) for pair in pairs]
    assert verdicts[0] is not None and verdicts[1] is None
    assert completeness_report(28, 5, exact_members=0)["mismatches"] == []
    for C in (C1, C2, C3):
        assert set(vars(C)) <= {"_lines", "_line_set"}, C
    searched = []
    line_bijections = _search.line_bijections

    def recording(*args, **kwargs):
        searched.append(kwargs["colours"])
        return line_bijections(*args, **kwargs)

    monkeypatch.setattr(_search, "line_bijections", recording)
    assert [exact_isomorphic(*pair) for pair in pairs] == verdicts
    assert searched == [None, None]


def _trace_groups_by_full_traces(configs):
    """The groups _equal_trace_groups must return, from full traces of fresh copies."""
    by_trace: dict = {}
    for i, C in enumerate(configs):
        by_trace.setdefault(full_trace(C), []).append(i)
    return sorted(group for group in by_trace.values() if len(group) > 1)


@pytest.mark.parametrize("k,vs", [(3, range(7, 41)), (4, range(13, 26)), (5, range(28, 37))])
def test_trace_groups_are_full_trace_equality(k, vs):
    # each representative and an affine image of it, which shares its trace
    for v in vs:
        reps = _reps(v, k)
        a = units(v)[-2]
        configs = reps + [CyclicConfiguration(v, affine_image(R.base, a, 5, v)) for R in reps]
        want = _trace_groups_by_full_traces(configs)
        got = iso._equal_trace_groups(configs)
        assert [list(group) for group in got] == want, (v, k)
        # each member comes with the colouring its own refinement hands out,
        # and nothing is kept on the configurations
        for i, colours in (item for group in got for item in group.items()):
            assert tuple(colours) == refined_colours(configs[i]), (v, configs[i])
        assert all(set(vars(C)) <= {"_lines", "_line_set"} for C in configs), (v, k)


def test_a_representative_refines_only_until_its_trace_parts(monkeypatch):
    # a representative whose trace prefix is its own before its last
    # round is dropped there, and draws no further round
    reps = _reps(40, 3)
    traces = [full_trace(R) for R in reps]
    drawn = dict.fromkeys(reps, 0)
    rounds = iso._refinement_rounds

    def counting(C):
        for item in rounds(C):
            drawn[C] += 1
            yield item

    monkeypatch.setattr(iso, "_refinement_rounds", counting)
    assert iso._equal_trace_groups(reps) == []
    unrefined = 0
    for C, trace in zip(reps, traces):
        parts = next(
            r for r in range(1, len(trace) + 2)
            if all(other[:r] != trace[:r] for other in traces if other is not trace)
        )
        assert drawn[C] == min(parts, len(trace)), C
        unrefined += drawn[C] < len(trace)
    assert unrefined


def test_auto_verdicts_and_witnesses_match_the_full_trace_route():
    # k = 5 at the moduli where auto searches: affine images and pairs of
    # representatives, answered as when both traces were computed in full
    rng = random.Random(15)
    for v in (28, 30, 36, 40):
        reps = enumerate_base_lines(v, 5, connected_only=True, representatives_only=True, cap=40)
        for n in range(6):
            S1 = rng.choice(reps)
            if n % 2:
                S2 = affine_image(S1, rng.choice(units(v)), rng.randrange(v), v)
            else:
                S2 = rng.choice(reps)
            fresh = CyclicConfiguration(v, S1), CyclicConfiguration(v, S2)
            want = None
            if full_trace(fresh[0]) == full_trace(fresh[1]):
                want = exact_isomorphic(*fresh)
            got = isomorphic(CyclicConfiguration(v, S1), CyclicConfiguration(v, S2))
            assert got == want, (v, S1, S2)


@pytest.mark.parametrize("k,vs", [(3, range(7, 47)), (4, range(13, 23))])
def test_member_maps_are_the_multiplier_witnesses(k, vs):
    for v in vs:
        member_map = iso._member_maps(v)
        for orbit in slice_orbits(v, k, connected=True):
            for _, a, x in orbit.members:
                want = IsoWitness(kind="multiplier", a=inverse(a, v), b=x).as_point_map(v)
                assert member_map(a, x) == want, (v, a, x)


def test_auto_proves_non_iso_by_invariant(monkeypatch):
    # 28 = 4 * 7 at k = 5: auto cannot trust multipliers and must not search here
    C1, C2 = _reps(28, 5)[:2]
    monkeypatch.setattr(iso, "_searched", None)
    assert isomorphic(C1, C2) is None


def test_auto_checks_the_cap_before_the_invariant(monkeypatch):
    C1, C2 = _reps(28, 5)[:2]
    monkeypatch.setattr(iso, "_refinement_rounds", None)
    with pytest.raises(CapExceeded):
        isomorphic(C1, C2, cap=20)


def test_a_cap_past_the_enumeration_cap_is_clamped_before_refining(monkeypatch):
    def refine(C):
        raise RuntimeError("refined past the cap")

    monkeypatch.setattr(iso, "_refinement_rounds", refine)
    S = (0, 3863, 4402, 8358, 18651)
    C1 = CyclicConfiguration(20000, S)
    C2 = CyclicConfiguration(20000, affine_image(S, 3, 7, 20000))
    refusal = "v=20000 exceeds the exact search cap 10000"
    for method in ("auto", "exact"):
        with pytest.raises(CapExceeded, match=refusal):
            isomorphic(C1, C2, method=method, cap=20000)
    with pytest.raises(CapExceeded, match=refusal):
        automorphisms(C1, cap=20000)


def test_every_search_entry_refuses_past_the_one_default_cap():
    # exact_isomorphic, automorphisms and auto share the default cap 300
    # with paq_equivalent.  Auto searches only where multipliers are not
    # complete: 301 = 7 * 43 is a product of two primes, so auto answers
    # there, and first refuses at 304
    S = (0, 1, 3, 7, 12)
    C1, C2 = (CyclicConfiguration(301, T) for T in (S, affine_image(S, 2, 5, 301)))
    refusal = "v=301 exceeds the exact search cap 300"
    with pytest.raises(CapExceeded, match=refusal):
        exact_isomorphic(C1, C2)
    with pytest.raises(CapExceeded, match=refusal):
        automorphisms(C1)
    assert isomorphic(C1, C2) == IsoWitness(kind="multiplier", a=2, b=5)
    C1, C2 = (CyclicConfiguration(304, T) for T in (S, affine_image(S, 3, 1, 304)))
    with pytest.raises(CapExceeded, match="v=304 exceeds the exact search cap 300"):
        isomorphic(C1, C2)
    assert isomorphic(C1, C2, cap=304) is not None


def test_a_disconnected_iso_pair_refuses_past_the_enumeration_cap_before_its_map():
    # g = 2 and both components lie in the class of (0, 1, 3) on Z_10000
    C1 = CyclicConfiguration(20000, (0, 2, 6))
    with pytest.raises(CapExceeded, match="modulus 20000 exceeds the enumeration cap 10000"):
        isomorphic(C1, CyclicConfiguration(20000, (0, 6, 18)))
    # (0, 3, 4) on Z_10000 is no affine image of (0, 1, 3): NON-ISO still answers
    assert isomorphic(C1, CyclicConfiguration(20000, (0, 6, 8))) is None


def test_invariant_collision_falls_through_to_search(monkeypatch):
    reps = _reps(28, 5)
    image = CyclicConfiguration(28, affine_image(reps[0].base, 3, 1, 28))
    pairs = [*combinations(reps[:5], 2), (reps[0], image)]
    verdicts = [isomorphic(C1, C2) for C1, C2 in pairs]
    report = completeness_report(21, 3, exact_members=1)
    assert verdicts[-1] is not None and not any(verdicts[:-1])

    searched = []
    search = iso._searched

    def counting_search(C1, C2, colours=None):
        searched.append((C1.base, C2.base))
        return search(C1, C2, colours)

    # with one round that tells no point apart every trace collides
    monkeypatch.setattr(iso, "_refinement_rounds", lambda C: iter([((), [0] * C.v)]))
    monkeypatch.setattr(iso, "_searched", counting_search)
    assert [isomorphic(C1, C2) for C1, C2 in pairs] == verdicts
    assert searched == [(C1.base, C2.base) for C1, C2 in pairs]
    searched.clear()
    assert completeness_report(21, 3, exact_members=1) == report
    rep_bases = [R.base for R in _reps(21, 3)]
    assert set(combinations(rep_bases, 2)) <= set(searched)


def test_completeness_report_replays_every_member(monkeypatch):
    replayed = []

    def counting_replay(C1, C2, w):
        replayed.append(C1.base)
        return witness_valid(C1, C2, w)

    monkeypatch.setattr(iso, "witness_valid", counting_replay)
    rep = completeness_report(21, 3, exact_members=0)
    assert sorted(replayed) == enumerate_base_lines(21, 3, connected_only=True)
    assert rep["members"] == len(replayed) and rep["mismatches"] == []


def test_completeness_report_flags_a_bad_witness(monkeypatch):
    monkeypatch.setattr(iso, "witness_valid", lambda C1, C2, w: C1.base != (0, 1, 4))
    rep = completeness_report(13, 3, exact_members=0)
    assert rep["mismatches"] == ["affine witness fails replay (0, 1, 4) -> (0, 1, 4)"]


def test_component_witness_check_raises(monkeypatch):
    # components (0, 1, 3) and (0, 1, 4) on Z_13 lie in different orbits;
    # with their least images made equal, and a map that does not carry
    # one onto the other, the affine match must raise
    monkeypatch.setattr(baseline, "_least_images", lambda S, v: ((0,), [(1, 0)]))
    with pytest.raises(RuntimeError, match="no affine map"):
        isomorphic(CyclicConfiguration(26, (0, 2, 6)), CyclicConfiguration(26, (0, 2, 8)))


def test_multiplier_complete_reads_the_factorization():
    # at k=5 the answer is the factorization alone: a prime power, two
    # distinct primes once each, or a CI order
    for v in range(1, 2001):
        facs = factorization(v)
        two_primes = len(facs) == 2 and facs[0][1] == 1 and facs[1][1] == 1
        assert iso._multiplier_complete(v, 5) == (len(facs) == 1 or two_primes or is_ci_order(v)), v
