from __future__ import annotations

import random
from itertools import combinations

import networkx as nx
import pytest
from networkx.algorithms.isomorphism import GraphMatcher

from cyconf import _search, baseline, iso
from cyconf.baseline import canonical_form, enumerate_base_lines, slice_orbits
from cyconf.configuration import CyclicConfiguration, _kept
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
from helpers import affine_image, full_trace, reference_maps_lines_onto, reference_refinement_invariant

FANO = CyclicConfiguration(7, (0, 1, 3))
MOEBIUS_KANTOR = CyclicConfiguration(8, (0, 1, 3))


def test_witness_point_maps():
    w = IsoWitness(kind="multiplier", a=5, b=0)
    assert w.as_point_map(8) == tuple(5 * x % 8 for x in range(8))
    table = tuple(range(7))
    assert IsoWitness(kind="explicit", point_map=table).as_point_map(7) == table


def test_witness_valid_checks_bijectivity_and_lines():
    w = IsoWitness(kind="explicit", point_map=(0,) * 7)
    assert not witness_valid(FANO, FANO, w)
    shuffle = IsoWitness(kind="explicit", point_map=(1, 0, 2, 3, 4, 5, 6))
    assert not witness_valid(FANO, FANO, shuffle)
    translation = IsoWitness(kind="multiplier", a=1, b=3)
    assert witness_valid(FANO, FANO, translation)


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
    for v in (14, 21, 26):
        split = [S for S in enumerate_base_lines(v, 3) if not __import__("cyconf").is_connected(S, v)]
        for S1 in split:
            for S2 in split:
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
    searched = next(_search.line_bijections(C1.v, C1.lines(), C2.lines(), fix_zero=True), None)
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
    cases = [
        (1, (0,)), (2, (0,)), (2, (0, 1)), (3, (0, 1)), (12, (0, 4, 8)), (12, (0, 1, 6, 7)),
        (9, (0, 3, 6)), (8, (0, 4)), (26, (0, 2, 6)), (21, (0, 3, 9)), (16, (0, 1, 2, 9)),
    ]
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


def test_refinement_is_kept_on_the_configuration():
    C = CyclicConfiguration(13, (0, 1, 3))
    trace = full_trace(C)
    kept = _kept(C, "_refined")
    trace_kept, colours = kept
    assert trace_kept == trace
    assert full_trace(C) == trace and _kept(C, "_refined") is kept  # replayed, not redone
    assert C == CyclicConfiguration(13, (0, 1, 3))
    assert hash(C) == hash(CyclicConfiguration(13, (0, 1, 3)))
    # point 0 keeps a class of its own; the colours are the final round's
    assert colours.count(colours[0]) == 1 and len(colours) == 13


def _first_unpruned(C1, C2):
    return next(_search.line_bijections(C1.v, C1.lines(), C2.lines(), fix_zero=True), None)


def _assert_pruning_keeps_the_witness(pairs):
    # with both refinements cached exact_isomorphic prunes by colour; its
    # witness must be the unpruned search's first yield
    for C1, C2 in pairs:
        assert C1.line_set() != C2.line_set()  # else the identity shortcut answers
        assert full_trace(C1) == full_trace(C2)
        w = exact_isomorphic(C1, C2)
        assert (w.point_map if w else None) == _first_unpruned(C1, C2), (C1, C2)


@pytest.mark.parametrize("k,vs", [(3, range(7, 31)), (4, range(13, 23)), (5, (28, 30, 33, 36))])
def test_pruned_search_returns_the_unpruned_witness(k, vs):
    # member/rep pairs, a few members per orbit, and every pair of
    # representatives with equal invariants (none are known at these
    # sizes); the other representative pairs must answer NON-ISO
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
                assert exact_isomorphic(C1, C2) is None
        pairs = [(C1, C2) for C1, C2 in pairs if C1.line_set() != C2.line_set()]
        assert pairs
        _assert_pruning_keeps_the_witness(pairs)


def test_pruned_search_returns_the_unpruned_witness_at_k6():
    # 56 and 84 are neither prime powers nor products of two primes, so
    # auto takes the exact route there
    pairs = []
    for v, S, maps in [
        (56, (0, 4, 7, 16, 21, 29), [(3, 10), (45, 7)]),
        (84, (0, 1, 3, 7, 25, 38), [(5, 2), (71, 40)]),
    ]:
        for a, b in maps:
            pairs.append((CyclicConfiguration(v, S), CyclicConfiguration(v, affine_image(S, a, b, v))))
    _assert_pruning_keeps_the_witness(pairs)
    for C1, C2 in pairs:
        assert isomorphic(C1, C2) == exact_isomorphic(C1, C2)


def test_exact_refines_nothing_itself(monkeypatch):
    # an unrefined configuration is searched unpruned, and the search is
    # skipped outright when cached traces differ
    C1, C3, C4 = _reps(28, 5)[:3]
    C2 = CyclicConfiguration(28, affine_image(C1.base, 3, 5, 28))
    assert exact_isomorphic(C1, C2) is not None
    assert _kept(C1, "_refined") is None and _kept(C2, "_refined") is None
    full_trace(C3)
    full_trace(C4)
    monkeypatch.setattr(_search, "line_bijections", None)
    assert exact_isomorphic(C3, C4) is None


def _trace_groups_by_full_traces(configs):
    """The groups _equal_trace_groups must return, from full traces of fresh copies."""
    by_trace: dict = {}
    for i, C in enumerate(configs):
        by_trace.setdefault(full_trace(CyclicConfiguration(C.v, C.base)), []).append(i)
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
        assert got == want, (v, k)
        for group in got:
            trace = full_trace(CyclicConfiguration(v, configs[group[0]].base))
            assert all(_kept(configs[i], "_refined")[0] == trace for i in group)


def test_a_representative_refines_only_until_its_trace_parts():
    # a representative whose trace prefix is its own before its last
    # round is dropped there and keeps no refinement
    reps = _reps(40, 3)
    traces = [full_trace(CyclicConfiguration(40, R.base)) for R in reps]
    assert iso._equal_trace_groups(reps) == []
    unrefined = 0
    for C, trace in zip(reps, traces):
        parts = next(
            r for r in range(1, len(trace) + 2)
            if all(other[:r] != trace[:r] for other in traces if other is not trace)
        )
        refined = _kept(C, "_refined") is not None
        assert refined == (parts >= len(trace)), C
        unrefined += not refined
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
    monkeypatch.setattr(iso, "exact_isomorphic", None)
    assert isomorphic(C1, C2) is None


def test_auto_checks_the_cap_before_the_invariant(monkeypatch):
    C1, C2 = _reps(28, 5)[:2]
    monkeypatch.setattr(iso, "_refinement_rounds", None)
    with pytest.raises(CapExceeded):
        isomorphic(C1, C2, cap=20)


def test_invariant_collision_falls_through_to_search(monkeypatch):
    reps = _reps(28, 5)
    image = CyclicConfiguration(28, affine_image(reps[0].base, 3, 1, 28))
    pairs = [*combinations(reps[:5], 2), (reps[0], image)]
    verdicts = [isomorphic(C1, C2) for C1, C2 in pairs]
    report = completeness_report(21, 3, exact_members=1)
    assert verdicts[-1] is not None and not any(verdicts[:-1])

    searched = []

    def counting_exact(C1, C2, cap=None):
        searched.append((C1.base, C2.base))
        return exact_isomorphic(C1, C2, cap=cap)

    # with no rounds at all every trace collides
    monkeypatch.setattr(iso, "_refinement_rounds", lambda C: iter(()))
    monkeypatch.setattr(iso, "exact_isomorphic", counting_exact)
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
    # with their canonical forms made equal the affine match must raise
    monkeypatch.setattr(baseline, "canonical_form", lambda S, v: (0,))
    with pytest.raises(RuntimeError, match="no affine map"):
        isomorphic(CyclicConfiguration(26, (0, 2, 6)), CyclicConfiguration(26, (0, 2, 8)))


def test_multiplier_complete_reads_the_factorization():
    # at k=5 the answer is the factorization alone: a prime power, two
    # distinct primes once each, or a CI order
    for v in range(1, 2001):
        facs = factorization(v)
        two_primes = len(facs) == 2 and facs[0][1] == 1 and facs[1][1] == 1
        assert iso._multiplier_complete(v, 5) == (len(facs) == 1 or two_primes or is_ci_order(v)), v
