from __future__ import annotations

from collections import Counter
from functools import cache

import pytest

from cyconf import baseline, solving_sets
from cyconf.baseline import canonical_form, enumerate_base_lines
from cyconf.configuration import CyclicConfiguration
from cyconf.iso import IsoWitness, exact_isomorphic, isomorphic, witness_valid
from cyconf.residue_ring import _two_primes, mult_order, phi
from cyconf.solving_sets import (
    SolvingSetUnavailable,
    _class0_shift,
    _scaling,
    preserves_lines,
    solve_iso_pq,
    solving_set,
    solving_set_params,
)
from helpers import affine_image, reference_solving_set, validate


def test_params_frozen_values():
    P = solving_set_params(7, 3)
    assert (P.v, P.a, P.b, P.s, P.alpha) == (21, 10, 16, 2, 5)
    Q = solving_set_params(3, 2)
    assert (Q.v, Q.a, Q.b, Q.s, Q.alpha) == (6, 5, 5, 1, 1)


def test_params_invariants():
    for p, q in ((7, 3), (3, 2), (5, 2), (11, 5), (13, 3)):
        P = solving_set_params(p, q)
        assert P.a % q == 1
        assert mult_order(P.a, P.v) == p - 1
        assert P.b == pow(P.a, P.s, P.v)
        assert mult_order(P.b, P.v) == q
        assert pow(P.a, P.alpha, p) == (-P.s) % p


def test_params_rejections():
    with pytest.raises(ValueError):
        solving_set_params(5, 3)  # 3 does not divide 4
    with pytest.raises(ValueError):
        solving_set_params(4, 2)
    with pytest.raises(ValueError):
        solving_set_params(7, 7)


def test_solving_set_rejects_inconsistent_params():
    # a = 7 is not a unit mod 21; a wrong alpha or b would build a wrong set
    P = solving_set_params(7, 3)
    C = CyclicConfiguration(21, (0, 1, 5))
    for bad in (P._replace(a=7), P._replace(alpha=P.alpha + 1), P._replace(b=P.b * P.b % P.v)):
        with pytest.raises(ValueError):
            solving_set(C, bad)


def _outcome(construct, C, params):
    try:
        return construct(C, params)
    except SolvingSetUnavailable as exc:
        return f"unavailable: {exc}"


@pytest.mark.parametrize(
    "p, q, k",
    [(3, 2, 3), (5, 2, 3), (7, 2, 3), (7, 3, 3), (11, 5, 3), (13, 2, 3), (13, 3, 3), (19, 3, 3), (7, 3, 4)],
)
def test_solving_set_matches_reference_construction(p, q, k):
    # per-class scalings give the composed permutation tables, in order
    # (the hypotheses hold only at q = 3 among these cases)
    P = solving_set_params(p, q)
    for S in enumerate_base_lines(P.v, k):
        C = CyclicConfiguration(P.v, S)
        assert _outcome(solving_set, C, P) == _outcome(reference_solving_set, C, P), S


def test_preserves_lines_translation():
    C = CyclicConfiguration(21, (0, 1, 5))
    shift = tuple((x + 1) % 21 for x in range(21))
    assert preserves_lines(shift, C)
    swap = list(range(21))
    swap[1], swap[2] = 2, 1
    assert not preserves_lines(tuple(swap), C)


def test_hypothesis_failures_are_distinct():
    P = solving_set_params(7, 3)
    with pytest.raises(SolvingSetUnavailable, match="multiplier b"):
        solving_set(CyclicConfiguration(21, (0, 1, 3)), P)
    with pytest.raises(SolvingSetUnavailable, match="class-0 shift"):
        solving_set(CyclicConfiguration(21, (0, 3, 9)), P)


def test_solving_set_audit_raises(monkeypatch):
    monkeypatch.setattr(solving_sets, "_is_permutation", lambda perm: False)
    with pytest.raises(RuntimeError, match="not a permutation"):
        solving_set(CyclicConfiguration(21, (0, 1, 5)), solving_set_params(7, 3))


def test_solving_set_members_act_on_configs():
    P = solving_set_params(7, 3)
    C = CyclicConfiguration(21, (0, 1, 5))
    delta = solving_set(C, P)
    assert len(delta) >= 1
    seen = set()
    for g in delta:
        assert tuple(sorted(g)) == tuple(range(21))
        image = frozenset(g[x] for x in C.base)
        assert validate(CyclicConfiguration(21, tuple(sorted(image))))
        seen.add(g)
    assert len(seen) == len(delta)  # no duplicate group elements


def test_solve_iso_pq_agrees_with_canonical_at_10():
    # v = 10 = 5*2: every slice member against every other
    slice_ = enumerate_base_lines(10, 3, connected_only=True)
    for S1 in slice_:
        for S2 in slice_:
            C1, C2 = CyclicConfiguration(10, S1), CyclicConfiguration(10, S2)
            w = solve_iso_pq(C1, C2)
            same = canonical_form(S1, 10) == canonical_form(S2, 10)
            assert (w is not None) == same, (S1, S2)
            if w is not None:
                assert witness_valid(C1, C2, w)


def test_solve_iso_pq_negative_pair_at_21():
    C1 = CyclicConfiguration(21, (0, 1, 3))
    C2 = CyclicConfiguration(21, (0, 1, 5))
    assert solve_iso_pq(C1, C2) is None
    assert exact_isomorphic(C1, C2) is None


def test_solve_iso_pq_positive_pair_at_21():
    S = (0, 1, 5)
    C1 = CyclicConfiguration(21, S)
    C2 = CyclicConfiguration(21, tuple(sorted(affine_image(S, 4, 7, 21))))
    w = solve_iso_pq(C1, C2)
    assert w is not None
    assert witness_valid(C1, C2, w)


def test_solve_iso_pq_fallback_on_unavailable_hypotheses():
    # base line inside the subgroup of multiples of 3: tau_0 is an
    # automorphism, so the construction refuses and exact search decides
    C1 = CyclicConfiguration(21, (0, 3, 9))
    C2 = CyclicConfiguration(21, (0, 6, 18))
    w = solve_iso_pq(C1, C2)
    assert w is not None
    assert witness_valid(C1, C2, w)
    # the line sets are equal, so the search's identity answers, not the
    # multiplier sweep's (1, 18): the class-0 check runs before the sweep
    assert w == exact_isomorphic(C1, C2) == IsoWitness(kind="explicit", point_map=tuple(range(21)))


def test_solve_iso_pq_sweeps_before_building_the_solving_set(monkeypatch):
    def unbuilt(C, params):
        raise AssertionError("the solving set was built for an affinely related pair")

    S = (0, 1, 5)
    C1 = CyclicConfiguration(21, S)
    C2 = CyclicConfiguration(21, tuple(sorted(affine_image(S, 4, 7, 21))))
    params = solving_set_params(7, 3)
    assert preserves_lines(_scaling(21, 1, (params.b,)), C1)
    monkeypatch.setattr(solving_sets, "_solving_set_members", unbuilt)
    w = solve_iso_pq(C1, C2)
    assert w is not None and w == isomorphic(C1, C2, method="multiplier")


def test_solve_iso_pq_checks_b_and_the_class0_shift_once(monkeypatch):
    # a NON-ISO pair reaches the solving set; solve_iso_pq's own checks
    # are not run again while it is built, nor is b met again as a**s
    # in the search for beta
    checked = []

    def recording(perm, C):
        checked.append(perm)
        return preserves_lines(perm, C)

    P = solving_set_params(7, 3)
    monkeypatch.setattr(solving_sets, "preserves_lines", recording)
    assert solve_iso_pq(CyclicConfiguration(21, (0, 1, 5)), CyclicConfiguration(21, (0, 1, 3))) is None
    assert checked.count(_scaling(21, 1, (P.b,))) == 1
    assert checked.count(_class0_shift(21, 3)) == 1


def test_solve_iso_pq_multiplier_delegation_at_15():
    # gcd(15, phi(15)) = 1, so q dividing p-1 fails and the multiplier
    # sweep is complete on its own
    assert phi(15) == 8
    S1, S2 = (0, 1, 3), (0, 2, 6)
    C1 = CyclicConfiguration(15, S1)
    C2 = CyclicConfiguration(15, S2)
    w = solve_iso_pq(C1, C2)
    same = canonical_form(S1, 15) == canonical_form(S2, 15)
    assert (w is not None) == same
    if w is not None:
        assert witness_valid(C1, C2, w)


def test_solve_iso_pq_input_validation():
    with pytest.raises(ValueError):
        solve_iso_pq(CyclicConfiguration(21, (0, 1, 5)), CyclicConfiguration(15, (0, 1, 3)))
    with pytest.raises(ValueError):
        solve_iso_pq(CyclicConfiguration(12, (0, 1, 3)), CyclicConfiguration(12, (0, 1, 3)))
    with pytest.raises(ValueError):
        solve_iso_pq(CyclicConfiguration(7, (0, 1, 3)), CyclicConfiguration(7, (0, 1, 3)))


@pytest.mark.parametrize(
    "v, k, branches",
    [
        (15, 3, {"q does not divide p - 1"}),
        (35, 3, {"q does not divide p - 1"}),
        (21, 3, {"b is not an automorphism", "solving set"}),
        (21, 4, {"b is not an automorphism", "solving set"}),
    ],
    ids=["v15-k3", "v35-k3", "v21-k3", "v21-k4"],
)
def test_solve_iso_pq_multiplier_returns_are_the_multiplier_route(monkeypatch, v, k, branches):
    # every ordered pair of connected slice members whose answer comes
    # from one of solve_iso_pq's three multiplier returns; least images
    # are memoized so the ~250000 pairs at v=35 stay in seconds
    monkeypatch.setattr(baseline, "_least_images", cache(baseline._least_images))
    q, p = _two_primes(v)
    params = None if (p - 1) % q else solving_set_params(p, q)
    members = [CyclicConfiguration(v, S) for S in enumerate_base_lines(v, k, connected_only=True)]
    seen = Counter()
    for C1 in members:
        if params is None:
            branch = "q does not divide p - 1"
        elif not preserves_lines(_scaling(v, 1, (params.b,)), C1):
            branch = "b is not an automorphism"
        else:
            try:
                solving_set(C1, params)
            except SolvingSetUnavailable:
                continue  # the exact search answers
            branch = "solving set"
        for C2 in members:
            want = isomorphic(C1, C2, method="multiplier")
            if want is None and branch == "solving set":
                continue  # the solving set's members answer
            assert solve_iso_pq(C1, C2) == want, (C1, C2)
            seen[branch] += 1
    assert set(seen) == branches
