from __future__ import annotations

from dataclasses import replace

import pytest

from cyconf import solving_sets
from cyconf.baseline import canonical_form, enumerate_base_lines
from cyconf.configuration import CyclicConfiguration
from cyconf.iso import exact_isomorphic, witness_valid
from cyconf.residue_ring import mult_order, phi
from cyconf.solving_sets import (
    SolvingSetUnavailable,
    _class_multiplier,
    _class_shift,
    _layered_multiplier,
    _multiplier_perm,
    _perm_compose,
    preserves_lines,
    solve_iso_pq,
    solving_set,
    solving_set_params,
)
from helpers import affine_image, validate


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


def test_class_shift_action():
    tau0 = _class_shift(21, 3, 0)
    assert tau0[0] == 3 and tau0[3] == 6 and tau0[18] == 0
    assert tau0[1] == 1 and tau0[2] == 2
    # p-th power of a class shift is the identity
    power = tuple(range(21))
    for _ in range(7):
        power = _perm_compose(power, tau0)
    assert power == tuple(range(21))
    tau1 = _class_shift(21, 3, 1)
    tau2 = _class_shift(21, 3, 2)
    translation = tuple((x + 3) % 21 for x in range(21))
    assert _perm_compose(_perm_compose(tau0, tau1), tau2) == translation
    with pytest.raises(ValueError):
        _class_shift(20, 3, 0)


def test_class_multiplier_action():
    g = _class_multiplier(21, 3, 0, 16)
    assert g[0] == 0 and g[3] == 6 and g[9] == 18
    assert g[1] == 1 and g[5] == 5
    assert _class_multiplier(21, 3, 1, 1) == tuple(range(21))
    full = tuple(range(21))
    for i in range(3):
        full = _perm_compose(full, _class_multiplier(21, 3, i, 16))
    assert full == _multiplier_perm(21, 16)
    with pytest.raises(ValueError):
        _class_multiplier(21, 3, 0, 5)  # 5 is not 1 mod 3
    with pytest.raises(ValueError):
        _class_multiplier(21, 3, 0, 7)  # not a unit


def test_layered_multiplier_layers():
    P = solving_set_params(7, 3)
    base = pow(P.a, P.alpha, P.v)
    assert _layered_multiplier(P, 0) == _multiplier_perm(P.v, base)
    for k in range(P.q):
        g = _layered_multiplier(P, k)
        assert tuple(sorted(g)) == tuple(range(P.v))
        for x in range(P.v):
            assert g[x] % P.q == x % P.q


def test_layered_multiplier_rejects_inconsistent_params():
    # a = 7 is not a unit mod 21, so no layer factor is one either
    P = replace(solving_set_params(7, 3), a=7)
    with pytest.raises(ValueError):
        _layered_multiplier(P, 0)


def test_perm_compose_is_left_factor_first():
    first = _class_shift(6, 2, 0)
    then = _multiplier_perm(6, 5)
    combo = _perm_compose(first, then)
    for x in range(6):
        assert combo[x] == then[first[x]]


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
