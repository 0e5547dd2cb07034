from __future__ import annotations

from fractions import Fraction

import pytest

from cyconf import cli, counting
from cyconf.counting import (
    _count_fixed_identity,
    _formula_weight,
    count_closed_formula,
    count_fixed_bruteforce,
    count_fixed_closed,
    count_orbit_scan,
    count_unit_sum,
)
from cyconf.residue_ring import CapExceeded, phi, units
from helpers import order2_contributors_closed, reference_unit_sum

# frozen from the union-find orbit scan
ORBITS_K3 = {
    7: 1, 8: 1, 9: 1, 10: 1, 11: 1, 12: 3, 13: 2, 14: 2, 15: 4, 16: 3,
    21: 6, 25: 4, 27: 5, 30: 11, 33: 8, 35: 8, 49: 9,
}


def test_frozen_orbit_counts():
    for v, n in ORBITS_K3.items():
        assert count_orbit_scan(v, 3) == n
        assert count_closed_formula(v) == n
        assert count_unit_sum(v) == n


def test_counts_vanish_just_below_the_threshold():
    assert count_closed_formula(5) == 0
    assert count_closed_formula(6) == 0
    assert count_unit_sum(5) == 0
    assert count_orbit_scan(6, 3) == 0


def test_triple_agreement_quick_range():
    for v in range(7, 61):
        nf = count_closed_formula(v)
        assert nf == count_unit_sum(v)
        assert nf == count_orbit_scan(v, 3)


def test_count_fixed_identity_spots():
    # v=7: phi*(bigphi-6)/2 = 6*2/2; v=8 subtracts 3*phi(4)
    assert _count_fixed_identity(7) == 6
    assert _count_fixed_identity(8) == 4 * 6 // 2 - 3 * 2
    assert _count_fixed_identity(13) == 48


def test_fixed_identity_matches_slice_size():
    for v in range(7, 41):
        assert _count_fixed_identity(v) == count_fixed_bruteforce(v, 3, 1)


def test_fixed_census_at_7():
    # only l in {1, 2, 4} fix anything; each fixes the whole slice
    expected = {1: 6, 2: 6, 3: 0, 4: 6, 5: 0, 6: 0}
    for l, n in expected.items():
        assert count_fixed_closed(7, l) == n
        assert count_fixed_bruteforce(7, 3, l) == n
    assert sum(expected.values()) == 3 * phi(7) * 1


def test_fixed_closed_matches_bruteforce():
    for v in range(7, 36):
        for l in units(v):
            assert count_fixed_closed(v, l) == count_fixed_bruteforce(v, 3, l), (v, l)


@pytest.mark.parametrize("k, top", [(3, 100), (4, 40)])
def test_fixed_table_matches_bruteforce(k, top):
    for v in range(5, top + 1):
        want = {l: count_fixed_bruteforce(v, k, l) for l in units(v)}
        assert counting._fixed_table(v, k) == want, v


def test_verify_sees_a_corrupted_fixed_table(monkeypatch, capsys):
    table = counting._fixed_table

    def corrupted(v, k):
        out = table(v, k)
        out[2] += 1
        return out

    monkeypatch.setattr(cli, "_fixed_table", corrupted)
    assert cli.main(["verify", "--v", "7"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "v=7 FAIL: fixed counts split at l=2: brute 7, closed 6" in out
    assert out[-1] == "FAIL 1 of 1 values mismatched"


@pytest.mark.parametrize("n", [2, 3])
def test_roots_of_unity_match_a_unit_walk(n):
    for v in range(2, 3001):
        assert counting._roots_of_unity(v, n) == [l for l in units(v) if pow(l, n, v) == 1], v


def test_roots_of_unity_at_the_formula_cap():
    # 999999937 is prime and 1 mod 3; 2**29 is the largest power of two below the cap
    v = 999999937
    assert counting._roots_of_unity(v, 2) == [1, v - 1]
    cubes = counting._roots_of_unity(v, 3)
    assert len(cubes) == 3 and all(pow(l, 3, v) == 1 for l in cubes)
    assert counting._roots_of_unity(2**29, 2) == [1, 2**28 - 1, 2**28 + 1, 2**29 - 1]
    assert counting._roots_of_unity(2**29, 3) == [1]
    with pytest.raises(ValueError, match="n = 2 or 3"):
        counting._roots_of_unity(13, 4)


def test_fixed_counts_vanish_off_the_roots_of_unity():
    # so the unit sum may skip every unit with l**2 != 1 and l**3 != 1
    for v in range(5, 401):
        for l in units(v):
            if pow(l, 2, v) != 1 and pow(l, 3, v) != 1:
                assert count_fixed_closed(v, l) == 0, (v, l)


def test_unit_sum_matches_the_walk_over_every_residue():
    for v in range(5, 10**4 + 1):
        assert count_unit_sum(v) == reference_unit_sum(v), v


def test_unit_sum_reaches_the_formula_cap():
    for v in (10**4 + 1, 2**29, 3**18, 999999937, 999999999, 10**9):
        assert count_unit_sum(v) == count_closed_formula(v), v
    with pytest.raises(CapExceeded, match="closed-form cap"):
        count_unit_sum(10**9 + 1)


def test_burnside_reduction():
    for v in range(7, 36):
        total = sum(count_fixed_bruteforce(v, 3, l) for l in units(v))
        assert total == 3 * phi(v) * count_orbit_scan(v, 3)


def test_order2_exclusions():
    # l = -1 never fixes; l = 1 mod v/2 with 4 | v never fixes
    assert count_fixed_closed(8, 7) == 0
    assert count_fixed_closed(8, 5) == 0  # 5 = 1 mod 4 and 4 | 8
    assert count_fixed_closed(8, 3) == 3 * phi(8) // 2
    assert count_fixed_closed(12, 11) == 0
    assert count_fixed_closed(12, 7) == 0  # 7 = 1 mod 6 and 4 | 12
    assert count_fixed_closed(12, 5) == 3 * phi(12) // 2


def test_order3_condition():
    # 4 has order 3 mod 21 but 4*4+4+1 = 21 = 0, so it contributes
    assert count_fixed_closed(21, 4) == phi(21)
    # 7 has order 3 mod 9? 7^3 = 343 = 1 mod 9; 57 + 7 + 1 = 57 != 0 mod 9
    assert pow(7, 3, 9) == 1
    assert count_fixed_closed(9, 7) == (phi(9) if (7 * 7 + 7 + 1) % 9 == 0 else 0)


def test_contributor_counts_against_closed_even_form():
    # units of order 2 and 3 whose closed fixed count is positive
    for v in range(8, 101, 2):
        contributors = [l for l in units(v) if l != 1 and count_fixed_closed(v, l) > 0]
        g2 = sum(1 for l in contributors if pow(l, 2, v) == 1)
        g3 = len(contributors) - g2
        assert g2 == order2_contributors_closed(v), v
        assert g3 == 0, v  # even v has no order-3 units with l*l+l+1 = 0


def test_order2_closed_rejects_odd():
    with pytest.raises(ValueError):
        order2_contributors_closed(9)


def test_formula_case_branches():
    assert _formula_weight(7) == 12 * Fraction(5, 6)
    assert _formula_weight(21) == 12 * Fraction(2, 3)
    assert _formula_weight(9) == 12 * Fraction(1, 2)
    assert _formula_weight(15) == 12 * Fraction(1, 2)
    assert _formula_weight(30) == 12 * Fraction(1, 4)
    assert _formula_weight(12) == 12 * Fraction(1, 2)
    assert _formula_weight(8) == 12 * Fraction(1, 1)


def test_rejects_tiny_moduli():
    for v in (0, 1, 4):
        with pytest.raises(ValueError):
            count_closed_formula(v)
        with pytest.raises(ValueError):
            count_unit_sum(v)


def test_bruteforce_rejects_non_units():
    with pytest.raises(ValueError):
        count_fixed_bruteforce(12, 3, 4)


def test_bruteforce_rejects_lines_below_three_points():
    with pytest.raises(ValueError, match="k >= 3"):
        count_fixed_bruteforce(13, 2, 1)


def test_bruteforce_cap():
    with pytest.raises(CapExceeded):
        count_fixed_bruteforce(400, 3, 1)
    with pytest.raises(CapExceeded):
        count_orbit_scan(400, 3)


def test_integrality_checks_raise(monkeypatch):
    # phi = 1 and bigphi = 7 make every halving and both sums fractional
    monkeypatch.setattr(counting, "phi", lambda v: 1)
    monkeypatch.setattr(counting, "big_phi", lambda v: 7)
    with pytest.raises(ArithmeticError):
        _count_fixed_identity(13)
    with pytest.raises(ArithmeticError):
        count_fixed_closed(8, 3)  # the order-2 case halves 3 * phi
    with pytest.raises(ArithmeticError):
        count_closed_formula(13)
    with pytest.raises(ArithmeticError):
        count_unit_sum(13)


def test_unit_sum_integrality_check_raises(monkeypatch):
    # one fixed triple per unit sums to phi(13), a third of an orbit
    monkeypatch.setattr(counting, "count_fixed_closed", lambda v, l: 1)
    with pytest.raises(ArithmeticError, match="unit sum not integral"):
        count_unit_sum(13)


def test_orbit_scan_partition_check_raises(monkeypatch):
    monkeypatch.setattr(counting, "canonical_form", lambda S, v: tuple(reversed(S)))
    with pytest.raises(ArithmeticError, match="not canonical"):
        count_orbit_scan(13, 3)
