from __future__ import annotations

import importlib
import types

import cyconf
from cyconf.baseline import affine_map_between, is_base_line, is_connected, orbit_size
from cyconf.circulant import exceptional_weight4_witness
from cyconf.counting import count_fixed_bruteforce, count_fixed_closed


def test_all_is_sorted_unique_and_defined_in_submodules():
    names = cyconf.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        home = getattr(cyconf, name).__module__
        assert home.startswith("cyconf.")
        assert name in vars(importlib.import_module(home))


def test_public_api_is_small():
    assert len(cyconf.__all__) <= 40


def test_public_namespace_is_all():
    public = {
        name
        for name, obj in vars(cyconf).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert public == set(cyconf.__all__)



def _outcome(call, v) -> str:
    try:
        call(v)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return "answered"


def test_every_modulus_entry_refuses_a_non_modulus_with_one_message():
    S = (0, 1, 3)
    entries = {
        "is_base_line": lambda v: is_base_line(S, v),
        "is_connected": lambda v: is_connected(S, v),
        "canonical_form": lambda v: cyconf.canonical_form(S, v),
        "orbit_size": lambda v: orbit_size(S, v),
        "affine_map_between": lambda v: affine_map_between(S, S, v),
        "enumerate_base_lines": lambda v: cyconf.enumerate_base_lines(v, 3),
        "CyclicConfiguration": lambda v: cyconf.CyclicConfiguration(v, S),
        "CirculantMatrix": lambda v: cyconf.CirculantMatrix(v, S),
        "exceptional_weight4_witness": lambda v: exceptional_weight4_witness(v, S, S),
        "count_closed_formula": cyconf.count_closed_formula,
        "count_unit_sum": cyconf.count_unit_sum,
        "count_fixed_closed": lambda v: count_fixed_closed(v, 1),
        "count_fixed_bruteforce": lambda v: count_fixed_bruteforce(v, 3, 1),
        "count_orbit_scan": lambda v: cyconf.count_orbit_scan(v, 3),
        "completeness_report": lambda v: cyconf.completeness_report(v, 3),
        "phi": cyconf.phi,
        "units": cyconf.units,
    }
    # warm every cache at 1 and 7 first: True equals 1 and 7.0 equals 7, with equal hashes
    for call in entries.values():
        for v in (1, 7):
            _outcome(call, v)
    wrong = {
        (name, v): outcome
        for name, call in entries.items()
        for v in (0, -7, 7.0, True)
        if not (outcome := _outcome(call, v)).startswith(
            "ValueError: modulus must be a positive integer, got"
        )
    }
    assert wrong == {}
    # the test adds no cap: these answer past FORMULA_CAP
    big = 2 * 10**9
    assert is_base_line(S, big) and is_connected(S, big)
    assert cyconf.CyclicConfiguration(big, S).base == S
    assert cyconf.CirculantMatrix(big, S).support == S
    assert affine_map_between(S, (0, 1, 3, 7), big) is None
