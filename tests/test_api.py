from __future__ import annotations

import importlib

import cyconf


def test_all_is_sorted_unique_and_defined_in_submodules():
    names = cyconf.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        home = getattr(cyconf, name).__module__
        assert home.startswith("cyconf.")
        assert name in vars(importlib.import_module(home))
