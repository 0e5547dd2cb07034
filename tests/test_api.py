from __future__ import annotations

import importlib
import types

import cyconf


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
