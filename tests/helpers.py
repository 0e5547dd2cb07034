"""Helpers shared by the tests."""

from __future__ import annotations


def affine_image(S, a: int, b: int, v: int) -> tuple[int, ...]:
    """The sorted tuple a*S + b mod v."""
    return tuple(sorted((a * s + b) % v for s in S))
