"""Backtracking search for point bijections between two cyclic line systems.

A line system is the v translates S + t of a base S, so a periodic
base repeats lines.  The search looks for bijections sigma on points
that carry the lines of S1, as a multiset, onto those of S2: exactly
color-preserving isomorphism of the two bipartite incidence graphs.
Bases of unequal size or period (number of distinct translates) have
none and are not searched.  Otherwise a full assignment needs no check:
it carries each line onto its one compatible line, so the d distinct
lines of S1 one-to-one onto the d of S2, each v/d times over.

A bijection carries the translates of S1 onto those of S2 exactly when
it carries their complements onto the complements, so bases of more
than v/2 points are searched as their complements: the same
bijections, from a far smaller tree.  No base line of three or more
points is that dense.

The search assigns point images one at a time, keeping for every line of
the first system the still-compatible lines of the second, and always
extends the most constrained line next.  Candidate images are tried in
increasing point order, so the first solution found is deterministic.

The state is held in int bitmasks.  ``cand[i]`` is the mask of system-2
lines still compatible with line i of system 1; ``through2[y]`` is the
mask of system-2 lines through point y, so assigning x -> y is one AND
per line through x; the images already used are one mask, and so are
the points not yet assigned.  A point's candidates are the points
covered by the compatible lines of every line through it, memoized per
mask; a line with no assigned point is compatible with every line, so
those lines share one mask and one memoized point set.
The partially assigned lines are kept in a dict that maps each to its
(|cand|, index) rank, so choosing the next point looks at those lines
only.  The nodes live on one explicit stack, a frame per assigned point
holding its untried candidates, so the depth is not bounded by Python's
recursion limit; each frame holds copies of ``cand`` and that dict
instead of an undo log.  No line is partially assigned at the root, so
the first point chosen is always point 0, and its only candidate is 0.
The last point yields at its leaf directly.

A caller that holds two discrete point colourings, one colour per
point, such as the final colourings of equal refinement traces, can
pass them: they name a single candidate map, sending each point to the
point of the other system with its colour.  That map is replayed
instead of searched, and yielded if it fixes 0 and carries lines onto
lines.  The replay keeps none of the search's per-point frames.  Any
other colouring pair goes unused, and the search runs unrestricted.
"""

from __future__ import annotations

from collections.abc import Iterator

# the default cap on v of every public entry that searches
SEARCH_CAP = 300


def line_bijections(
    v: int,
    S1: tuple[int, ...],
    S2: tuple[int, ...],
    *,
    colours: tuple | None = None,
) -> Iterator[tuple[int, ...]]:
    """Yield point bijections carrying the translates of S1 onto those of S2.

    S1 and S2 are sorted tuples of residues mod v.  Only sigma(0) = 0 is
    searched, which is complete because composing with a translation
    moves sigma(0) anywhere.

    ``colours``, a pair (c1, c2) of point colourings that every
    yielded bijection respects, such as equal refinement traces give,
    serves only when both are discrete: then the one map they name is
    replayed, and it is the search's only yield.  Otherwise the search
    runs unrestricted.
    """
    if 2 * len(S1) > v:
        # the same bijections carry the complements onto each other, and
        # the lighter supports constrain the search far more
        S1, S2 = (tuple(sorted(set(range(v)).difference(S))) for S in (S1, S2))
    if colours is not None and all(len(set(c)) == v for c in colours):
        yield from _replay(v, S1, S2, *colours)
    else:
        yield from _backtrack(v, S1, S2)


def _replay(v: int, S1, S2, c1, c2) -> Iterator[tuple[int, ...]]:
    """Yield the one map that the discrete colourings c1, c2 name, if it is a bijection of lines."""
    point_of = {c: y for y, c in enumerate(c2)}
    sigma = tuple(point_of.get(c, -1) for c in c1)
    if sigma[0] != 0 or -1 in sigma:
        return
    # imported here, since circulant imports this module
    from .circulant import _translates
    from .configuration import _maps_lines_onto

    # sigma is a bijection, so it carries the distinct lines of S1
    # one-to-one onto those of S2 exactly when the two sets agree
    if _maps_lines_onto(sigma, S1, set(map(frozenset, _translates(tuple(range(v)), S2)))):
        yield sigma


def _backtrack(v: int, S1, S2) -> Iterator[tuple[int, ...]]:
    """The search itself: line_bijections after the complement and replay rules."""
    everything = (1 << v) - 1
    # the points of each line, line t the base's mask rotated by t
    point_mask1, point_mask2 = (
        [(base << t | base >> (v - t)) & everything for t in range(v)]
        for base in (sum(1 << s for s in S) for S in (S1, S2))
    )
    if len(S1) != len(S2) or len(set(point_mask1)) != len(set(point_mask2)):
        return  # unequal sizes or periods
    point_lines1 = [[(x - s) % v for s in S1] for x in range(v)]
    through2 = [sum(1 << (y - s) % v for s in S2) for y in range(v)]
    sigma: list[int] = [-1] * v
    pools: dict[int, int] = {}  # the points covered by each cand mask met so far

    def candidates(x: int, cand: list[int], used: int) -> int:
        allowed = everything & ~used
        for i in point_lines1[x]:
            c = cand[i]
            pool = pools.get(c)
            if pool is None:
                pool = 0
                rest = c
                while rest:
                    low = rest & -rest
                    pool |= point_mask2[low.bit_length() - 1]
                    rest ^= low
                pools[c] = pool
            allowed &= pool
            if not allowed:
                break
        return allowed

    # frames (x, untried candidates of x, cand, partial, used, free
    # without x): cand[i] holds the system-2 lines still compatible with
    # line i; partial maps each partially assigned line to
    # |cand[i]| * v + i, so its least value is the tightest line; used
    # holds the images taken and free the points not yet mapped
    cand = [everything] * v
    stack = [(0, candidates(0, cand, 0) & 1, cand, {}, 0, everything ^ 1)]
    while stack:
        x, ys, cand, partial, used, free = stack[-1]
        if not ys:
            stack.pop()
            continue
        low = ys & -ys
        stack[-1] = (x, ys ^ low, cand, partial, used, free)
        y = sigma[x] = low.bit_length() - 1
        if not free:
            yield tuple(sigma)
            continue
        # the state after x -> y; y is a candidate of x, so every line
        # through x keeps some cand line
        mask = through2[y]
        old, cand, partial = cand, cand.copy(), partial.copy()
        for i in point_lines1[x]:
            c = cand[i] = old[i] & mask
            if point_mask1[i] & free:
                partial[i] = c.bit_count() * v + i
            else:
                partial.pop(i, None)
        used |= low
        # the least unassigned point on the tightest partially-assigned
        # line, falling back to the least unassigned point
        left = point_mask1[min(partial.values()) % v] & free if partial else free
        x = (left & -left).bit_length() - 1
        stack.append((x, candidates(x, cand, used), cand, partial, used, free ^ (1 << x)))
