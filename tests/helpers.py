"""Helpers shared by the tests: reference routes the library itself does not need."""

from __future__ import annotations

from collections import deque

from cyconf.baseline import canonical_form
from cyconf.circulant import CirculantMatrix, _gram_profile
from cyconf.configuration import CyclicConfiguration, LeviGraph, _component_split
from cyconf.residue_ring import factorization


def affine_image(S, a: int, b: int, v: int) -> tuple[int, ...]:
    """The sorted tuple a*S + b mod v."""
    return tuple(sorted((a * s + b) % v for s in S))


def validate(C: CyclicConfiguration) -> bool:
    """Direct check of the (v_k) configuration axioms.

    Requires v distinct lines, every point on exactly k of them, and
    every pair of distinct lines meeting in at most one point.
    """
    lines = C.lines()
    distinct = set(lines)
    if len(distinct) != C.v:
        return False
    incidence = {p: 0 for p in range(C.v)}
    for line in distinct:
        for p in line:
            incidence[p] += 1
    if any(count != C.k for count in incidence.values()):
        return False
    as_list = sorted(distinct, key=sorted)
    for i in range(len(as_list)):
        for j in range(i + 1, len(as_list)):
            if len(as_list[i] & as_list[j]) > 1:
                return False
    return True


def decompose(C: CyclicConfiguration) -> list[CyclicConfiguration]:
    """Connected components, each re-based on its own cyclic group.

    The base is first translated to contain 0.  With g = gcd(v, S) the
    differences generate the subgroup of order d = v/g, and the
    configuration is g disjoint copies of the one on Z_d with base S/g,
    re-canonicalized on Z_d.
    """
    g, component = _component_split(C)
    d = C.v // g
    return [CyclicConfiguration(d, canonical_form(component, d)) for _ in range(g)]


def girth(G: LeviGraph) -> int | None:
    """Length of a shortest cycle, None if the graph is acyclic.

    BFS from every vertex; a non-tree edge seen from source s closes
    a cycle of length dist(u) + dist(w) + 1, and the minimum over all
    sources is exact.
    """
    adj = G.adjacency()
    best: int | None = None
    n = len(adj)
    for source in range(n):
        dist = [-1] * n
        parent = [-1] * n
        dist[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif parent[u] != w:
                    cycle = dist[u] + dist[w] + 1
                    if best is None or cycle < best:
                        best = cycle
    return best


def contains_coset(S, v: int) -> bool:
    """True iff S contains a coset of a subgroup of prime order.

    Only prime orders need checking: any coset of a larger subgroup
    contains one of prime order.
    """
    elems = {s % v for s in S}
    for p, _ in factorization(v):
        step = v // p
        for x in elems:
            if all((x + j * step) % v in elems for j in range(1, p)):
                return True
    return False


def order2_contributors_closed(v: int) -> int:
    """Closed form of the order-2 unit census for even v > 4, from v mod 8.

    2**(k-1) - 2 for v = 2, 6 mod 8; 2**k - 3 for v = 4 mod 8;
    2**(k+1) - 3 for v = 0 mod 8, with k the number of distinct primes.
    """
    if v <= 4 or v % 2:
        raise ValueError(f"closed order-2 census applies to even v > 4, got {v}")
    k = len(factorization(v))
    r = v % 8
    if r in (2, 6):
        return 2 ** (k - 1) - 2
    if r == 4:
        return 2**k - 3
    return 2 ** (k + 1) - 3


def gram_matrix(A: CirculantMatrix) -> list[list[int]]:
    """A A^T as a dense integer matrix, the circulant of the Gram profile."""
    c = _gram_profile(A)
    v = A.v
    return [[c[(j - i) % v] for j in range(v)] for i in range(v)]
