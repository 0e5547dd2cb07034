"""Cyclic incidence structures generated by translating a base set.

A cyclic configuration on Z_v with base S has point set Z_v and lines
S + i for i in Z_v.  It satisfies the (v_k) configuration axioms (every
point on exactly k of the v distinct lines, two lines sharing at most
one point) precisely when S is a base line, a fact the validator checks
directly from the axioms so the two routes stay independent.

The incidence structure splits into connected components along the
subgroup generated by the differences of S: if S (translated to contain
0) generates the subgroup of order d, the structure is v/d disjoint
copies of the configuration on Z_d with base S/g, g = v/d.

The Levi graph is the bipartite point/line incidence graph.  Its girth
is at least 6 exactly when the configuration axioms hold.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import gcd

from .baseline import canonical_form
from .circulant import CirculantMatrix


@dataclass(frozen=True)
class CyclicConfiguration:
    """Points Z_v, lines S + i for the stored base tuple S."""

    v: int
    base: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.v < 1:
            raise ValueError("modulus must be positive")
        cleaned = tuple(sorted({s % self.v for s in self.base}))
        if not cleaned:
            raise ValueError("base must be nonempty")
        object.__setattr__(self, "base", cleaned)

    @property
    def k(self) -> int:
        return len(self.base)

    def lines(self) -> list[frozenset[int]]:
        """The v translates of the base, indexed by translation amount."""
        return incidence_matrix(self).translate_system()

    def line_set(self) -> frozenset[frozenset[int]]:
        return frozenset(self.lines())


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


def _maps_lines_onto(sigma, lines, target: frozenset[frozenset[int]]) -> bool:
    """True iff the point map sigma carries the lines exactly onto the set target."""
    return {frozenset(sigma[x] for x in line) for line in lines} == target


def _component_split(C: CyclicConfiguration) -> tuple[int, list[int]]:
    """(g, T) with the base translated to contain 0 equal to g*T.

    g = gcd(v, S - S[0]), and T is the base of each of the g components
    on Z_(v/g).
    """
    shifted = [s - C.base[0] for s in C.base]
    g = gcd(C.v, *shifted)
    return g, [s // g for s in shifted]


def decompose(C: CyclicConfiguration) -> list[CyclicConfiguration]:
    """Connected components, each re-based on its own cyclic group.

    The base is first translated to contain 0.  With g = gcd(v, S) the
    differences generate the subgroup of order d = v/g, and the
    configuration is g disjoint copies of the one on Z_d with base S/g.
    Components are returned re-canonicalized on Z_d so multisets of
    components compare well across different decompositions.
    """
    g, component = _component_split(C)
    d = C.v // g
    component_base = canonical_form(component, d)
    return [CyclicConfiguration(d, component_base) for _ in range(g)]


@dataclass(frozen=True)
class LeviGraph:
    """Bipartite incidence graph: point vertices p0..p(v-1), line vertices l0..l(v-1)."""

    v: int
    k: int
    edges: tuple[tuple[int, int], ...]

    def adjacency(self) -> list[list[int]]:
        """Adjacency lists over 2v vertices, points first then lines."""
        adj: list[list[int]] = [[] for _ in range(2 * self.v)]
        for p, l in self.edges:
            adj[p].append(self.v + l)
            adj[self.v + l].append(p)
        return adj

    def girth(self) -> int | None:
        """Length of a shortest cycle, None if the graph is acyclic.

        BFS from every vertex; a non-tree edge seen from source s closes
        a cycle of length dist(u) + dist(w) + 1, and the minimum over
        all sources is exact.
        """
        adj = self.adjacency()
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


def levi_graph(C: CyclicConfiguration) -> LeviGraph:
    """Incidence graph with edges sorted by point then line index."""
    edges = sorted(
        (p, i) for i, line in enumerate(C.lines()) for p in line
    )
    return LeviGraph(C.v, C.k, tuple(edges))


def incidence_matrix(C: CyclicConfiguration) -> CirculantMatrix:
    """Line-by-point incidence matrix; row j is the translate S + j."""
    return CirculantMatrix(C.v, C.base)


def levi_text(G: LeviGraph) -> str:
    """Plain-text edge list: header 'levi v k', then 'p<i> l<j>' lines."""
    lines = [f"levi {G.v} {G.k}"]
    lines += [f"p{p} l{l}" for p, l in G.edges]
    return "\n".join(lines) + "\n"


def parse_levi_text(text: str) -> LeviGraph:
    """Inverse of levi_text; rejects malformed headers or edges."""
    rows = [r for r in text.splitlines() if r.strip()]
    if not rows:
        raise ValueError("empty levi text")
    head = rows[0].split()
    if len(head) != 3 or head[0] != "levi":
        raise ValueError(f"bad levi header: {rows[0]!r}")
    v, k = int(head[1]), int(head[2])
    edges = []
    for row in rows[1:]:
        parts = row.split()
        if len(parts) != 2 or not parts[0].startswith("p") or not parts[1].startswith("l"):
            raise ValueError(f"bad levi edge: {row!r}")
        p, l = int(parts[0][1:]), int(parts[1][1:])
        if not (0 <= p < v and 0 <= l < v):
            raise ValueError(f"edge out of range: {row!r}")
        edges.append((p, l))
    return LeviGraph(v, k, tuple(edges))
