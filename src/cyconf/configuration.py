"""Cyclic incidence structures generated by translating a base set.

A cyclic configuration on Z_v with base S has point set Z_v and lines
S + i for i in Z_v.  It satisfies the (v_k) configuration axioms (every
point on exactly k of the v distinct lines, two lines sharing at most
one point) precisely when S is a base line, a fact the tests check
against a direct reading of the axioms.

A configuration builds its lines once, on first use, and every later
call hands out the same immutable tuple (``lines``) and frozenset
(``line_set``).  Such derived data is kept through ``_kept`` alone, off
the fields, so equality and hashing still look at v and the base.

The incidence structure splits into connected components along the
subgroup generated by the differences of S: if S (translated to contain
0) generates the subgroup of order d, the structure is v/d disjoint
copies of the configuration on Z_d with base S/g, g = v/d.

The Levi graph is the bipartite point/line incidence graph.  Its girth
is at least 6 exactly when the configuration axioms hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

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

    def lines(self) -> tuple[frozenset[int], ...]:
        """The v translates of the base, indexed by translation amount.

        Built once per configuration; every call returns the same tuple.
        """
        return _kept(self, "_lines", lambda: tuple(incidence_matrix(self).translate_system()))

    def line_set(self) -> frozenset[frozenset[int]]:
        return _kept(self, "_line_set", lambda: frozenset(self.lines()))


def _kept(C: CyclicConfiguration, name: str, build=None):
    """The value kept on C under name, or None when none is kept.

    With build, a missing value is first built by build() and kept.
    Kept values live in the instance dict, not in fields, so equality
    and hashing never see them; this is the one place that touches it.
    Names start with "_", since a kept value would shadow a method.
    """
    kept = C.__dict__
    if build is not None and name not in kept:
        kept[name] = build()
    return kept.get(name)


def _maps_lines_onto(sigma, base, target: frozenset[frozenset[int]]) -> bool:
    """True iff the point map sigma carries the lines base + t exactly onto the set target.

    Line base + t goes to {sigma[(s + t) % v] for s in base}, which is
    entry t of the rotations sigma[s:] + sigma[:s]; zipping the
    rotations replays all v lines without building them.
    """
    rotations = [sigma[s:] + sigma[:s] for s in base]
    return set(map(frozenset, zip(*rotations))) == target


def _component_split(C: CyclicConfiguration) -> tuple[int, list[int]]:
    """(g, T) with the base translated to contain 0 equal to g*T.

    g = gcd(v, S - S[0]), and T is the base of each of the g components
    on Z_(v/g).
    """
    shifted = [s - C.base[0] for s in C.base]
    g = gcd(C.v, *shifted)
    return g, [s // g for s in shifted]


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
