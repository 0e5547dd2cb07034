"""Helpers shared by the tests: reference routes the library itself does not need."""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter, deque
from collections.abc import Iterator
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import gcd

from cyconf import baseline
from cyconf.baseline import SliceOrbit, _component_split, _difference_set, canonical_form
from cyconf.circulant import CirculantMatrix, _gram_profile, _translates
from cyconf.configuration import (
    CyclicConfiguration,
    LeviGraph,
    _maps_lines_onto,
    levi_graph,
)
from cyconf.counting import count_fixed_closed
from cyconf.iso import _refinement_rounds
from cyconf.residue_ring import factorization, inverse, phi, units
from cyconf.solving_sets import SolvingSetParams, SolvingSetUnavailable


def affine_image(S, a: int, b: int, v: int) -> tuple[int, ...]:
    """The sorted tuple a*S + b mod v."""
    return tuple(sorted((a * s + b) % v for s in S))


def reference_slice(v: int, k: int, connected: bool) -> tuple[tuple[int, ...], ...]:
    """The translation slice by filtering every (k-1)-subset of 1..v-1.

    The filter `baseline._slice` used before it grew the slice from
    difference masks; the two must agree member for member, in order.
    """
    if k * k - k + 1 > v:
        return ()
    out = []
    target = k * k - k + 1
    for comb in combinations(range(1, v), k - 1):
        X = (0,) + comb
        if len(_difference_set(X, v)) != target:
            continue
        if connected and gcd(v, *comb) != 1:
            continue
        out.append(X)
    return tuple(out)


def reference_zero_images(S, v: int) -> Iterator[tuple[int, ...]]:
    """Yield a*(S - x) as a sorted tuple for each x in S, then each unit a.

    The image generator `baseline._zero_images` used before it built the
    images column by column; the two must agree image for image, in order.
    """
    elems = sorted({s % v for s in S})
    us = units(v)
    for x in elems:
        shifted = [(s - x) % v for s in elems]
        for a in us:
            yield tuple(sorted([a * t % v for t in shifted]))


def reference_slice_orbits(v: int, k: int, connected: bool) -> Iterator[SliceOrbit]:
    """The orbit walk `baseline.slice_orbits` used before it looked images up
    in a {member: index} table, with bisect per image; the two must give
    the same orbits, members and witnesses, in order.
    """
    if k < 3:
        raise ValueError(f"base lines need k >= 3, got k={k}")
    slice_ = baseline._slice(v, k, connected)
    n = len(slice_)
    seen = bytearray(n)
    for i, rep in enumerate(slice_):
        if seen[i]:
            continue
        found: dict[int, tuple[int, int]] = {}
        for image, (x, a) in zip(reference_zero_images(rep, v), product(rep, units(v))):
            j = bisect_left(slice_, image)
            if j == n or slice_[j] != image:
                raise ArithmeticError(f"image {image} of {rep} mod {v} is not in the slice")
            if j in found:
                continue
            if seen[j]:
                raise ArithmeticError(f"orbits of {slice_[j]} and {rep} mod {v} overlap")
            found[j] = (a, x)
        for j in found:
            seen[j] = 1
        yield SliceOrbit(rep, tuple((slice_[j], *found[j]) for j in sorted(found)))


def reference_unit_sum(v: int) -> int:
    """The orbit-counting sum walked over every residue of Z_v.

    `counting.count_unit_sum` sums over roots of unity built by CRT.
    Here every l in 1..v-1 is tested for l**2 = 1 or l**3 = 1 directly,
    and count_fixed_closed is summed over those: it is 0 on every other
    unit, which the tests check on the full unit walk at small v.
    """
    roots = [l for l in range(1, v) if l * l % v == 1 or l * l * l % v == 1]
    total = Fraction(sum(count_fixed_closed(v, l) for l in roots), 3 * phi(v))
    if total.denominator != 1:
        raise ArithmeticError(f"unit sum not integral at v={v}")
    return int(total)


def reference_affine_map_between(S1, S2, v: int) -> tuple[int, int] | None:
    """Least (a, b) lexicographically with a*S1 + b == S2, or None.

    A plain scan of every unit and offset.  It shares only the
    canonical-form check with `baseline.affine_map_between`, which
    composes the maps onto the least image instead; the two must agree
    on every pair.
    """
    set1 = frozenset(s % v for s in S1)
    set2 = frozenset(s % v for s in S2)
    if len(set1) != len(set2):
        return None
    s0 = min(set1)
    if canonical_form(set1, v) != canonical_form(set2, v):
        return None  # different orbits: no unit can work
    for a in units(v):
        base = a * s0
        for b in sorted((t - base) % v for t in set2):
            if all((a * s + b) % v in set2 for s in set1):
                return a, b
    return None


@lru_cache(maxsize=None)  # configurations hash and compare by (v, base)
def full_trace(C: CyclicConfiguration) -> tuple:
    """C's whole refinement trace, computed once per (v, base).

    The round entries `iso._refinement_rounds` yields, without the
    colourings: the library keeps no trace to replay, and pairwise
    comparisons would otherwise refine every configuration again.
    """
    return tuple(entry for entry, _ in _refinement_rounds(C))


def refined_colours(C: CyclicConfiguration) -> tuple[int, ...]:
    """The final point colouring that C's refinement hands out with its last round."""
    ((_, points),) = deque(_refinement_rounds(C), maxlen=1)
    return tuple(points)


def reference_refinement_invariant(C: CyclicConfiguration) -> tuple:
    """Colour refinement of the Levi graph with point 0 individualized.

    The rounds `iso._refinement_rounds` computes on Z_v by rotating
    colour lists, here read off the Levi graph's adjacency lists vertex
    by vertex: each round recolours the lines from the point colours,
    then the points from the new line colours, and the rounds stop when
    the point colouring is discrete or its round added no point class.
    The two traces must be equal.
    """
    v = C.v
    adj = levi_graph(C).adjacency()

    def recoloured(colour, vertices):
        sigs = [(colour[u], tuple(sorted(colour[w] for w in adj[u]))) for u in vertices]
        counts = Counter(sigs)
        order = sorted(counts)
        index = {sig: n for n, sig in enumerate(order)}
        for u, sig in zip(vertices, sigs):
            colour[u] = index[sig]
        return tuple((sig, counts[sig]) for sig in order)

    colour = [0] + [1] * (v - 1) + [0] * v
    before = len(set(colour[:v]))
    trace = []
    while True:
        line_half = recoloured(colour, range(v, 2 * v))
        point_half = recoloured(colour, range(v))
        trace.append((line_half, point_half))
        if len(point_half) in (v, before):
            return tuple(trace)
        before = len(point_half)


@lru_cache(maxsize=None)
def jacobi_partition(C: CyclicConfiguration) -> tuple[tuple, frozenset[frozenset[int]]]:
    """The simultaneous refinement's whole trace and its final point partition.

    The schedule `iso._refinement_rounds` ran before it recoloured points
    and lines in turn: each round recolours every vertex at once, from
    the old colours of its neighbours, numbering points and lines
    together, until the number of classes stops growing.  Both schedules
    end at the coarsest equitable partition that refines the start, so
    the final point partitions must be equal, and configurations with
    equal traces under one schedule have equal traces under the other.
    Only the alternating rounds' stop at a discrete point colouring
    could join a pair that a further line half would part, and none of
    the tested pairs is such a pair.
    """
    v, S = C.v, C.base
    points = [0] + [1] * (v - 1)
    lines = [2] * v
    classes = len(set(points + lines))
    trace = []
    while True:
        around_points = _translates(lines, [-s for s in S])
        around_lines = _translates(points, S)
        point_sigs = list(zip(points, map(tuple, map(sorted, around_points))))
        line_sigs = list(zip(lines, map(tuple, map(sorted, around_lines))))
        entry = tuple(sorted(Counter(point_sigs + line_sigs).items()))
        trace.append(entry)
        if len(entry) == classes:
            return tuple(trace), _as_partition(points)
        index = {sig: n for n, (sig, _) in enumerate(entry)}
        points = list(map(index.__getitem__, point_sigs))
        lines = list(map(index.__getitem__, line_sigs))
        classes = len(entry)


def _as_partition(colours) -> frozenset[frozenset[int]]:
    """The classes of a colouring, one colour per point, as a set partition."""
    classes: dict = {}
    for x, c in enumerate(colours):
        classes.setdefault(c, set()).add(x)
    return frozenset(map(frozenset, classes.values()))


def refined_partition(C: CyclicConfiguration) -> frozenset[frozenset[int]]:
    """The final point partition of C's refinement, as a set partition."""
    return _as_partition(refined_colours(C))


def reference_maps_lines_onto(sigma, lines, target: frozenset[frozenset[int]]) -> bool:
    """True iff sigma carries the given lines exactly onto the set target.

    The line-by-line replay `configuration._maps_lines_onto` used before
    it read the lines off rotations of sigma; the two must agree.
    """
    return {frozenset(sigma[x] for x in line) for line in lines} == target


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
    g, component = _component_split(C.base, C.v)
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


def reference_incidence_text(A: CirculantMatrix) -> str:
    """`incidence_text` row by row, as it was built before it rotated row 0."""
    return "\n".join("".join(str(b) for b in A.row(i)) for i in range(A.v)) + "\n"


def gram_matrix(A: CirculantMatrix) -> list[list[int]]:
    """A A^T as a dense integer matrix, the circulant of the Gram profile."""
    c = _gram_profile(A)
    v = A.v
    return [[c[(j - i) % v] for j in range(v)] for i in range(v)]


def characteristic_polynomial(M: list[list[int]]) -> tuple[int, ...]:
    """Coefficients of det(xI - M), highest power first, exact integers.

    Berkowitz recursion: the coefficient vector of the leading k x k
    principal submatrix is a lower-triangular Toeplitz image of the
    previous one, with first column (1, -a_kk, -R S, -R A S, ...).
    Division-free, so there is no intermediate rounding anywhere.
    `circulant.gram_similar` compares closed-walk counts instead; this
    dense route is its test oracle.
    """
    n = len(M)
    if n == 0:
        return (1,)
    coeffs = [1, -M[0][0]]
    for k in range(2, n + 1):
        sub = [row[: k - 1] for row in M[: k - 1]]
        R = M[k - 1][: k - 1]
        Scol = [M[i][k - 1] for i in range(k - 1)]
        col = [1, -M[k - 1][k - 1]]
        w = R[:]
        for step in range(k - 1):
            col.append(-sum(wi * si for wi, si in zip(w, Scol)))
            if step < k - 2:
                w = [sum(w[i] * sub[i][j] for i in range(k - 1)) for j in range(k - 1)]
        # lower-triangular Toeplitz product: new[t] = sum col[t-s] coeffs[s]
        coeffs = [
            sum(col[t - s] * coeffs[s] for s in range(min(t, k - 1) + 1))
            for t in range(k + 1)
        ]
    return tuple(coeffs)


# --------------------------------------------- reference solving-set construction


def _is_permutation(perm: tuple[int, ...]) -> bool:
    return sorted(perm) == list(range(len(perm)))


def _perm_compose(first: tuple[int, ...], then: tuple[int, ...]) -> tuple[int, ...]:
    """Apply ``first``, then ``then`` (left-to-right product)."""
    return tuple(then[x] for x in first)


def _class_shift(v: int, q: int, i: int) -> tuple[int, ...]:
    """Add q to every point congruent to i mod q, fix the rest."""
    if v % q:
        raise ValueError(f"q={q} must divide v={v}")
    return tuple((x + q) % v if x % q == i % q else x for x in range(v))


def _multiplier_perm(v: int, j: int) -> tuple[int, ...]:
    """The global multiplier x -> j*x for a unit j."""
    if gcd(j, v) != 1:
        raise ValueError(f"{j} is not a unit modulo {v}")
    return tuple(j * x % v for x in range(v))


def _class_multiplier(v: int, q: int, i: int, j: int) -> tuple[int, ...]:
    """Multiply class i mod q by the unit j, fix the other classes.

    Needs j = 1 mod q, else the map would leak out of the class and not
    even be a bijection of it.
    """
    if v % q:
        raise ValueError(f"q={q} must divide v={v}")
    if gcd(j, v) != 1:
        raise ValueError(f"{j} is not a unit modulo {v}")
    if j % q != 1:
        raise ValueError(f"class multiplier needs j = 1 mod q, got j={j}")
    return tuple(j * x % v if x % q == i % q else x for x in range(v))


def _layered_multiplier(params: SolvingSetParams, k: int) -> tuple[int, ...]:
    """Multiply class j by a**alpha * b**(-k*j), all classes at once.

    Each factor is a class multiplier (they commute, acting on disjoint
    classes); layer 0 is the global multiplier by a**alpha.  Parameters
    from solving_set_params make every factor a unit = 1 mod q; for
    inconsistent ones _class_multiplier raises ValueError.
    """
    v, q = params.v, params.q
    binv = inverse(params.b, v)
    out = tuple(range(v))
    for j in range(q):
        m = pow(params.a, params.alpha, v) * pow(binv, k * j, v) % v
        out = _perm_compose(out, _class_multiplier(v, q, j, m))
    return out


def _preserves_lines(perm: tuple[int, ...], C: CyclicConfiguration) -> bool:
    """True iff the permutation maps the line set of C onto itself."""
    return _maps_lines_onto(perm, C.base, C.line_set())


def _admissible_layers(C: CyclicConfiguration, params: SolvingSetParams) -> list[int]:
    # layer k passes when the product over classes l of the class-l
    # shift raised to b**((l+1)*k) mod p preserves the lines; layer 0
    # is the translation x -> x + q and always passes
    v, q = params.v, params.q
    out = []
    for k in range(q):
        sigma = list(range(v))
        for l in range(q):
            shift = pow(params.b, (l + 1) * k, params.p) * q % v
            for x in range(l, v, q):
                sigma[x] = (x + shift) % v
        if _preserves_lines(tuple(sigma), C):
            out.append(k)
    return out


def reference_solving_set(C: CyclicConfiguration, params: SolvingSetParams) -> list[tuple[int, ...]]:
    """The solving set for C, built by composing permutation tables.

    This is the construction as first written, kept as an independent
    reference for solving_sets.solving_set: every member is a product of
    multipliers, class multipliers and layers, composed left factor
    first.

    Raises SolvingSetUnavailable when the hypotheses fail: the
    multiplier by b must preserve C's lines and the class-0 shift must
    not.  Every returned permutation is audited for bijectivity.
    """
    v, q = params.v, params.q
    if C.v != v:
        raise ValueError(f"configuration lives on Z_{C.v}, params on Z_{v}")
    if not _preserves_lines(_multiplier_perm(v, params.b), C):
        raise SolvingSetUnavailable("multiplier b is not an automorphism")
    if _preserves_lines(_class_shift(v, q, 0), C):
        raise SolvingSetUnavailable("class-0 shift is an automorphism")

    mu_a = _multiplier_perm(v, params.a)
    beta = None
    power = mu_a
    for i in range(1, params.p):
        if _preserves_lines(power, C):
            beta = i
            break
        power = _perm_compose(power, mu_a)
    if beta is None:
        raise RuntimeError("no power of mu_a below p fixes the lines, but mu_a**(p-1) is the identity")

    layers = [_layered_multiplier(params, k) for k in _admissible_layers(C, params)]
    out = []
    mu_a_pow = tuple(range(v))
    for i in range(beta):
        for nu in layers:
            for j in range(1, q):  # j < q < p, so j is a unit mod pq
                mu_j_inv = _multiplier_perm(v, inverse(j, v))
                perm = _perm_compose(_perm_compose(mu_a_pow, nu), mu_j_inv)
                if not _is_permutation(perm):
                    raise RuntimeError(f"solving-set member {perm} is not a permutation")
                out.append(perm)
        mu_a_pow = _perm_compose(mu_a_pow, mu_a)
    return out
