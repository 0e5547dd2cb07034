"""Circulant 0/1 matrices, Gram profiles, and matrix-level equivalences.

A circulant A over Z_v is determined by its support S: row i is the
characteristic vector of S + i, so entry (i, j) = 1 iff j - i lies in S.
Two relations on circulants matter here:

* PAQ equivalence: A1 = P A2 Q for permutation matrices P, Q.  This is
  the same thing as a color-preserving isomorphism of the two bipartite
  row/column incidence graphs, and is decided by the backtracking search.
* Gram similarity: A1 A1^T and A2 A2^T have equal sorted Gram profiles
  and equal characteristic polynomials.  The Gram matrix of a circulant
  is the circulant of the intersection profile c[d] = |S meet (S + d)|,
  its Gram profile.  Its characteristic polynomial is fixed by the
  power sums of its eigenvalues, and since c is symmetric half of them
  suffice: the closed-walk counts (G^k)[0][0] for k <= v/2 + 1, plus
  the eigenvalue sum_d (-1)^d c[d] at even v.
  Each count is exact integer arithmetic on a vector over Z_v packed
  into one Python int (Kronecker substitution); no floats, no
  polynomial.  `_closed_walks` spells out why this is exact.

For supports of weight at most 3 the two relations coincide with affine
(multiplier) equivalence of the supports.  At weight 4 a single extra
family appears: for even v = 2u, the supports {0, x, y, y+u} and
{0, x+u, y, y+u} are PAQ equivalent without being affinely equivalent,
subject to divisibility side conditions searched here.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import NamedTuple

from . import _search
from .baseline import affine_map_between
from .residue_ring import CapExceeded, ENUMERATION_CAP, _check_enumeration

PAQ_SEARCH_CAP = 300
GRAM_CAP = 1000


@dataclass(frozen=True)
class CirculantMatrix:
    """v x v circulant 0/1 matrix with the given support in row 0."""

    v: int
    support: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.v < 1:
            raise ValueError("modulus must be positive")
        cleaned = tuple(sorted({s % self.v for s in self.support}))
        object.__setattr__(self, "support", cleaned)

    @property
    def weight(self) -> int:
        return len(self.support)

    def row(self, i: int) -> tuple[int, ...]:
        _check_enumeration(self.v)  # rows have v entries: refuse huge v first
        shifted = {(s + i) % self.v for s in self.support}
        return tuple(1 if j in shifted else 0 for j in range(self.v))

    def translate_system(self) -> list[frozenset[int]]:
        """The rows' supports S + i for i = 0..v-1, in row order.

        Row i is entry i of the rotations points[s:] + points[:s] of
        points = (0, ..., v-1), one rotation per s in S.  Raises
        CapExceeded above ENUMERATION_CAP, before building anything.
        """
        _check_enumeration(self.v)
        if not self.support:
            return [frozenset()] * self.v
        points = tuple(range(self.v))
        return list(map(frozenset, zip(*[points[s:] + points[:s] for s in self.support])))


def _gram_profile(A: CirculantMatrix) -> tuple[int, ...]:
    """Intersection numbers c[d] = |S meet (S + d)| for d in Z_v.

    A A^T is the circulant with first row c.  c[0] is the weight, c is
    symmetric (c[d] = c[-d]) and sums to weight**2.  c[d] counts the
    ordered pairs (s, t) of S with s - t = d.
    """
    v, S = A.v, A.support
    c = [0] * v
    for s in S:
        for t in S:
            c[(s - t) % v] += 1
    return tuple(c)


def _closed_walks(c: tuple[int, ...]) -> tuple[int, ...]:
    """lambda_{v/2} (0 for odd v), then (G^k)[0][0] for k = 1..v//2 + 1.

    G is the circulant with first row c, a Gram profile: nonnegative and
    symmetric.  Two profiles with equal sorted entries have equal
    characteristic polynomials iff these tuples are equal:

    * G is circulant, so Tr(G^k) = v (G^k)[0][0].  These are the power
      sums of the eigenvalues lambda_j = sum_d c[d] z^(jd), z = e^(2 pi i/v),
      and over Q equal power sums p_1..p_n are equivalent to equal
      characteristic polynomials (Newton's identities).
    * c is symmetric, so lambda_j = lambda_{-j}.  The spectrum is
      2H - {lambda_0} - {lambda_{v/2}}, with H = {lambda_j : 0 <= j <= v/2}
      of m = v//2 + 1 elements (no lambda_{v/2} term for odd v).
    * lambda_0 = sum(c) agrees once the sorted profiles agree.  The values
      of odd multiplicity in the spectrum are exactly lambda_0 and
      lambda_{v/2}, unless the two are equal, so equal spectra force
      equal lambda_{v/2} = sum_d (-1)^d c[d].  Given that, equal spectra
      iff equal H iff equal p_1..p_m of H iff equal walk counts k <= m.

    G^k e_0 is held in one int, slot d in bits [d*w, (d+1)*w): multiplying
    by G is one shift-add per nonzero c[d], and reducing mod y^v - 1
    folds the top v slots onto the bottom ones.  Every entry is >= 0
    and they sum to sum(c)^k <= sum(c)^m < 2^(w - 1), so no slot carries
    into the next.
    """
    v = len(c)
    m = v // 2 + 1
    w = m * max(sum(c), 2).bit_length() + 1
    vw, low = v * w, (1 << w) - 1
    mask = (1 << vw) - 1
    terms = [(d * w, x) for d, x in enumerate(c) if x]
    out = [sum(x if d % 2 == 0 else -x for d, x in enumerate(c)) if v % 2 == 0 else 0]
    g = 1
    for _ in range(m):
        h = 0
        for shift, x in terms:
            h += (g << shift) * x if x > 1 else g << shift
        g = (h & mask) + (h >> vw)
        out.append(g & low)
    return tuple(out)


def gram_similar(A1: CirculantMatrix, A2: CirculantMatrix) -> bool:
    """True iff the two Gram matrices have equal sorted Gram profiles and
    equal characteristic polynomials.

    The sorted profile is a PAQ invariant, and some pairs with equal
    polynomials differ in it (at v=12, {0,1,2,6,7} and {0,1,3,6,9}), so
    this is stricter than equal spectra.  Raises CapExceeded above
    v = GRAM_CAP, before building anything.
    """
    if A1.v != A2.v:
        raise ValueError("gram similarity needs a common modulus")
    if A1.v > GRAM_CAP:
        raise CapExceeded(f"v={A1.v} exceeds the gram cap {GRAM_CAP}")
    c1, c2 = _gram_profile(A1), _gram_profile(A2)
    if sorted(c1) != sorted(c2):
        # permutation similarity preserves the entry multiset
        return False
    return _closed_walks(c1) == _closed_walks(c2)


def paq_equivalent(
    A1: CirculantMatrix, A2: CirculantMatrix, cap: int | None = None
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Row and column permutations (pi, sigma) with A1 = P A2 Q, or None.

    pi and sigma are image tables: A1[i][j] == A2[pi[i]][sigma[j]] for
    all i, j.  Decided by searching for a point bijection between the
    translate systems; the row permutation is read off from the matched
    lines afterwards.
    """
    if A1.v != A2.v:
        raise ValueError("paq equivalence needs a common modulus")
    v = A1.v
    limit = min(cap if cap is not None else PAQ_SEARCH_CAP, ENUMERATION_CAP)
    if v > limit:
        raise CapExceeded(f"v={v} exceeds the paq search cap {limit}")
    lines1 = A1.translate_system()
    lines2 = A2.translate_system()
    sigma = next(_search.line_bijections(v, lines1, lines2, fix_zero=True), None)
    if sigma is None:
        return None
    # repeated lines take their rows in increasing order
    image_to_rows: dict[frozenset[int], list[int]] = {}
    for j, L in enumerate(lines2):
        image_to_rows.setdefault(L, []).append(j)
    pi = []
    for L in lines1:
        rows = image_to_rows.get(frozenset(sigma[x] for x in L))
        if not rows:
            raise RuntimeError(f"the searched bijection {sigma} maps {sorted(L)} off the rows of A2")
        pi.append(rows.pop(0))
    return tuple(pi), sigma


class Weight4Witness(NamedTuple):
    """Parameters of the exceptional weight-4 family at even v = 2u."""

    x: int
    y: int
    u: int
    a1: int
    b1: int
    a2: int
    b2: int


def exceptional_weight4_witness(v: int, S1, S2) -> Weight4Witness | None:
    """Search the exceptional family for the support pair (S1, S2).

    Looks for the least (x, y) lexicographically such that some affine
    image of S1 is {0, x, y, y+u} and some affine image of S2 is
    {0, x+u, y, y+u}, with v = 2u, gcd(x, y, v) = 1, x even, 2x | u and
    x/2 not congruent to y + u/(2x) modulo u/x.  Each side is normalized
    by its own affine map; both are reported.  Odd v has no such family.
    """
    if v % 2:
        return None
    _check_enumeration(v)
    u = v // 2
    for x in range(2, u + 1, 2):
        if u % (2 * x):
            continue
        for y in range(v):
            if gcd(gcd(x, y), v) != 1:
                continue
            if (x // 2) % (u // x) == (y + u // (2 * x)) % (u // x):
                continue
            d1 = {0, x, y, (y + u) % v}
            d2 = {0, (x + u) % v, y, (y + u) % v}
            if len(d1) != 4 or len(d2) != 4:
                continue
            w1 = affine_map_between(S1, d1, v)
            if w1 is None:
                continue
            w2 = affine_map_between(S2, d2, v)
            if w2 is None:
                continue
            return Weight4Witness(x, y, u, w1[0], w1[1], w2[0], w2[1])
    return None


def incidence_text(A: CirculantMatrix) -> str:
    """v lines of v characters, row j the characteristic vector of S + j.

    Row j is row 0 rotated right by j, so row 0's string is built once
    and sliced.  Raises CapExceeded above ENUMERATION_CAP, from row 0.
    """
    v, row = A.v, "".join(map(str, A.row(0)))
    return "".join(row[v - j:] + row[:v - j] + "\n" for j in range(v))
