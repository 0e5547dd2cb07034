"""Circulant 0/1 matrices, Gram profiles, and matrix-level equivalences.

A circulant A over Z_v is determined by its support S: row i is the
characteristic vector of S + i, so entry (i, j) = 1 iff j - i lies in S.
Two relations on circulants matter here:

* PAQ equivalence: A1 = P A2 Q for permutation matrices P, Q.  This is
  the same thing as a color-preserving isomorphism of the two bipartite
  row/column incidence graphs, and is decided by the backtracking search.
* Gram similarity: A1 A1^T and A2 A2^T have equal characteristic
  polynomials.  The Gram matrix of a circulant is the circulant of the
  intersection profile c[d] = |S meet (S + d)|, and the characteristic
  polynomial is computed exactly over the integers, never through
  floats.  A circulant with first row c is f(P) for the cyclic shift P
  and f(y) = sum c[d] y^d, so it acts as multiplication by f on
  Q[y]/(y^v - 1).  That ring splits into the fields Q[y]/Phi_e(y), one
  for each divisor e of v, where Phi_e is the e-th cyclotomic
  polynomial.  The characteristic polynomial is therefore the
  product over e | v of the characteristic polynomials of the
  phi(e) x phi(e) integer matrices of multiplication by f mod Phi_e,
  each computed by Berkowitz (no divisions).  The block sizes sum to v,
  and the blocks cost far less than one dense v x v Berkowitz.

For supports of weight at most 3 the two relations coincide with affine
(multiplier) equivalence of the supports.  At weight 4 a single extra
family appears: for even v = 2u, the supports {0, x, y, y+u} and
{0, x+u, y, y+u} are PAQ equivalent without being affinely equivalent,
subject to divisibility side conditions searched here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from typing import NamedTuple

from . import _search
from .baseline import affine_map_between
from .residue_ring import CapExceeded, ENUMERATION_CAP

PAQ_SEARCH_CAP = 300


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
        shifted = {(s + i) % self.v for s in self.support}
        return tuple(1 if j in shifted else 0 for j in range(self.v))

    def translate_system(self) -> list[frozenset[int]]:
        """The rows' supports S + i for i = 0..v-1, in row order.

        Row i is entry i of the rotations points[s:] + points[:s] of
        points = (0, ..., v-1), one rotation per s in S.
        """
        if not self.support:
            return [frozenset()] * self.v
        points = tuple(range(self.v))
        return list(map(frozenset, zip(*[points[s:] + points[:s] for s in self.support])))


def _gram_profile(A: CirculantMatrix) -> tuple[int, ...]:
    """Intersection numbers c[d] = |S meet (S + d)| for d in Z_v.

    A A^T is the circulant with first row c.  c[0] is the weight, c is
    symmetric (c[d] = c[-d]) and sums to weight**2.
    """
    S = set(A.support)
    return tuple(sum(1 for s in S if (s + d) % A.v in S) for d in range(A.v))


def characteristic_polynomial(M: list[list[int]]) -> tuple[int, ...]:
    """Coefficients of det(xI - M), highest power first, exact integers.

    Berkowitz recursion: the coefficient vector of the leading k x k
    principal submatrix is a lower-triangular Toeplitz image of the
    previous one, with first column (1, -a_kk, -R S, -R A S, ...).
    Division-free, so there is no intermediate rounding anywhere.
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


def _divmod_monic(num: list[int], den: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of num by the monic den, lowest power first."""
    n = len(den) - 1
    rem = list(num) + [0] * max(n - len(num), 0)
    quot = [0] * max(len(rem) - n, 0)
    for i in range(len(rem) - 1, n - 1, -1):
        q = rem[i]
        if q:
            quot[i - n] = q
            for j in range(n + 1):
                rem[i - n + j] -= q * den[j]
    return quot, rem[:n]


@lru_cache(maxsize=None)
def _cyclotomic(e: int) -> tuple[int, ...]:
    """Coefficients of the e-th cyclotomic polynomial, lowest power first.

    y^e - 1 divided exactly by Phi_d for every proper divisor d of e.
    """
    num = [-1] + [0] * (e - 1) + [1]
    for d in range(1, e):
        if e % d == 0:
            num, rem = _divmod_monic(num, _cyclotomic(d))
            if any(rem):
                raise ArithmeticError(f"Phi_{d} does not divide y^{e} - 1")
    return tuple(num)


def _circulant_charpoly(c: tuple[int, ...]) -> tuple[int, ...]:
    """det(xI - C) for the circulant C with first row c, highest power first.

    The product over e | v of the characteristic polynomials of
    multiplication by f(y) = sum c[d] y^d on Z[y]/Phi_e(y), in the basis
    1, y, ..., y^(phi(e) - 1).  Equal to characteristic_polynomial of
    the dense v x v circulant.
    """
    v = len(c)
    out = [1]
    for e in range(1, v + 1):
        if v % e:
            continue
        cyclo = _cyclotomic(e)
        # f mod (y^e - 1), then mod Phi_e, which divides y^e - 1
        col = _divmod_monic([sum(c[i::e]) for i in range(e)], cyclo)[1]
        cols = []
        for _ in range(len(cyclo) - 1):
            cols.append(col)
            # y * col, with y^phi(e) replaced by -(Phi_e minus its leading term)
            top = col[-1]
            col = [a - top * b for a, b in zip([0] + col[:-1], cyclo)]
        block = characteristic_polynomial([list(row) for row in zip(*cols)])
        product = [0] * (len(out) + len(block) - 1)
        for s, a in enumerate(out):
            for t, b in enumerate(block):
                product[s + t] += a * b
        out = product
    return tuple(out)


def gram_similar(A1: CirculantMatrix, A2: CirculantMatrix) -> bool:
    """True iff the two Gram matrices have equal characteristic polynomials."""
    if A1.v != A2.v:
        raise ValueError("gram similarity needs a common modulus")
    c1, c2 = _gram_profile(A1), _gram_profile(A2)
    if sorted(c1) != sorted(c2):
        # permutation similarity preserves the entry multiset
        return False
    return _circulant_charpoly(c1) == _circulant_charpoly(c2)


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
    limit = cap if cap is not None else PAQ_SEARCH_CAP
    if v > min(limit, ENUMERATION_CAP):
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
    if v > ENUMERATION_CAP:
        raise CapExceeded(f"v={v} exceeds the enumeration cap {ENUMERATION_CAP}")
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
    """v lines of v characters, row j the characteristic vector of S + j."""
    return "\n".join("".join(str(b) for b in A.row(i)) for i in range(A.v)) + "\n"
