from __future__ import annotations

import random
from itertools import combinations
from math import gcd
from time import process_time

import pytest

from cyconf import _search
from cyconf.baseline import affine_map_between, canonical_form, enumerate_base_lines
from cyconf.circulant import (
    GRAM_CAP,
    CirculantMatrix,
    _closed_walks,
    _gram_profile,
    exceptional_weight4_witness,
    gram_similar,
    incidence_text,
    paq_equivalent,
)
from cyconf.residue_ring import CapExceeded, units
from helpers import (
    affine_image,
    characteristic_polynomial,
    gram_matrix,
    reference_incidence_text,
    weight4_paq_merges,
)


def _rows(A):
    return [A.row(i) for i in range(A.v)]


# --- independent charpoly oracle: Laplace expansion over Z[x] -------------
#
# polynomials are coefficient lists, lowest power first


def _poly_add(p, q):
    n = max(len(p), len(q))
    return [(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)]


def _poly_scale(p, c):
    return [c * x for x in p]


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _poly_det(M):
    n = len(M)
    if n == 1:
        return M[0][0]
    total = [0]
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in M[1:]]
        term = _poly_mul(M[0][j], _poly_det(minor))
        total = _poly_add(total, _poly_scale(term, (-1) ** j))
    return total


def _charpoly_oracle(M):
    n = len(M)
    xi_minus_m = [
        [[-M[i][j], 1] if i == j else [-M[i][j]] for j in range(n)] for i in range(n)
    ]
    coeffs = _poly_det(xi_minus_m)
    coeffs += [0] * (n + 1 - len(coeffs))
    return tuple(reversed(coeffs))


def test_matrix_normalization_and_rows():
    A = CirculantMatrix(7, (8, 3, 0, 1))
    assert A.support == (0, 1, 3)
    assert A.weight == 3
    M = _rows(A)
    for i in range(7):
        for j in range(7):
            assert M[i][j] == (1 if (j - i) % 7 in {0, 1, 3} else 0)


def test_translate_system_is_line_set():
    A = CirculantMatrix(7, (0, 1, 3))
    system = A.translate_system()
    assert len(system) == 7
    assert system[2] == frozenset({2, 3, 5})


def test_translate_system_matches_comprehension():
    # rows in order, for random supports, periodic ones and the empty one
    rng = random.Random(5)
    cases = [(12, (0, 4, 8)), (12, (0, 1, 6, 7)), (10, (0, 2, 5, 7)), (9, (0, 3, 6)), (8, (0, 4))]
    cases += [(1, (0,)), (6, ()), (7, tuple(range(7)))] + [
        (v, tuple(rng.sample(range(3 * v), rng.randint(1, v))))
        for v in rng.choices(range(1, 40), k=40)
    ]
    for v, support in cases:
        A = CirculantMatrix(v, support)
        want = [frozenset((s + i) % v for s in A.support) for i in range(v)]
        assert A.translate_system() == want, (v, support)


def test_gram_profile_properties():
    for v, S in ((7, (0, 1, 3)), (13, (0, 1, 3, 9)), (16, (0, 1, 2, 9))):
        A = CirculantMatrix(v, S)
        c = _gram_profile(A)
        assert c[0] == A.weight
        assert sum(c) == A.weight**2
        assert all(c[d] == c[(v - d) % v] for d in range(v))


def test_gram_profile_matches_the_per_shift_count():
    # the count over each shift d, as the profile was first computed
    rng = random.Random(40)
    for v in range(1, 41):
        for weight in range(v + 1):
            A = CirculantMatrix(v, rng.sample(range(v), weight))
            S = set(A.support)
            want = tuple(sum(1 for s in S if (s + d) % v in S) for d in range(v))
            assert _gram_profile(A) == want, (v, A.support)


def test_gram_matrix_is_product():
    A = CirculantMatrix(7, (0, 1, 3))
    M = _rows(A)
    product = [
        [sum(M[i][t] * M[j][t] for t in range(7)) for j in range(7)] for i in range(7)
    ]
    assert gram_matrix(A) == product


def test_charpoly_trivial_cases():
    assert characteristic_polynomial([]) == (1,)
    assert characteristic_polynomial([[5]]) == (1, -5)
    assert characteristic_polynomial([[1, 0], [0, 1]]) == (1, -2, 1)


def test_charpoly_of_cyclic_shift():
    # det(xI - P) = x^v - 1 for the shift permutation matrix
    for v in (2, 3, 5, 8):
        P = _rows(CirculantMatrix(v, (1,)))
        expect = (1,) + (0,) * (v - 1) + (-1,)
        assert characteristic_polynomial(P) == expect


def test_charpoly_against_cofactor_oracle_random():
    rng = random.Random(20240817)
    for n in range(1, 6):
        for _ in range(6):
            M = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            assert characteristic_polynomial(M) == _charpoly_oracle(M)


def test_charpoly_against_cofactor_oracle_gram():
    for v, S in ((5, (0, 1)), (6, (0, 1, 3)), (7, (0, 1, 3))):
        G = gram_matrix(CirculantMatrix(v, S))
        assert characteristic_polynomial(G) == _charpoly_oracle(G)


def _exceptional_pair(v):
    # least family member at v = 2u with x = 2, from the parameter conditions
    u, x = v // 2, 2
    for y in range(1, v):
        if gcd(gcd(x, y), v) != 1 or (x // 2) % (u // x) == (y + u // (2 * x)) % (u // x):
            continue
        S1 = {0, x, y, (y + u) % v}
        S2 = {0, (x + u) % v, y, (y + u) % v}
        if len(S1) == len(S2) == 4:
            return tuple(S1), tuple(S2)
    raise AssertionError(f"no family member at v={v}")


def test_gram_similar_on_exceptional_and_affine_pairs():
    # the family needs 8 | v; every call answers in under 0.5 s
    rng = random.Random(8)
    for v in [*range(16, 57, 8), 64, 88, 96, 97, 127, 128, 256, 300]:
        pairs = []
        if v % 8 == 0:
            S1, S2 = _exceptional_pair(v)
            assert exceptional_weight4_witness(v, S1, S2) is not None
            pairs.append((S1, S2))
        S = rng.sample(range(v), 4)
        pairs.append((S, affine_image(S, rng.choice(units(v)), rng.randrange(v), v)))
        for S1, S2 in pairs:
            t0 = process_time()
            assert gram_similar(CirculantMatrix(v, S1), CirculantMatrix(v, S2)), (v, S1, S2)
            assert process_time() - t0 < 0.5, (v, S1, S2)


def test_gram_similar_separates_equal_profile_multisets():
    # {0, 1} and {0, 2} at v=6 give a 6-cycle and two triangles
    for v, S1, S2 in ((6, (0, 1), (0, 2)), (13, (0, 1, 3), (0, 1, 4))):
        A1, A2 = CirculantMatrix(v, S1), CirculantMatrix(v, S2)
        assert sorted(_gram_profile(A1)) == sorted(_gram_profile(A2))
        assert characteristic_polynomial(gram_matrix(A1)) != characteristic_polynomial(
            gram_matrix(A2)
        )
        assert not gram_similar(A1, A2)


def test_gram_similar_also_asks_for_equal_sorted_profiles():
    # equal characteristic polynomials, unequal sorted Gram profiles: the
    # profile check is a PAQ invariant, so these pairs answer False
    for v, S1, S2 in ((12, (0, 1, 2, 6, 7), (0, 1, 3, 6, 9)), (16, (0, 1, 2, 3, 7), (0, 1, 2, 7, 11))):
        A1, A2 = CirculantMatrix(v, S1), CirculantMatrix(v, S2)
        assert sorted(_gram_profile(A1)) != sorted(_gram_profile(A2))
        assert characteristic_polynomial(gram_matrix(A1)) == characteristic_polynomial(
            gram_matrix(A2)
        )
        assert _closed_walks(_gram_profile(A1)) == _closed_walks(_gram_profile(A2))
        assert not gram_similar(A1, A2)


def test_gram_similar_needs_common_modulus():
    with pytest.raises(ValueError):
        gram_similar(CirculantMatrix(7, (0, 1, 3)), CirculantMatrix(8, (0, 1, 3)))


def test_closed_walks_match_dense_powers():
    # full supports pack the slots tightest: every profile entry is v
    rng = random.Random(13)
    cases = [(v, tuple(range(v))) for v in range(1, 15)] + [(6, ()), (1, ()), (2, (1,))]
    cases += [(v, rng.sample(range(v), rng.randint(0, v))) for v in range(1, 25) for _ in range(3)]
    for v, S in cases:
        A = CirculantMatrix(v, S)
        G = gram_matrix(A)
        walks = _closed_walks(_gram_profile(A))
        assert len(walks) == v // 2 + 2
        e = [1] + [0] * (v - 1)
        for k in range(1, v // 2 + 2):
            e = [sum(G[i][j] * e[j] for j in range(v)) for i in range(v)]
            assert walks[k] == e[0], (v, S, k)
        # the alternating vector is an eigenvector for lambda_{v/2}
        u = [(-1) ** j for j in range(v)]
        if v % 2 == 0:
            Gu = [sum(G[i][j] * u[j] for j in range(v)) for i in range(v)]
            assert Gu == [walks[0] * x for x in u], (v, S)
        else:
            assert walks[0] == 0


def _supports(v, rng):
    """Every support for v <= 8; else seeded samples of every weight, each
    with an affine image, so that equal-profile buckets hold pairs."""
    if v <= 8:
        return [S for w in range(v + 1) for S in combinations(range(v), w)]
    out = []
    for w in range(v + 1):
        for _ in range(2):
            S = tuple(rng.sample(range(v), w))
            out += [S, affine_image(S, rng.choice(units(v)), rng.randrange(v), v)]
    return out


def test_gram_similar_matches_dense_berkowitz():
    # every pair of profiles with equal sorted entries, against the dense
    # charpoly; supports with the same profile give the same verdicts
    rng = random.Random(24)
    verdicts = {True: 0, False: 0}
    for v in range(1, 25):
        buckets: dict[tuple[int, ...], dict] = {}
        for S in _supports(v, rng):
            c = _gram_profile(CirculantMatrix(v, S))
            buckets.setdefault(tuple(sorted(c)), {}).setdefault(c, S)
        for bucket in buckets.values():
            poly = {
                S: characteristic_polynomial(gram_matrix(CirculantMatrix(v, S))) for S in bucket.values()
            }
            for S1 in poly:
                for S2 in poly:
                    same = gram_similar(CirculantMatrix(v, S1), CirculantMatrix(v, S2))
                    assert same == (poly[S1] == poly[S2]), (v, S1, S2)
                    verdicts[same] += 1
    assert verdicts[True] and verdicts[False], verdicts


def test_gram_similar_cap():
    # at the cap a weight-1 pair still answers; past it nothing is built
    assert gram_similar(CirculantMatrix(GRAM_CAP, (0,)), CirculantMatrix(GRAM_CAP, (7,)))
    for v in (GRAM_CAP + 1, 10**9):
        t0 = process_time()
        with pytest.raises(CapExceeded, match=f"v={v} exceeds the gram cap {GRAM_CAP}"):
            gram_similar(CirculantMatrix(v, (0, 1, 3)), CirculantMatrix(v, (0, 1, 4)))
        assert process_time() - t0 < 0.05


def _assert_paq_replays(A1, A2):
    out = paq_equivalent(A1, A2)
    assert out is not None
    pi, sigma = out
    v = A1.v
    assert sorted(pi) == list(range(v)) and sorted(sigma) == list(range(v))
    M1, M2 = _rows(A1), _rows(A2)
    for i in range(v):
        for j in range(v):
            assert M1[i][j] == M2[pi[i]][sigma[j]]


def test_paq_witness_replays_as_matrix_identity():
    _assert_paq_replays(CirculantMatrix(8, (0, 1, 3)), CirculantMatrix(8, (0, 5, 7)))


def test_paq_equivalent_absent_across_orbits():
    assert paq_equivalent(CirculantMatrix(13, (0, 1, 3)), CirculantMatrix(13, (0, 1, 4))) is None


def _complement(S, v):
    return CirculantMatrix(v, set(range(v)).difference(S))


def test_a_dense_support_answers_through_its_complement():
    # J - A1 = P (J - A2) Q exactly when A1 = P A2 Q, so supports heavier
    # than v/2 are searched as their complements; the dense supports
    # themselves took over 40 s here
    t0 = process_time()
    assert paq_equivalent(_complement((0, 1, 3), 13), _complement((0, 1, 4), 13)) is None
    assert process_time() - t0 < 1
    # dense ISO pairs, the full support, and a weight-v/2 support that is
    # searched as it is: each (pi, sigma) replays as the matrix identity
    dense_pairs = [(13, (0, 1, 3), 2, 5), (12, (0, 1, 3), 5, 7), (12, (0, 1, 2, 3, 4, 5, 6), 7, 1)]
    for v, S, a, b in dense_pairs:
        _assert_paq_replays(_complement(S, v), _complement(affine_image(S, a, b, v), v))
    _assert_paq_replays(CirculantMatrix(5, range(5)), CirculantMatrix(5, range(5)))
    half = (0, 1, 2, 4, 7, 9)
    _assert_paq_replays(CirculantMatrix(12, half), CirculantMatrix(12, affine_image(half, 5, 3, 12)))
    # a dense support against a sparse one: the weights differ, so no pair
    assert paq_equivalent(_complement((0, 1, 3), 13), CirculantMatrix(13, (0, 1, 3))) is None


def test_paq_equivalent_rejects_a_map_off_the_rows(monkeypatch):
    # swapping points 1 and 2 does not carry the lines of {0, 1, 3} onto themselves
    def wrong_map(v, S1, S2, **kwargs):
        yield (0, 2, 1) + tuple(range(3, v))

    monkeypatch.setattr(_search, "line_bijections", wrong_map)
    with pytest.raises(RuntimeError):
        paq_equivalent(CirculantMatrix(7, (0, 1, 3)), CirculantMatrix(7, (0, 1, 3)))


def test_paq_identity_case():
    out = paq_equivalent(CirculantMatrix(7, (0, 1, 3)), CirculantMatrix(7, (0, 1, 3)))
    assert out is not None


def test_weight3_relations_collapse_to_affine():
    # paq, gram similarity and affine equivalence are the same relation
    # on weight-3 supports; checked across orbit representatives and a
    # translated member of each orbit
    for v in (7, 8, 12, 13):
        reps = enumerate_base_lines(v, 3, representatives_only=True)
        probes = [(R, R) for R in reps]
        probes += [(R, affine_image(R, units(v)[-1], 3, v)) for R in reps]
        probes += [(R1, R2) for i, R1 in enumerate(reps) for R2 in reps[i + 1 :]]
        for S1, S2 in probes:
            A1, A2 = CirculantMatrix(v, S1), CirculantMatrix(v, S2)
            same = canonical_form(S1, v) == canonical_form(S2, v)
            assert (paq_equivalent(A1, A2) is not None) == same
            assert gram_similar(A1, A2) == same


def test_gram_similarity_pairwise_matches_canonical_at_13():
    elems = enumerate_base_lines(13, 3)
    polys = {
        S: characteristic_polynomial(gram_matrix(CirculantMatrix(13, S))) for S in elems
    }
    canon = {S: canonical_form(S, 13) for S in elems}
    for i, S1 in enumerate(elems):
        for S2 in elems[i:]:
            assert (polys[S1] == polys[S2]) == (canon[S1] == canon[S2])


def test_exceptional_weight4_pair_at_16():
    S1, S2 = (0, 1, 2, 9), (0, 1, 9, 10)
    w = exceptional_weight4_witness(16, S1, S2)
    assert w is not None
    assert (w.x, w.y, w.u) == (2, 1, 8)
    # replay both affine normalizations onto the family shape
    d1 = {0, w.x, w.y, (w.y + w.u) % 16}
    d2 = {0, (w.x + w.u) % 16, w.y, (w.y + w.u) % 16}
    assert set(affine_image(S1, w.a1, w.b1, 16)) == d1
    assert set(affine_image(S2, w.a2, w.b2, 16)) == d2


def test_exceptional_family_is_paq_but_not_affine():
    A1 = CirculantMatrix(16, (0, 1, 2, 9))
    A2 = CirculantMatrix(16, (0, 1, 9, 10))
    assert paq_equivalent(A1, A2) is not None
    assert affine_map_between((0, 1, 2, 9), (0, 1, 9, 10), 16) is None


def test_exceptional_family_does_not_name_a_non_paq_pair_at_12():
    # equal sorted Gram profiles, neither PAQ equivalent nor affine: the
    # family's 2x | u condition rules out (x, y) = (2, 5), which names them
    S1, S2 = (0, 1, 3, 6), (0, 1, 4, 7)
    A1, A2 = CirculantMatrix(12, S1), CirculantMatrix(12, S2)
    assert paq_equivalent(A1, A2) is None
    assert affine_map_between(S1, S2, 12) is None
    assert sorted(_gram_profile(A1)) == sorted(_gram_profile(A2))
    assert exceptional_weight4_witness(12, S1, S2) is None
    assert exceptional_weight4_witness(12, S2, S1) is None


def test_multipliers_decide_weight4_on_connected_supports_up_to_24():
    # the checked k = 4 range: every PAQ merge of two affine classes is an
    # exceptional pair, and none holds a base line.  The count pins that
    # the search answers: a PAQ search that never finds a map merges nothing
    merges, faults = weight4_paq_merges(range(8, 25))
    assert faults == []
    assert [v for v, _, _ in merges] == [8, 16, 24, 24, 24]


def test_exceptional_witness_none_for_odd_v():
    assert exceptional_weight4_witness(15, (0, 1, 2, 9), (0, 1, 9, 10)) is None


def test_exceptional_family_fresh_instances():
    # build family pairs straight from the parameter conditions at other
    # even v and confirm the searcher and the paq decision agree
    found = 0
    for v in (16, 24, 32, 36):
        u = v // 2
        for x in range(2, u + 1, 2):
            if u % (2 * x):
                continue
            for y in range(1, v):
                from math import gcd

                if gcd(gcd(x, y), v) != 1:
                    continue
                if (x // 2) % (u // x) == (y + u // (2 * x)) % (u // x):
                    continue
                S1 = tuple(sorted({0, x, y, (y + u) % v}))
                S2 = tuple(sorted({0, (x + u) % v, y, (y + u) % v}))
                if len(S1) != 4 or len(S2) != 4:
                    continue
                w = exceptional_weight4_witness(v, S1, S2)
                assert w is not None
                assert paq_equivalent(CirculantMatrix(v, S1), CirculantMatrix(v, S2)) is not None
                found += 1
                break
            break
    assert found >= 3


def test_incidence_text_fano():
    text = incidence_text(CirculantMatrix(7, (0, 1, 3)))
    rows = text.splitlines()
    assert rows[0] == "1101000"
    assert rows[3] == "0001101"
    assert len(rows) == 7


def test_incidence_text_matches_the_row_by_row_join():
    rng = random.Random(17)
    cases = [CirculantMatrix(1, (0,)), CirculantMatrix(1, ()), CirculantMatrix(9, ())]
    cases += [CirculantMatrix(12, (0, 3, 6, 9)), CirculantMatrix(20, (1, 6, 11, 16))]  # periodic
    for _ in range(30):
        v = rng.randint(1, 60)
        cases.append(CirculantMatrix(v, rng.sample(range(v), rng.randint(0, v))))
    for A in cases:
        assert incidence_text(A) == reference_incidence_text(A), A


def test_paq_cap_message_names_the_binding_limit():
    A = CirculantMatrix(15000, (0, 1, 3))
    with pytest.raises(CapExceeded) as exc:
        paq_equivalent(A, A, cap=20000)
    assert str(exc.value) == "v=15000 exceeds the paq search cap 10000"
    A = CirculantMatrix(301, (0, 1, 3))
    with pytest.raises(CapExceeded) as exc:
        paq_equivalent(A, A)
    assert str(exc.value) == "v=301 exceeds the paq search cap 300"


def test_exceptional_weight4_refuses_past_the_enumeration_cap():
    assert exceptional_weight4_witness(10001, (0, 1, 2, 9), (0, 1, 9, 10)) is None  # odd v first
    with pytest.raises(CapExceeded) as exc:
        exceptional_weight4_witness(10002, (0, 1, 2, 9), (0, 1, 9, 10))
    assert str(exc.value) == "modulus 10002 exceeds the enumeration cap 10000"
