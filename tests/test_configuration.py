from __future__ import annotations

import random
from itertools import combinations

import pytest

from cyconf.baseline import is_base_line
from cyconf.circulant import CirculantMatrix
from cyconf.configuration import (
    CyclicConfiguration,
    LeviGraph,
    _maps_lines_onto,
    incidence_matrix,
    levi_graph,
    levi_text,
    parse_levi_text,
)
from cyconf.iso import IsoWitness
from cyconf.residue_ring import ENUMERATION_CAP, CapExceeded, units
from cyconf.solving_sets import SolvingSetParams, solving_set_params
from helpers import affine_image, decompose, girth, reference_maps_lines_onto, validate

FANO = CyclicConfiguration(7, (0, 1, 3))


def test_base_is_normalized():
    C = CyclicConfiguration(7, (10, 8, 4))
    assert C.base == (1, 3, 4)
    assert C.k == 3


def test_rejects_degenerate_input():
    with pytest.raises(ValueError):
        CyclicConfiguration(0, (0,))
    with pytest.raises(ValueError):
        CyclicConfiguration(7, ())


def test_lines_are_translates():
    lines = FANO.lines()
    assert len(lines) == 7
    assert lines[0] == frozenset({0, 1, 3})
    assert lines[4] == frozenset({4, 5, 0})
    assert len(FANO.line_set()) == 7


def test_lines_are_built_once():
    C = CyclicConfiguration(13, (0, 1, 4))
    lines = C.lines()
    assert isinstance(lines, tuple)
    assert C.lines() is lines
    assert lines == tuple(incidence_matrix(C).translate_system())
    assert C.line_set() is C.line_set() == frozenset(lines)


def test_lines_refuse_a_modulus_past_the_enumeration_cap():
    assert len(CyclicConfiguration(ENUMERATION_CAP, (0, 1, 3)).lines()) == ENUMERATION_CAP
    C = CyclicConfiguration(ENUMERATION_CAP + 1, (0, 1, 3))
    with pytest.raises(CapExceeded):
        C.lines()
    with pytest.raises(CapExceeded):
        incidence_matrix(C).row(0)


# bases whose lines repeat: each is a union of cosets of a subgroup
PERIODIC = [(12, (0, 4, 8)), (12, (0, 1, 6, 7)), (10, (0, 2, 5, 7)), (9, (0, 3, 6)), (8, (0, 4))]


def test_line_replay_matches_reference():
    # random bases, base lines and periodic bases, under random
    # permutations, affine maps and non-bijections, against the line
    # sets of the image, of the base itself and of an unrelated base
    rng = random.Random(11)
    cases = PERIODIC + [
        (v, tuple(rng.sample(range(v), rng.randint(1, min(6, v)))))
        for v in rng.choices(range(2, 30), k=40)
    ] + [(13, (0, 1, 4)), (21, (0, 1, 5)), (26, (0, 2, 6)), (31, (0, 1, 3, 8, 12, 18))]
    verdicts = set()
    for v, base in cases:
        C = CyclicConfiguration(v, base)
        a, b = rng.choice(units(v)), rng.randrange(v)
        maps = [
            tuple(range(v)),
            tuple((a * x + b) % v for x in range(v)),
            tuple(rng.sample(range(v), v)),
            tuple(rng.randrange(v) for _ in range(v)),
            (0,) * v,
        ]
        targets = [
            C.line_set(),
            CyclicConfiguration(v, affine_image(C.base, a, b, v)).line_set(),
            CyclicConfiguration(v, rng.sample(range(v), C.k)).line_set(),
        ]
        for sigma in maps:
            for target in targets:
                want = reference_maps_lines_onto(sigma, C.lines(), target)
                assert _maps_lines_onto(sigma, C.base, target) == want, (v, base, sigma)
                assert _maps_lines_onto(list(sigma), C.base, target) == want
                verdicts.add(want)
    assert verdicts == {True, False}


def test_cached_lines_leave_equality_and_hash_alone():
    C = CyclicConfiguration(13, (0, 1, 4))
    C.line_set()
    fresh = CyclicConfiguration(13, (4, 1, 0))
    assert C == fresh and hash(C) == hash(fresh) and repr(C) == repr(fresh)
    assert repr(C) == "CyclicConfiguration(v=13, base=(0, 1, 4))"
    assert {fresh: "found"}[C] == "found"
    # every record class, built by keyword, prints what its frozen dataclass
    # printed, equals only its own kind and refuses assignment
    records = {
        "CyclicConfiguration(v=7, base=(1, 3, 4))": CyclicConfiguration(v=7, base=[10, 8, 4]),
        "CirculantMatrix(v=7, support=(0, 1, 3))": CirculantMatrix(v=7, support=(3, 1, 0, 7)),
        "LeviGraph(v=2, k=1, edges=((0, 0), (1, 1)))": LeviGraph(v=2, k=1, edges=((0, 0), (1, 1))),
        "IsoWitness(kind='multiplier', a=1, b=2, point_map=None)": IsoWitness(
            kind="multiplier", a=1, b=2
        ),
        "SolvingSetParams(p=7, q=3, v=21, a=10, b=16, s=2, alpha=5)": solving_set_params(7, 3),
    }
    for text, R in records.items():
        assert repr(R) == text
        twin = type(R)(**R._asdict())
        assert R == twin and not R != twin and hash(R) == hash(twin)
        assert R != tuple(R) and tuple(R) != R and not R == tuple(R)
        for name in R._fields:
            with pytest.raises(AttributeError):
                setattr(R, name, None)
    assert solving_set_params(7, 3) == SolvingSetParams(p=7, q=3, v=21, a=10, b=16, s=2, alpha=5)
    assert FANO != CirculantMatrix(7, (0, 1, 3)) != FANO
    assert FANO != (7, (0, 1, 3)) != FANO and not FANO == (7, (0, 1, 3))
    assert FANO._replace(base=(8, 10, 7)) == FANO  # _replace normalises as the constructor does
    with pytest.raises(AttributeError):
        C.lines = None


def test_validate_fano():
    assert validate(FANO)


def test_validate_rejects_repeated_difference():
    # {0,1,2} has the difference 1 twice, so two translates share two points
    assert not validate(CyclicConfiguration(8, (0, 1, 2)))


def test_validate_agrees_with_difference_criterion():
    # the axiom checker shares no arithmetic with is_base_line; they must
    # induce the same predicate on all 3-subsets through 0
    for v in range(7, 12):
        for comb in combinations(range(1, v), 2):
            S = (0,) + comb
            assert validate(CyclicConfiguration(v, S)) == is_base_line(S, v)


def test_decompose_connected_is_identity():
    assert decompose(FANO) == [FANO]


def test_decompose_doubled_fano():
    parts = decompose(CyclicConfiguration(14, (0, 2, 6)))
    assert parts == [CyclicConfiguration(7, (0, 1, 3))] * 2


def test_decompose_translated_base():
    # translation before decomposition must not change the components
    parts = decompose(CyclicConfiguration(21, (1, 4, 10)))
    assert len(parts) == 3
    assert all(p.v == 7 for p in parts)


def test_levi_graph_shape():
    G = levi_graph(FANO)
    assert G.v == 7 and G.k == 3
    assert len(G.edges) == 21
    adj = G.adjacency()
    assert {len(nbrs) for nbrs in adj} == {3}  # points, then lines


def test_levi_girth_six():
    assert girth(levi_graph(FANO)) == 6
    assert girth(levi_graph(CyclicConfiguration(8, (0, 1, 3)))) == 6


def test_levi_girth_four_when_axioms_fail():
    # two translates of {0,1,2} share two points, which is a 4-cycle
    bad = CyclicConfiguration(8, (0, 1, 2))
    assert girth(levi_graph(bad)) == 4


def test_levi_text_round_trip():
    G = levi_graph(FANO)
    text = levi_text(G)
    head, first = text.splitlines()[:2]
    assert head == "levi 7 3"
    assert first == "p0 l0"
    parsed = parse_levi_text(text)
    assert parsed == G


def test_parse_levi_text_rejects_garbage():
    with pytest.raises(ValueError):
        parse_levi_text("")
    with pytest.raises(ValueError):
        parse_levi_text("graph 7 3\np0 l0")
    with pytest.raises(ValueError):
        parse_levi_text("levi 7 3\np0 q0")
    with pytest.raises(ValueError):
        parse_levi_text("levi 7 3\np9 l0")
    # a modulus below 1, a k below 1 and a repeated edge
    for text in ("levi 0 3\n", "levi -7 3\n", "levi 7 -2\n", "levi 7 3\np0 l0\np0 l0\n"):
        with pytest.raises(ValueError):
            parse_levi_text(text)
    # 1 edge where 21 are needed, and the Fano plane with one edge moved
    # so that point 0 lies on 4 lines and point 1 on 2
    fano = levi_text(levi_graph(FANO))
    assert "p1 l0" in fano and "p0 l2" not in fano
    for text in ("levi 7 3\np0 l0\n", fano.replace("p1 l0", "p0 l2")):
        with pytest.raises(ValueError, match="on 3 edges"):
            parse_levi_text(text)


def test_incidence_matrix_rows():
    A = incidence_matrix(FANO)
    assert A.row(0) == (1, 1, 0, 1, 0, 0, 0)
    assert A.row(1) == (0, 1, 1, 0, 1, 0, 0)
    assert A.support == (0, 1, 3)


def test_levi_graph_of_disconnected_configuration():
    G = levi_graph(CyclicConfiguration(14, (0, 2, 6)))
    assert girth(G) == 6
    assert len(G.edges) == 42


def test_girth_none_on_forest():
    G = LeviGraph(2, 1, ((0, 0), (1, 1)))
    assert girth(G) is None
