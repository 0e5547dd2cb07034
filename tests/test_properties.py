"""Property tests: invariants checked on seeded random inputs."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from cyconf.baseline import canonical_form, enumerate_base_lines
from cyconf.circulant import CirculantMatrix, gram_similar, paq_equivalent
from cyconf.configuration import (
    CyclicConfiguration,
    _maps_lines_onto,
    levi_graph,
    levi_text,
    parse_levi_text,
)
from cyconf.counting import count_closed_formula, count_unit_sum
from cyconf.iso import isomorphic, witness_valid
from cyconf.residue_ring import units
from helpers import affine_image

SEEDED = settings(derandomize=True, deadline=None, database=None, max_examples=100)


@st.composite
def base_lines(draw, moduli, k=3, connected=True):
    """(v, S) with S a base line of Z_v drawn from its translation slice."""
    v = draw(st.sampled_from(moduli))
    S = draw(st.sampled_from(enumerate_base_lines(v, k, connected_only=connected)))
    return v, S


@st.composite
def affine_pairs(draw, moduli, k=3):
    """(v, S, a*S + b) for a base line S and a random affine map."""
    v, S = draw(base_lines(moduli, k))
    a = draw(st.sampled_from(units(v)))
    b = draw(st.integers(0, v - 1))
    return v, S, affine_image(S, a, b, v)


def _replays(v, S1, S2, method):
    C1, C2 = CyclicConfiguration(v, S1), CyclicConfiguration(v, S2)
    w = isomorphic(C1, C2, method=method)
    return w is not None and witness_valid(C1, C2, w)


@SEEDED
@given(affine_pairs([7, 12, 13, 20, 31, 45], k=3) | affine_pairs([13, 21, 40], k=4))
def test_canonical_form_is_affine_invariant(case):
    v, S, T = case
    assert canonical_form(S, v) == canonical_form(T, v)


@SEEDED
@given(affine_pairs([13, 16, 21, 30, 35], k=3) | affine_pairs([21, 26], k=4))
def test_witness_replays_on_multiplier_and_exact_routes(case):
    v, S, T = case
    assert _replays(v, S, T, "multiplier")
    assert _replays(v, S, T, "exact")


@SEEDED
@given(affine_pairs([15, 21, 39, 55], k=3) | affine_pairs([21, 39], k=4))
def test_witness_replays_on_solving_set_route(case):
    v, S, T = case
    assert _replays(v, S, T, "solving-set")


@SEEDED
@given(base_lines([7, 9, 13], k=3), st.integers(2, 3), st.data())
def test_witness_replays_on_component_route(component, g, data):
    # g*T + c is a disconnected base line of Z_(g*d) with g components
    d, T = component
    v = g * d
    S = [(g * t + data.draw(st.integers(0, v - 1), "shift")) % v for t in T]
    a = data.draw(st.sampled_from(units(v)), "a")
    b = data.draw(st.integers(0, v - 1), "b")
    assert _replays(v, tuple(sorted(S)), affine_image(S, a, b, v), "auto")


@SEEDED
@given(base_lines([7, 13, 14, 21], k=3, connected=False) | base_lines([13, 26], k=4, connected=False))
def test_levi_text_round_trips(case):
    v, S = case
    G = levi_graph(CyclicConfiguration(v, S))
    assert parse_levi_text(levi_text(G)) == G


@SEEDED
@given(st.integers(5, 10**9))
def test_closed_formula_equals_unit_sum(v):
    assert count_closed_formula(v) == count_unit_sum(v)


@st.composite
def supports(draw, max_v, weights):
    """(v, S) with S a random support of Z_v, v <= max_v, |S| in weights."""
    v = draw(st.integers(min(weights), max_v))
    w = draw(st.sampled_from([w for w in weights if w <= v]))
    S = draw(st.lists(st.integers(0, v - 1), min_size=w, max_size=w, unique=True))
    return v, tuple(S)


@settings(SEEDED, max_examples=40)
@given(supports(300, range(1, 9)), st.data())
def test_gram_similar_on_affine_images(case, data):
    v, S = case
    a = data.draw(st.sampled_from(units(v)), "a")
    b = data.draw(st.integers(0, v - 1), "b")
    assert gram_similar(CirculantMatrix(v, S), CirculantMatrix(v, affine_image(S, a, b, v)))


@SEEDED
@given(supports(40, [4]), st.data())
def test_paq_equivalence_implies_gram_similarity(case, data):
    # half the pairs are affine images, so both verdicts of the search occur
    v, S1 = case
    if data.draw(st.booleans(), "image"):
        a = data.draw(st.sampled_from(units(v)), "a")
        S2 = affine_image(S1, a, data.draw(st.integers(0, v - 1), "b"), v)
    else:
        S2 = data.draw(st.lists(st.integers(0, v - 1), min_size=4, max_size=4, unique=True), "S2")
    A1, A2 = CirculantMatrix(v, S1), CirculantMatrix(v, S2)
    if paq_equivalent(A1, A2) is not None:
        assert gram_similar(A1, A2)


@SEEDED
@given(st.data())
def test_replay_ignores_the_rotation_and_the_translate(data):
    # completeness_report shares one replay among the translates one
    # unit reaches: for any table T, bijective or not, rotating T by c and
    # translating the base by d only reindex the lines
    v = data.draw(st.integers(1, 24))
    T = tuple(data.draw(st.lists(st.integers(0, v - 1), min_size=v, max_size=v)))
    X = sorted(data.draw(st.sets(st.integers(0, v - 1), min_size=1)))
    c, d = data.draw(st.integers(0, v - 1)), data.draw(st.integers(0, v - 1))
    if data.draw(st.booleans()):  # T's own image of X's lines
        target = frozenset(frozenset(T[(x + u) % v] for x in X) for u in range(v))
    else:
        Y = data.draw(st.sets(st.integers(0, v - 1), min_size=1))
        target = frozenset(frozenset((y + u) % v for y in Y) for u in range(v))
    assert _maps_lines_onto(T[c:] + T[:c], X, target) == _maps_lines_onto(
        T, sorted((x + d) % v for x in X), target
    )
