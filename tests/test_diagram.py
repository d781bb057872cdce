import random

import pytest
from braidutil import random_knot_braids

from vknot.diagram import (
    BasedGaussDiagram,
    Numbering,
    _smoothed_words,
    alexander_numbering,
    basepoint_positions,
    crossing_change,
    index,
    is_mod_p_numberable,
    numbering_is_valid,
    parse_gauss_code,
    serialize_gauss_code,
    shift_basepoint,
    smooth,
    warping_degree,
)
from vknot.enumeration import _random_chords, enumerate_all_diagrams, random_knot_diagram, random_link_diagram
from vknot.errors import GaussCodeError, PreconditionError, UnknownChordError

TREFOIL = "O1+U2+O3+U1+O2+U3+"
VIRTUAL_TREFOIL = "O1+O2+U1+U2+"


def test_parse_basic_structure():
    G = parse_gauss_code(VIRTUAL_TREFOIL)
    assert G.num_circles == 1
    assert G.num_chords == 2
    assert G.sign(1) == G.sign(2) == 1
    # both chords interleave: tail, tail, head, head
    assert [h for _, h in G.circles[0]] == [False, False, True, True]


def test_parse_trefoil_positions():
    G = parse_gauss_code(TREFOIL)
    assert G.num_chords == 3
    assert G.tail(1) == (0, 0) and G.head(1) == (0, 3)
    assert G.tail(2) == (0, 4) and G.head(2) == (0, 1)
    assert G.tail(3) == (0, 2) and G.head(3) == (0, 5)


@pytest.mark.parametrize(
    "bad",
    [
        "O1+U1-",            # sign mismatch
        "O1+O1+U1+",         # duplicate O token
        "O1+",               # missing partner
        "O1+U2+",            # two orphans
        "Q1+U1+",            # bad letter
        "O1+*U1+*O2+U2+",    # two basepoint markers in a circle
    ],
)
def test_parse_errors(bad):
    with pytest.raises(GaussCodeError):
        parse_gauss_code(bad)


@pytest.mark.parametrize(
    "circles,signs,message",
    [
        ((((1, False), (1, False)),), ((1, 1),), "chord 1 has two tail endpoints"),
        ((((1, False),),), ((1, 1),), "chord 1 is missing an endpoint"),
        ((((1, False), (1, True)),), ((1, 0),), "chord 1 has sign 0, expected +1 or -1"),
        ((((1, False), (1, True), (2, False), (2, True)),), ((1, 1),), "endpoints found for unknown chord ids [2]"),
    ],
    ids=["two-tails", "missing-endpoint", "sign-0", "unknown-chord"],
)
def test_direct_construction_refusals(circles, signs, message):
    with pytest.raises(GaussCodeError) as info:
        BasedGaussDiagram(circles, signs)
    assert str(info.value) == message


def test_parse_whitespace_and_star():
    assert parse_gauss_code(" O1+ U1+ ") == parse_gauss_code("O1+U1+")
    # a basepoint marker rotates the circle so the marked gap comes first
    assert parse_gauss_code("O1+*U1+") == parse_gauss_code("U1+O1+")
    assert parse_gauss_code("O1+U1+*") == parse_gauss_code("O1+U1+")


def test_parse_multi_circle_and_empty():
    G = parse_gauss_code("O1+;U1+")
    assert G.num_circles == 2
    unknot = parse_gauss_code("")
    assert unknot.num_circles == 1 and unknot.num_chords == 0
    two = parse_gauss_code(";")
    assert two.num_circles == 2


def test_round_trip_on_enumerated_diagrams():
    for G in enumerate_all_diagrams(3):
        assert parse_gauss_code(serialize_gauss_code(G)) == G


def test_index_examples():
    G = parse_gauss_code(TREFOIL)
    assert [index(G, c) for c in G.chord_ids()] == [0, 0, 0]
    VT = parse_gauss_code(VIRTUAL_TREFOIL)
    assert sorted(index(VT, c) for c in VT.chord_ids()) == [-1, 1]
    kink = parse_gauss_code("O1+U1+O2+U2+")
    assert index(kink, 1) == index(kink, 2) == 0
    assert index(VT, 1, flip=True) == -index(VT, 1)
    with pytest.raises(UnknownChordError):
        index(G, 99)


def test_index_gauss_parity():
    # every chord of a realizable code interleaves evenly many chords, so
    # index vanishing on the trefoil is not an accident of signs
    G = parse_gauss_code("O1-U2-O3-U1-O2-U3-")
    assert [index(G, c) for c in G.chord_ids()] == [0, 0, 0]


def test_index_basepoint_invariance():
    for G in enumerate_all_diagrams(3):
        base = {c: index(G, c) for c in G.chord_ids()}
        for moved in basepoint_positions(G):
            assert {c: index(moved, c) for c in moved.chord_ids()} == base


def test_numberability_examples():
    G = parse_gauss_code(TREFOIL)
    assert is_mod_p_numberable(G, 2)
    assert is_mod_p_numberable(G, 0)
    VT = parse_gauss_code(VIRTUAL_TREFOIL)
    assert not is_mod_p_numberable(VT, 2)
    assert is_mod_p_numberable(VT, 1)
    with pytest.raises(ValueError):
        is_mod_p_numberable(G, -1)


def test_numbering_matches_numberability():
    # the constructive labeling succeeds exactly when the index test says so;
    # random knots and braid closures with up to 20 chords carry large indices
    rng = random.Random(20)
    larger = [random_knot_diagram(rng.randint(1, 20), rng) for _ in range(200)]
    larger += [parse_gauss_code(code) for code in random_knot_braids(rng, 100, max_crossings=20)]
    for diagrams, moduli in ((enumerate_all_diagrams(4), (0, 2, 3, 4)), (larger, range(6))):
        for G in diagrams:
            indices = [index(G, c) for c in G.chord_ids()]
            for p in moduli:
                numbering = alexander_numbering(G, p)
                index_test = all(i == 0 if p == 0 else i % p == 0 for i in indices)
                assert (numbering is not None) == is_mod_p_numberable(G, p) == index_test, (str(G), p)
                if numbering is not None:
                    assert numbering_is_valid(G, numbering)


def test_numbering_unknot_and_failure():
    n = alexander_numbering(parse_gauss_code(""), 5)
    assert n.labels == ((0,),)
    assert alexander_numbering(parse_gauss_code(VIRTUAL_TREFOIL), 2) is None


def test_numbering_two_circles():
    # a chord from one circle to another forces the walk closure condition
    G = parse_gauss_code("O1+;U1+")
    assert alexander_numbering(G, 2) is None
    assert alexander_numbering(G, 1) is not None
    H = parse_gauss_code("O1+U2+;O2+U1+")
    n = alexander_numbering(H, 0)
    assert n is not None and numbering_is_valid(H, n)


@pytest.mark.parametrize("code", [TREFOIL, "O1+U1+", "O1+U2+;O2+U1+", "O1+U2-O3-U1+O4+U3-O2-U4+"])
@pytest.mark.parametrize("p", [0, 3])
def test_numbering_is_valid_rejects_one_changed_label(code, p):
    G = parse_gauss_code(code)
    numbering = alexander_numbering(G, p)
    assert numbering is not None and numbering_is_valid(G, numbering)
    for ci, labels in enumerate(numbering.labels):
        for gap in range(len(labels)):
            changed = [list(row) for row in numbering.labels]
            changed[ci][gap] += 1
            assert not numbering_is_valid(G, Numbering(tuple(map(tuple, changed)), p)), (ci, gap)


def test_warping_degree():
    assert warping_degree(parse_gauss_code("O1+U1+")) == 0
    assert warping_degree(parse_gauss_code("U1+O1+")) == 1
    assert warping_degree(parse_gauss_code(TREFOIL)) == 1
    with pytest.raises(PreconditionError):
        warping_degree(parse_gauss_code("O1+;U1+"))


def test_smooth_splits_single_kink():
    S = smooth(parse_gauss_code("O1+U1+"), 1)
    assert S.num_circles == 2
    assert all(len(c) == 0 for c in S.circles)


def test_smooth_interleaved_chord_connects_circles():
    VT = parse_gauss_code(VIRTUAL_TREFOIL)
    S = smooth(VT, 1)
    assert S.num_circles == 2
    assert S.tail(2)[0] != S.head(2)[0]
    back = smooth(S, 2)
    assert back.num_circles == 1


def test_smooth_counts():
    for G in enumerate_all_diagrams(3):
        for c in G.chord_ids():
            S = smooth(G, c)
            assert abs(S.num_circles - G.num_circles) == 1
            assert sum(len(w) for w in S.circles) == sum(len(w) for w in G.circles) - 2
            assert smooth(crossing_change(G, c), c) == S


def _reference_smooth(diagram, chord):
    """``smooth`` as it read before its word form: endpoints located through ``tail`` and ``head``."""
    diagram.sign(chord)
    ct, it = diagram.tail(chord)
    ch, ih = diagram.head(chord)
    circles = list(diagram.circles)
    if ct == ch:
        circle = circles[ct]
        a, b = sorted((it, ih))
        keep = circle[:a] + circle[b + 1 :]
        split = circle[a + 1 : b]
        circles[ct] = keep
        circles.insert(ct + 1, split)
    else:
        k, l = (ct, ch) if ct < ch else (ch, ct)
        ki = it if ct == k else ih
        lj = ih if ct == k else it
        k_list, l_list = circles[k], circles[l]
        circles[k] = k_list[:ki] + l_list[lj + 1 :] + l_list[:lj] + k_list[ki + 1 :]
        del circles[l]
    signs = tuple((c, s) for c, s in diagram.signs if c != chord)
    return BasedGaussDiagram(tuple(circles), signs)


def _seeded_three_circle_links(count=200, seed=43):
    rng = random.Random(seed)
    for _ in range(count):
        slots, signs = _random_chords(rng.randint(1, 8), rng)
        a, b = sorted(rng.randint(0, len(slots)) for _ in range(2))
        yield BasedGaussDiagram((tuple(slots[:a]), tuple(slots[a:b]), tuple(slots[b:])), tuple(sorted(signs.items())))


def test_word_smoothing_matches_reference():
    rng = random.Random(42)
    links = [random_link_diagram(rng.randint(1, 8), rng) for _ in range(200)]
    checked = 0
    for G in [*enumerate_all_diagrams(4), *links, *_seeded_three_circle_links()]:
        for c in G.chord_ids():
            want = _reference_smooth(G, c)
            assert _smoothed_words(G.circles, c) == want.circles, (str(G), c)
            assert smooth(G, c) == want, (str(G), c)
            checked += 1
    assert checked > 90000


def test_crossing_change():
    G = parse_gauss_code("O1+U1+")
    assert serialize_gauss_code(crossing_change(G, 1)) == "U1-O1-"
    for G in enumerate_all_diagrams(3):
        for c in G.chord_ids():
            assert crossing_change(crossing_change(G, c), c) == G


def test_crossing_change_flips_warping_degree():
    for G in enumerate_all_diagrams(4):
        for c in G.chord_ids():
            assert abs(warping_degree(crossing_change(G, c)) - warping_degree(G)) == 1


def test_shift_basepoint_round_trip():
    G = parse_gauss_code(TREFOIL)
    assert shift_basepoint(shift_basepoint(G, 0, True), 0, False) == G
    assert len(basepoint_positions(G)) == 6
