import random

from vknot.determinant import determinant
from vknot.diagram import (
    index,
    is_mod_p_numberable,
    parse_gauss_code,
    serialize_gauss_code,
)
from vknot.enumeration import enumerate_all_diagrams
from vknot.moves import (
    basepoint_shifts,
    r1_deletions,
    r1_insertions,
    r2_deletions,
    r2_insertions,
    r3_slides,
    random_reidemeister_walk,
    reidemeister_moves,
)

TREFOIL = parse_gauss_code("O1+U2+O3+U1+O2+U3+")
UNKNOT = parse_gauss_code("")


def test_r1_insertions_on_unknot():
    codes = sorted(serialize_gauss_code(d) for d in r1_insertions(UNKNOT))
    assert codes == ["O1+U1+", "O1-U1-", "U1+O1+", "U1-O1-"]


def test_r1_inserted_chords_have_index_zero():
    diagrams = [UNKNOT, TREFOIL] + list(enumerate_all_diagrams(2))
    for G in diagrams:
        old = set(G.chord_ids())
        for moved in r1_insertions(G):
            (new,) = set(moved.chord_ids()) - old
            assert index(moved, new) == 0
            assert all(index(moved, c) == index(G, c) for c in old)
            assert any(d == G for d in r1_deletions(moved))


def test_r2_insert_delete_inverse():
    for G in (UNKNOT, TREFOIL):
        for moved in r2_insertions(G):
            assert any(d == G for d in r2_deletions(moved))


def test_r2_deletions_keep_colorability():
    # removing a canceling pair never destroys an existing numbering
    for G in enumerate_all_diagrams(4):
        if not is_mod_p_numberable(G, 2):
            continue
        for moved in r2_deletions(G):
            assert is_mod_p_numberable(moved, 2)


def test_r3_exists_and_preserves_indices():
    G = parse_gauss_code("O1+O2-O3+U1+U2-U3+")
    moves = r3_slides(G)
    assert moves
    for moved in moves:
        assert moved != G
        for c in G.chord_ids():
            assert index(moved, c) == index(G, c)
        assert any(back == G for back in r3_slides(moved))


def test_standard_trefoil_has_no_r3():
    # the alternating trefoil diagram has no coherent triangle
    assert r3_slides(TREFOIL) == []


def test_reidemeister_moves_union():
    moves = reidemeister_moves(TREFOIL)
    assert len(moves) == len({(d.circles, d.signs) for d in moves})
    shifts = basepoint_shifts(TREFOIL)
    for s in shifts:
        assert any(d == s for d in moves)


def test_determinant_constant_on_colorable_orbit():
    rng = random.Random(42)
    path = random_reidemeister_walk(TREFOIL, 50, rng, max_chords=7)
    seen = 0
    for d in path:
        if is_mod_p_numberable(d, 2):
            seen += 1
            assert determinant(d) == 3
    assert seen >= 10  # a healthy share of the walk stays colorable


def test_index_multiset_constant_under_shift_and_r3():
    rng = random.Random(6)
    path = random_reidemeister_walk(TREFOIL, 20, rng, max_chords=7)
    for d in path:
        base = sorted(index(d, c) for c in d.chord_ids())
        for s in basepoint_shifts(d):
            assert sorted(index(s, c) for c in s.chord_ids()) == base
        for s in r3_slides(d):
            assert sorted(index(s, c) for c in s.chord_ids()) == base


def test_r1_needs_two_distinct_positions():
    # a circle carrying one endpoint is not a kink: that endpoint is its own successor
    assert r1_deletions(parse_gauss_code("O1+;U1+")) == []
    for code in ("O1+;U1+", "O1-O2+U3+;U1-O3+;U2+"):
        G = parse_gauss_code(code)
        moves = reidemeister_moves(G)
        assert moves and all(m.num_circles == G.num_circles for m in moves)


def test_r1_reads_a_lone_kink_once():
    # on a circle of exactly two endpoints, the pair across the wrap is the same kink
    for code in ("O1+U1+", "U1+O1+", "O1-U1-"):
        assert [str(d) for d in r1_deletions(parse_gauss_code(code))] == [""], code
    assert [str(d) for d in r1_deletions(parse_gauss_code("O1+U1+;U2-O2-"))] == [";U2-O2-", "O1+U1+;"]
