"""The R3 pattern lookup and the one-splice R2 insertion of ``vknot.moves``
against the generators they replaced (``movesref``), order included."""

import random
from unittest import mock

import movesref
import pytest
from vknot import moves
from vknot.diagram import make_diagram, parse_gauss_code
from vknot.enumeration import enumerate_all_diagrams, random_knot_diagram, random_link_diagram

TREFOIL = parse_gauss_code("O1+U2+O3+U1+O2+U3+")


def _keys(diagrams):
    return [(d.circles, d.signs) for d in diagrams]


def _reference(function, *args, **kwargs):
    """``function`` run with the reference R2 and R3 generators in place."""
    with mock.patch.multiple(moves, r2_insertions=movesref.r2_insertions, r3_slides=movesref.r3_slides):
        return function(*args, **kwargs)


def _seeded_diagrams(count, seed):
    """Knots and 2- and 3-circle links with up to 9 chords: a random knot's
    word cut into one, two or three circles."""
    rng = random.Random(seed)
    for i in range(count):
        knot = random_knot_diagram(rng.randint(1, 9), rng)
        (word,) = knot.circles
        cuts = sorted(rng.randint(0, len(word)) for _ in range(i % 3))
        yield make_diagram([word[a:b] for a, b in zip([0, *cuts], [*cuts, len(word)])], knot.signs)


def _population(name):
    if name == "census":
        return [d for k in range(4) for d in enumerate_all_diagrams(k)] + list(enumerate_all_diagrams(4))[::7]
    if name == "seeded":
        return list(_seeded_diagrams(200, 10))
    return moves.random_reidemeister_walk(TREFOIL, 40, random.Random(3), max_chords=7)


# R2 insertions build (2n + 1)^2 * 4 diagrams each, so the costlier
# comparisons take every k-th diagram of a population
STRIDE = {"census": 200, "seeded": 20, "walk": 5}


@pytest.mark.parametrize("name", ["census", "seeded", "walk"])
def test_moves_match_reference(name):
    diagrams = _population(name)
    slid = 0
    for G in diagrams:
        got = _keys(moves.r3_slides(G))
        assert got == _keys(movesref.r3_slides(G)), G
        slid += bool(got)
    assert slid
    for G in diagrams[:: STRIDE[name]]:
        assert _keys(moves.r2_insertions(G)) == _keys(movesref.r2_insertions(G)), G
        assert _keys(moves.reidemeister_moves(G)) == _keys(_reference(moves.reidemeister_moves, G)), G


def test_triangle_configs_match_reference():
    assert moves._triangle_configs() == movesref._R3_CONFIGS


def test_walks_match_reference():
    rng = random.Random(5)
    starts = [TREFOIL, random_knot_diagram(4, rng), random_knot_diagram(5, rng), random_link_diagram(2, rng),
              random_link_diagram(3, rng)]
    for seed, start in enumerate(starts):
        path = moves.random_reidemeister_walk(start, 30, random.Random(seed), max_chords=7)
        want = _reference(moves.random_reidemeister_walk, start, 30, random.Random(seed), max_chords=7)
        assert _keys(path) == _keys(want)
