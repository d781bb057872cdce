"""Differential tests of the interleaving kernel ``diagram._index_rows``.

The reference is the per-chord interleaving test it replaced
(``indexref``), which reads each endpoint through ``tail``/``head``.
"""

import random

import indexref
import pytest
from vknot.diagram import _index_rows, index, indices, make_diagram, parse_gauss_code
from vknot.enumeration import enumerate_all_diagrams, enumerate_structures, random_knot_diagram
from vknot.errors import PreconditionError, UnknownChordError
from vknot.verify import CensusStructure, _smoothing_candidates


def _seeded_knots():
    rng = random.Random(20)
    for k in range(1, 21):
        for _ in range(5):
            yield random_knot_diagram(k, rng)


def _relabeled(G, rng):
    """``G`` with its chords renumbered in a shuffled order, so ids and indices differ."""
    ids = list(G.chord_ids())
    new = rng.sample(range(1, 10 * len(ids) + 1), len(ids))
    relabel = dict(zip(ids, new))
    word = [(relabel[c], is_head) for c, is_head in G.circles[0]]
    return make_diagram([word], {relabel[c]: s for c, s in G.signs})


def _assert_indices_match(G):
    want = {c: indexref.index(G, c) for c in G.chord_ids()}
    got = indices(G)
    assert got == want and list(got) == list(G.chord_ids()), str(G)
    for c in G.chord_ids():
        assert index(G, c) == want[c], (str(G), c)
        assert index(G, c, flip=True) == -want[c], (str(G), c)


def test_indices_match_reference_on_census():
    checked = 0
    for G in enumerate_all_diagrams(4):
        _assert_indices_match(G)
        checked += 1
    assert checked == 27893


def test_indices_match_reference_on_seeded_knots():
    rng = random.Random(7)
    for G in _seeded_knots():
        _assert_indices_match(G)
        _assert_indices_match(_relabeled(G, rng))


def test_rows_match_reference_terms():
    for G in _seeded_knots():
        tails = [G.tail(c)[1] for c in G.chord_ids()]
        heads = [G.head(c)[1] for c in G.chord_ids()]
        position = {c: i for i, c in enumerate(G.chord_ids())}
        want = [[(position[other], coef) for other, coef in indexref._index_terms(G, c)]
                for c in G.chord_ids()]
        assert _index_rows(tails, heads) == want, str(G)


def test_structure_rows_and_smoothing_candidates_match_reference():
    for word, _ in enumerate_structures(4):
        structure = CensusStructure(word)
        G = structure.template
        want = [[(other - 1, coef) for other, coef in indexref._index_terms(G, c)] for c in structure.chords]
        assert structure.index_rows == want, str(G)
    for G in [*enumerate_all_diagrams(3), *_seeded_knots()]:
        assert list(_smoothing_candidates(G)) == list(indexref._smoothing_candidates(G)), str(G)


def test_index_refuses_links_and_unknown_chords():
    link = parse_gauss_code("O1+U2+;U1+O2+")
    with pytest.raises(PreconditionError):
        indices(link)
    with pytest.raises(PreconditionError):
        index(link, 1)
    with pytest.raises(UnknownChordError):
        index(parse_gauss_code("O1+U2+O3+U1+O2+U3+"), 4)
    assert indices(parse_gauss_code("")) == {}
