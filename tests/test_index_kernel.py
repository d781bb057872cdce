"""Differential tests of ``indices``, of the smoothing candidates of the
census and of the parity test of mod 2 numberability.

The reference for the first two is the per-chord interleaving test
(``indexref``), which reads each endpoint through ``tail``/``head``; the
reference for the parity test is the labeling walk of
``alexander_numbering``.
"""

import random

import indexref
import pytest
from vknot.diagram import (
    _ends_of_opposite_parity,
    alexander_numbering,
    index,
    indices,
    is_mod_p_numberable,
    make_diagram,
    parse_gauss_code,
)
from vknot.enumeration import (
    enumerate_all_diagrams,
    enumerate_structures,
    random_knot_diagram,
    random_link_diagram,
)
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


def test_smoothing_candidates_match_reference():
    for G in [*enumerate_all_diagrams(4), *_seeded_knots()]:
        got = _smoothing_candidates(G.circles, G.chord_ids())
        assert list(got) == list(indexref._smoothing_candidates(G)), str(G)


def test_index_refuses_links_and_unknown_chords():
    link = parse_gauss_code("O1+U2+;U1+O2+")
    with pytest.raises(PreconditionError):
        indices(link)
    with pytest.raises(PreconditionError):
        index(link, 1)
    with pytest.raises(UnknownChordError):
        index(parse_gauss_code("O1+U2+O3+U1+O2+U3+"), 4)
    assert indices(parse_gauss_code("")) == {}


def _assert_parity_matches_walk(G):
    want = alexander_numbering(G, 2) is not None
    assert is_mod_p_numberable(G, 2) == want, str(G)
    if G.num_circles == 1:
        assert _ends_of_opposite_parity(G.circles[0]) == want, str(G)
    return want


def test_parity_colorability_matches_walk_on_census_structures():
    rng = random.Random(5)
    counts = {True: 0, False: 0}
    for word, _ in enumerate_structures(5):
        structure = CensusStructure(word)
        # mod 2 numberability reads no sign; a random sign vector shows it
        G = structure.diagram([rng.choice((1, -1)) for _ in structure.chords])
        want = _assert_parity_matches_walk(G)
        assert structure.colorable == want, str(G)
        counts[want] += 1
    # k! * 2^k colorable structures with k chords: chord ends at positions 2i and 2 sigma(i) + 1
    assert counts == {True: 1 + 2 + 8 + 48 + 384 + 3840, False: 27772}


def test_parity_colorability_matches_walk_on_seeded_knots_and_links():
    rng = random.Random(44)
    colorable = 0
    for _ in range(500):
        G = random_knot_diagram(rng.randint(5, 60), rng)
        colorable += _assert_parity_matches_walk(G)
        # relabeled chord ids change neither side
        _assert_parity_matches_walk(_relabeled(G, rng))
    # colorable knots are rare among random ones; build some from the parity rule
    for _ in range(100):
        k = rng.randint(5, 60)
        evens = rng.sample(range(1, k + 1), k)
        odds = rng.sample(range(1, k + 1), k)
        heads = {c: rng.random() < 0.5 for c in range(1, k + 1)}
        word = [None] * (2 * k)
        word[::2] = [(c, heads[c]) for c in evens]
        word[1::2] = [(c, not heads[c]) for c in odds]
        G = make_diagram([word], {c: rng.choice((1, -1)) for c in range(1, k + 1)})
        assert _assert_parity_matches_walk(G), str(G)
        colorable += 1
    links = {2: [0, 0], 3: [0, 0]}
    for i in range(600):
        G = random_link_diagram(rng.randint(1, 9), rng, require_connecting=False)
        if i % 2:
            # split the second circle in two
            first, second = G.circles
            cut = rng.randint(0, len(second))
            G = make_diagram([first, second[:cut], second[cut:]], G.signs)
        links[G.num_circles][_assert_parity_matches_walk(G)] += 1
    assert colorable > 100 and all(min(pair) > 20 for pair in links.values()), (colorable, links)
