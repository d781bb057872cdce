"""Differential tests of ``indices``, of the span kernel ``_spans``, of the
smoothing candidates of the census and of the parity test of mod 2
numberability.

The reference for the first three is the per-chord interleaving test
(``indexref``), which reads each endpoint through ``tail``/``head``; the
reference for the parity test is the labeling walk of
``alexander_numbering``.  The census runs the span kernel once per rotation
orbit (``CensusStructure.arcs``) and each member picks its candidates by its
basepoint, so the candidates are compared on every member of every orbit,
and a member that picks the wrong arc must fail the ``warp-smooth`` check.
"""

import random

import indexref
import pytest
from vknot.diagram import (
    _ends_of_opposite_parity,
    _renumbered,
    _spans,
    alexander_numbering,
    index,
    indices,
    is_mod_p_numberable,
    make_diagram,
    parse_gauss_code,
)
from vknot.enumeration import (
    _random_chords,
    _rotation_orbits,
    enumerate_all_diagrams,
    enumerate_structures,
    random_knot_diagram,
)
from vknot.errors import PreconditionError, UnknownChordError
from vknot.verify import CensusStructure, SweepConfig, recheck, run_check


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


def _random_split_link(k, rng):
    """A random two-circle diagram whose chords need not join the circles: one draw of
    ``random_link_diagram``, which would draw again when none does."""
    slots, signs = _random_chords(k, rng)
    split = rng.randint(0, 2 * k)
    return make_diagram([slots[:split], slots[split:]], signs)


def _assert_indices_match(G):
    want = {c: indexref.index(G, c) for c in G.chord_ids()}
    got = indices(G)
    assert got == want and list(got) == list(G.chord_ids()), str(G)
    for c in G.chord_ids():
        assert index(G, c) == want[c], (str(G), c)


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


def _assert_spans_match(G):
    """Each chord's ``crossing`` mask of ``_spans`` holds the chords it interleaves, and its
    ``inside`` mask those of them whose tail lies between its ends: a term of ``_index_terms`` is
    +1 when the tail lies on the arc from the chord's head to its tail."""
    word = G.circles[0]

    def chords(mask):
        return {word[p][0] for p in range(len(word)) if mask >> p & 1}

    spans = list(_spans(word))
    assert [chord for chord, *_ in spans] == list(dict.fromkeys(c for c, _ in word)), str(G)
    for chord, a, b, crossing, inside in spans:
        assert a < b and {word[a], word[b]} == {(chord, False), (chord, True)}, (str(G), chord)
        terms = dict(indexref._index_terms(G, chord))
        assert chords(crossing) == set(terms), (str(G), chord)
        assert chords(inside) == {other for other, c in terms.items() if (c == 1) is word[a][1]}, (str(G), chord)
    return len(spans)


def test_spans_match_reference_on_census_structures():
    pairs = 0
    for word, _ in enumerate_structures(5):
        pairs += _assert_spans_match(make_diagram([word], {chord: 1 for chord, _ in word}))
    assert pairs == 158306


def test_spans_match_reference_on_seeded_knots_with_sparse_labels():
    rng = random.Random(8)
    for G in _seeded_knots():
        _assert_spans_match(G)
        _assert_spans_match(_relabeled(G, rng))


def _structure_candidates(G):
    """The smoothing candidates of the knot ``G`` read from its census structure, in ``G``'s labels."""
    word, label = _renumbered(G.circles[0])
    chord_of = {new + 1: chord for chord, new in label.items()}
    return sorted(chord_of[chord] for chord, _ in CensusStructure(word).smoothing_candidates)


def test_smoothing_candidates_match_reference():
    for G in [*enumerate_all_diagrams(4), *_seeded_knots()]:
        assert _structure_candidates(G) == list(indexref._smoothing_candidates(G)), str(G)


def test_orbit_candidates_match_reference_on_every_member():
    # Each member of each rotation orbit with <= 5 chords, in the representative's labels; a
    # candidate is alone when no chord interleaves it.
    members = 0
    for k in range(6):
        for word, stabilizer in _rotation_orbits(k, False):
            orbit = CensusStructure(word)
            for member in orbit.members(max(1, len(word)) // len(stabilizer)):
                G = make_diagram([member.rotation], dict.fromkeys(orbit.chords, 1))
                got = member.smoothing_candidates
                assert [chord for chord, _ in got] == list(indexref._smoothing_candidates(G)), (word, member.shift)
                for chord, alone in got:
                    assert alone is not any(indexref._index_terms(G, chord)), (word, member.shift, chord)
                members += 1
    assert members == 32055


def _candidates_on_the_basepoint_arc(structure):
    """A wrong reading of the orbit's arcs: the arc holding the basepoint must be free of
    interleaving tails, not the arc away from it."""
    shift = structure.shift
    return [(chord, not crossing) for chord, a, b, crossing, inside in structure.arcs
            if not (inside if a < shift <= b else crossing ^ inside)]


def test_candidates_on_the_basepoint_arc_are_caught(monkeypatch):
    monkeypatch.setattr(CensusStructure, "smoothing_candidates", property(_candidates_on_the_basepoint_arc))
    config = SweepConfig(max_chords=4)
    report = run_check("warp-smooth", config)
    assert report.population == 27893 and report.failures == 834, report
    assert recheck("warp-smooth", report.counterexamples[0], config) is False


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
        G = _random_split_link(rng.randint(1, 9), rng)
        if i % 2:
            # split the second circle in two
            first, second = G.circles
            cut = rng.randint(0, len(second))
            G = make_diagram([first, second[:cut], second[cut:]], G.signs)
        links[G.num_circles][_assert_parity_matches_walk(G)] += 1
    assert colorable > 100 and all(min(pair) > 20 for pair in links.values()), (colorable, links)
