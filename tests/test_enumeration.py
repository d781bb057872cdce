import itertools
import random

import pytest

from vknot import verify
from vknot.arrows import parse_arrow_code
from vknot.diagram import (
    BasedGaussDiagram,
    _ends_of_opposite_parity,
    _first_occurrence,
    _rotations,
    make_diagram,
    parse_gauss_code,
    serialize_gauss_code,
)
from vknot.enumeration import (
    _census_key,
    _rotation_orbits,
    _words,
    connecting_chords,
    enumerate_all_diagrams,
    enumerate_diagrams,
    enumerate_structures,
    random_knot_diagram,
    random_link_diagram,
    raw_diagram_count,
    rotation_canonical_key,
)
from vknot.errors import PreconditionError


@pytest.mark.parametrize("k,count", [(0, 1), (1, 4), (2, 48), (3, 960)])
def test_raw_counts(k, count):
    assert raw_diagram_count(k) == count
    assert sum(1 for _ in enumerate_diagrams(k)) == count


def test_enumerate_validates_input():
    with pytest.raises(ValueError):
        list(enumerate_diagrams(-1))


def test_canonical_dedup():
    # one-chord diagrams: the two token orders are rotations of each other
    assert sum(1 for _ in enumerate_diagrams(1, canonical=True)) == 2
    raw = sum(1 for _ in enumerate_diagrams(2))
    canon = sum(1 for _ in enumerate_diagrams(2, canonical=True))
    assert canon < raw


def test_structures_expand_to_the_census():
    expanded = [
        make_diagram([word], zip(range(1, len(word) // 2 + 1), signs))
        for word, vectors in enumerate_structures(3)
        for signs in vectors
    ]
    assert expanded == list(enumerate_all_diagrams(3))
    words = [word for word, _ in enumerate_structures(3)]
    # every matching and orientation once, chords numbered by first occurrence
    assert len(set(words)) == len(words) == 1 + 2 + 12 + 120
    for word in words:
        firsts = list(dict.fromkeys(chord for chord, _ in word))
        assert firsts == list(range(1, len(word) // 2 + 1))


def _filtered_census(max_chords):
    return [(word, vectors) for word, vectors in enumerate_structures(max_chords)
            if _ends_of_opposite_parity(word)]


def test_colorable_structures_are_the_filtered_census():
    # generated directly, the colorable structures are the census's, in census order
    got = list(enumerate_structures(6, colorable=True))
    assert got == _filtered_census(6)
    assert sum(len(vectors) for _, vectors in got) == 3078565


def test_rotation_keeps_colorability_of_census_words():
    # a rotation keeps the parity of each chord's two ends apart, so a rotation class is
    # colorable or not as a whole
    for k in range(1, 7):
        for word in _words(k):
            assert _ends_of_opposite_parity(word[1:] + word[:1]) == _ends_of_opposite_parity(word), word


def test_rotation_canonical_key_identifies_rotations():
    a = parse_gauss_code("O1+U1+")
    b = parse_gauss_code("U1+O1+")
    assert rotation_canonical_key(a) == rotation_canonical_key(b)
    assert a != b


def test_rotation_canonical_key_refuses_links():
    # keying the first circle alone would give these two codes, of 2 and 3 chords, one key
    for code in ("O1+U2+;O2+U1+", "O1+U2+;O2+U1+O3+U3+"):
        with pytest.raises(PreconditionError):
            rotation_canonical_key(parse_gauss_code(code))


@pytest.mark.parametrize("colorable", [False, True])
def test_census_key_orders_the_census_words(colorable):
    # _words defines census order; the key the canonical test compares rotations by follows it
    for k in range(7):
        keys = [_census_key(word) for word in _words(k, colorable)]
        assert all(a < b for a, b in zip(keys, keys[1:])), k


def test_canonical_signs_on_a_word_a_rotation_maps_to_itself():
    # rotating O1U1O2U2 by two places gives the same word with its chords swapped, so of
    # (1, -1) and (-1, 1) only the first, earlier in census order, is kept
    word = parse_gauss_code("O1+U1+O2+U2+").circles[0]
    kept = [tuple(s for _, s in G.signs) for G in enumerate_diagrams(2, canonical=True) if G.circles[0] == word]
    assert kept == [(1, 1), (1, -1), (-1, -1)]


def _renumbered(word):
    """``word`` with its chords numbered 1..k by first occurrence, as the census numbers them."""
    label = _first_occurrence(c for c, _ in word)
    return tuple((label[c] + 1, is_head) for c, is_head in word)


@pytest.mark.parametrize("k, orbits, colorable_orbits", [(4, 218, 54), (5, 3028, 388)])
def test_rotation_orbit_counts(k, orbits, colorable_orbits):
    assert sum(1 for _ in _rotation_orbits(k)) == orbits
    assert sum(1 for _ in _rotation_orbits(k, colorable=True)) == colorable_orbits


@pytest.mark.parametrize("colorable", [False, True])
def test_rotation_orbits_are_least_words_with_their_stabilizers(colorable):
    for k in range(6):
        members = 0
        for word, stabilizer in _rotation_orbits(k, colorable):
            rotations = [_renumbered(rotated) for rotated in _rotations(word)]
            assert all(_census_key(word) <= _census_key(rotated) for rotated in rotations), word
            assert stabilizer == tuple(r for r, rotated in enumerate(rotations) if rotated == word), word
            members += len(rotations) // len(stabilizer)
        assert members == sum(1 for _ in _words(k, colorable)), k


def test_rotation_orbits_match_brute_force_classes():
    for k in range(5):
        classes = {}
        for word in _words(k):
            least = min(map(_renumbered, _rotations(word)), key=_census_key)
            classes.setdefault(least, set()).add(word)
        want = [(least, len(words)) for least, words in sorted(classes.items(), key=lambda c: _census_key(c[0]))]
        got = [(word, len(_rotations(word)) // len(stabilizer)) for word, stabilizer in _rotation_orbits(k)]
        assert got == want, k


def _reference_rotation_key(diagram):
    """The minimal ``canonical_key`` over the diagram's rotated copies."""
    word = diagram.circles[0]
    if not word:
        return ((),)
    return min(
        BasedGaussDiagram((word[r:] + word[:r],), diagram.signs).canonical_key()
        for r in range(len(word))
    )


def test_canonical_keys_number_chords_by_first_occurrence():
    # _reference_rotation_key reads canonical_key, whose numbering is the census's own helper,
    # so two literal keys pin that numbering independently
    assert parse_gauss_code("O7-U3+O3+U7-;U9+O9+").canonical_key() == (
        ((0, False, -1), (1, True, 1), (1, False, 1), (0, True, -1)),
        ((2, True, 1), (2, False, 1)),
    )
    assert parse_arrow_code("U5O2;O5U2").canonical_key() == (((0, True), (1, False)), ((0, False), (1, True)))


@pytest.fixture(scope="module")
def census_keys():
    return [(G, _reference_rotation_key(G)) for G in enumerate_all_diagrams(4)]


def test_rotation_canonical_key_matches_reference(census_keys):
    assert len(census_keys) == 27893
    for G, key in census_keys:
        assert rotation_canonical_key(G) == key, str(G)


def test_canonical_census_keeps_first_of_each_rotation_class(census_keys):
    seen = set()
    want = []
    for G, key in census_keys:
        if key not in seen:
            seen.add(key)
            want.append(G)
    assert [G for k in range(5) for G in enumerate_diagrams(k, canonical=True)] == want
    assert len(want) == 3569


def test_random_generators_are_seeded():
    a = random_knot_diagram(5, random.Random(1))
    b = random_knot_diagram(5, random.Random(1))
    assert a == b
    assert a.num_chords == 5 and a.num_circles == 1

    link = random_link_diagram(4, random.Random(2))
    assert link.num_circles == 2
    assert connecting_chords(link)
    with pytest.raises(ValueError):
        random_link_diagram(0, random.Random(0))


def test_skein_population_is_pinned():
    # both generators draw chords through one helper; the draws, and so every
    # seeded diagram, are those of the generators before it
    population = verify._population_random_skein(verify.SweepConfig())
    assert [serialize_gauss_code(make_diagram(*sample)) for sample in itertools.islice(population, 20)] == [
        "U6-O1-U3-O3-O6-O2+U7+U5+O5+O4+U2+U1-O7+U4+",
        "U2+U1-O3-;O5+U3-U6+O6+O4-U4-U5+O2+O1-",
        "O2-U1-O1-O3-U3-U2-",
        "U3-O2+;U1+U4+O4+O1+U2+O3-",
        "U3-U1+O2-U2-O1+O3-",
        "O3+U8-U3+;U4+U2+U7+U1+U6+O2+O7+O1+O8-O5+U5+O6+O4+",
        "O1+U1+",
        "O2+O1+;U1+U2+",
        "U2-O2-U1+O1+",
        "U1+;O1+",
        "U1+O1+O2-U2-",
        "O2-O1+O5+U4-;U6+U5+U3-U2-U1+O6+O4-O3-",
        "U1-O1-U2-O3-U3-O2-",
        "O2+O4+O1+U1+;U2+U3+U4+O3+",
        "O3-U5+O5+U3-U2+O1+U4+O4+O2+U1+",
        "O1-;U1-",
        "O1+U1+O2-U2-",
        "O2-O4-O5-U4-U5-O3+O6+U3+U6+O1+U2-;U1+",
        "O8+O1+U5+U2+O7-U7-O4-U4-U1+O5+U6-O6-O3-U8+U3-O2+",
        "O5+O6-O1+O7-O2+U7-U4-O4-U5+U2+;O3+U6-U3+U1+",
    ]
