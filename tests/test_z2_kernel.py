"""Differential tests of the bitmask z^2 rows of ``vknot.arrows``.

``z2ref`` holds the O(n^2) pair lists that the one-sweep rows replaced.  A
row ``(x, mask)`` stands for the pairs ``(x, y)`` with bit ``y`` set in
``mask``; expanded, the rows must give the reference's pairs, ascending and
descending, each pair once, and ``_z2_sums`` the reference's signed sums.
"""

import random
import runpy
from pathlib import Path

import pytest
import z2ref
from maskwalk import endpoints
from maskwalk import layout as endpoint_layout

from vknot.arrows import _plus_mask, _z2, _z2_pairs, _z2_sums
from vknot.diagram import _rotations, make_diagram, parse_gauss_code
from vknot.enumeration import enumerate_structures, random_knot_diagram

# run as a script, not imported, so that no bytecode is written under bench/
BENCH_INPUTS = runpy.run_path(str(Path(__file__).resolve().parent.parent / "bench" / "inputs.py"))


def _expand(rows):
    return [(x, y) for x, mask in rows for y in range(mask.bit_length()) if mask >> y & 1]


def _assert_matches_reference(word, chords, sign_vectors, label):
    want = z2ref.z2_pairs(endpoint_layout((word,), chords))
    got = _z2_pairs(word, {chord: i for i, chord in enumerate(chords)})
    for variant, pairs, rows in zip(("ascending", "descending"), want, got):
        expanded = _expand(rows)
        assert len(set(pairs)) == len(pairs), (label, variant)
        assert len(set(expanded)) == len(expanded), (label, variant)
        assert set(expanded) == set(pairs), (label, variant)
    for signs in sign_vectors:
        assert _z2_sums(got, signs, _plus_mask(signs)) == z2ref.z2_sums(want, signs), (label, signs)
    return want


def _assert_diagram_matches_reference(G):
    _, signs = endpoints(G)
    for rotated in _rotations(G.circles[0]):
        _assert_matches_reference(rotated, G.chord_ids(), [signs], str(G))


def test_census_basepoint_layouts_match_reference():
    rotations = 0
    counted = set()
    for word, vectors in enumerate_structures(4):
        for rotated in _rotations(word):
            want = _assert_matches_reference(rotated, range(1, len(word) // 2 + 1), vectors, word)
            counted.update(bool(pairs) for pairs in want)
            rotations += 1
    assert rotations == 14213
    assert counted == {False, True}


def test_seeded_knots_match_reference():
    rng = random.Random(2024)
    sizes = set()
    for _ in range(200):
        G = random_knot_diagram(rng.randint(5, 40), rng)
        _assert_diagram_matches_reference(G)
        sizes.add(G.num_chords)
    assert min(sizes) < 10 and max(sizes) > 35


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_large_closures_match_reference(seed):
    for code in BENCH_INPUTS["large_inputs"](seed):
        G = parse_gauss_code(code)
        _, signs = endpoints(G)
        _assert_matches_reference(G.circles[0], G.chord_ids(), [signs], code)


@pytest.mark.parametrize("crossings", [500, 1000])
def test_long_closures_match_reference(crossings):
    code = BENCH_INPUTS["seeded_braid_knot"](random.Random("z2:%d" % crossings), crossings, 5)
    G = parse_gauss_code(code)
    _, signs = endpoints(G)
    assert len(signs) == crossings
    _assert_matches_reference(G.circles[0], G.chord_ids(), [signs], crossings)


def test_seeded_links_match_reference():
    """2- and 3-circle links: a random knot's word cut into circles.

    Two chords never make a one-component subset on two circles (that takes
    an odd count), so only the 3-circle links have pairs to count.
    """
    rng = random.Random(12)
    seen = set()
    for i in range(400):
        knot = random_knot_diagram(rng.randint(2, 8), rng)
        (word,) = knot.circles
        cuts = sorted(rng.randint(0, len(word)) for _ in range(1 + i % 2))
        G = make_diagram([word[a:b] for a, b in zip([0, *cuts], [*cuts, len(word)])], knot.signs)
        layout, signs = endpoints(G)
        want = z2ref.z2_pairs(layout)
        assert _z2(G.circles, G.chord_ids(), signs) == z2ref.z2_sums(want, signs), str(G)
        seen.update((G.num_circles, variant) for variant, pairs in enumerate(want) if pairs)
        seen.add(G.num_circles)
    assert seen == {2, 3, (3, 0), (3, 1)}
