"""Differential tests of the position-array pairing kernel.

The reference classifies chord subsets through the public word-based API:
``subset_pattern`` plus ``is_one_component``, ``is_ascending`` and
``is_descending``.  Signs never enter the classification, so the reference
classifies each unsigned structure once and re-signs it per diagram.  The
walk-guided search is also compared subset by subset with the mask walk it
replaced (``maskwalk``), on knots too large for the word-based reference,
and on layouts whose circles no chords join, where it must not walk at all.
"""

import contextlib
import io
import itertools
import math
import random
import sys

import pytest
from braidutil import braid_closure_gauss_code
from maskwalk import _crossing_change_subsets as mask_crossing_change_subsets
from maskwalk import _qualifying_subsets as mask_qualifying_subsets
from maskwalk import skein_difference, walk_triples
from vknot import catalog, cli
from vknot.arrows import (
    IntPolynomial,
    _crossing_change_tables,
    _endpoints,
    _walks,
    ascending_polynomial,
    conway_pairing,
    conway_pairing_table,
    descending_polynomial,
    is_ascending,
    is_descending,
    is_one_component,
    subset_pattern,
    z2_pairings_at_basepoints,
)
from vknot.diagram import basepoint_positions, crossing_change, make_diagram, parse_gauss_code, smooth
from vknot.enumeration import (
    _random_chords,
    connecting_chords,
    enumerate_all_diagrams,
    random_knot_diagram,
    random_link_diagram,
)
from vknot.oracle import conway_polynomial

VARIANTS = ("ascending", "descending")


def _classify(G, subsets):
    """``(subset, ascending, descending)`` for each one-component subset."""
    out = []
    for subset in subsets:
        pattern = subset_pattern(G, subset)
        if is_one_component(pattern):
            out.append((subset, is_ascending(pattern), is_descending(pattern)))
    return out


def _all_subsets(G, required=None, sizes=None):
    base = () if required is None else (required,)
    rest = [c for c in G.chord_ids() if c != required]
    if sizes is None:
        sizes = range(len(rest) + 1)
    for r in sizes:
        if r >= len(base):
            for more in itertools.combinations(rest, r - len(base)):
                yield base + more


def _signed_table(G, classified):
    """The signed sums of each size; a size whose two sums are 0 is not a key."""
    table = {}
    for subset, asc, des in classified:
        prod = math.prod(G.sign(c) for c in subset)
        entry = table.setdefault(len(subset), [0, 0])
        entry[0] += prod if asc else 0
        entry[1] += prod if des else 0
    return {size: tuple(sums) for size, sums in table.items() if sums != [0, 0]}


def reference_table(G, required=None, sizes=None):
    return _signed_table(G, _classify(G, _all_subsets(G, required, sizes)))


def _assert_pairings_match(G, table):
    for degree in range(G.num_chords + 1):
        for column, variant in enumerate(VARIANTS):
            assert conway_pairing(G, degree, variant) == table.get(degree, (0, 0))[column], (
                str(G), degree, variant)


def test_census_matches_reference_at_every_degree():
    # The census holds every basepoint rotation of every diagram, so this
    # also covers the degree-2 closed form at every basepoint.
    classified = {}
    count = 0
    for G in enumerate_all_diagrams(4):
        if G.circles not in classified:
            classified[G.circles] = _classify(G, _all_subsets(G))
        table = _signed_table(G, classified[G.circles])
        assert conway_pairing_table(G) == table, str(G)
        _assert_pairings_match(G, table)
        count += 1
    assert count == 27893


def test_rotation_pass_matches_each_basepoint():
    rng = random.Random(7)
    diagrams = list(enumerate_all_diagrams(3))
    diagrams += [random_knot_diagram(rng.randint(4, 7), rng) for _ in range(15)]
    diagrams += [random_link_diagram(rng.randint(2, 6), rng) for _ in range(15)]
    for G in diagrams:
        moved = basepoint_positions(G)
        pairs = z2_pairings_at_basepoints(G)
        assert len(pairs) == len(moved)
        for shift, B in enumerate(moved):
            want = reference_table(B, sizes=(2,)).get(2, (0, 0))
            assert pairs[shift] == want, (str(G), shift)


def test_two_circle_diagrams_match_reference():
    rng = random.Random(13)
    for _ in range(40):
        G = random_link_diagram(rng.randint(1, 6), rng)
        assert G.num_circles == 2
        table = reference_table(G)
        assert conway_pairing_table(G) == table, str(G)
        _assert_pairings_match(G, table)


def test_three_circle_diagrams_match_reference():
    # With three circles a subset can miss two of them and keep the parity
    # of a one-component subset, so only the per-circle check rejects it.
    rng = random.Random(19)
    for _ in range(30):
        K = random_knot_diagram(rng.randint(2, 7), rng)
        word = K.circles[0]
        a, b = sorted(rng.sample(range(len(word) + 1), 2))
        G = make_diagram([word[:a], word[a:b], word[b:]], K.signs)
        table = reference_table(G)
        assert conway_pairing_table(G) == table, str(G)
        _assert_pairings_match(G, table)


def _held_tables(G):
    """``{chord: difference}``: the skein difference T(D+) - T(D-) at each chord, as
    ``_crossing_change_tables`` holds it."""
    layout, signs = _endpoints(G)
    tables = _crossing_change_tables(layout, signs, range(G.num_chords))
    return {chord: tables[i] for i, chord in enumerate(G.chord_ids())}


def reference_difference(G, chord):
    """s_c * (T(D) - T(D^c)) over the subsets holding ``chord``, each table from the reference
    classification of its own materialized diagram."""
    switched = crossing_change(G, chord)
    return skein_difference(reference_table(G, chord), reference_table(switched, chord), G.sign(chord))


def test_required_chord_tables_match_reference():
    rng = random.Random(17)
    diagrams = [random_knot_diagram(rng.randint(1, 8), rng) for _ in range(6)]
    diagrams += [random_link_diagram(rng.randint(1, 8), rng) for _ in range(6)]
    for G in diagrams:
        held = _held_tables(G)
        for chord in G.chord_ids():
            assert held[chord] == reference_difference(G, chord), (str(G), chord)


def test_larger_tables_match_reference():
    # Most walks of these tables stop early (a head-first and a tail-first
    # chord), so every size must still keep its key and every sum its terms.
    rng = random.Random(23)
    diagrams = [random_knot_diagram(rng.randint(10, 12), rng) for _ in range(4)]
    diagrams += [random_link_diagram(rng.randint(6, 9), rng) for _ in range(4)]
    for G in diagrams:
        assert conway_pairing_table(G) == reference_table(G), str(G)
        held = _held_tables(G)
        for chord in G.chord_ids():
            assert held[chord] == reference_difference(G, chord), (str(G), chord)


def test_degree_bound_bounds_the_work():
    # 2^40 subsets could never be enumerated; the bound keeps it to C(40, <=2).
    G = random_knot_diagram(40, random.Random(40))
    assert G.num_chords == 40
    for polynomial, variant in ((ascending_polynomial, "ascending"),
                                (descending_polynomial, "descending")):
        want = IntPolynomial.from_dict({0: 1, 2: conway_pairing(G, 2, variant)})
        assert polynomial(G, 2) == want
    with pytest.raises(TypeError):  # the bound is keyword-only; a positional one is refused
        conway_pairing_table(G, 2)


def test_invariants_builds_one_table_per_knot(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return conway_pairing_table(*args, **kwargs)

    monkeypatch.setattr(catalog, "conway_pairing_table", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["invariants", "6.87548", "--json"]) == 0
    assert len(calls) == 1


def _three_circle_diagram(rng, chords):
    K = random_knot_diagram(chords, rng)
    word = K.circles[0]
    a, b = sorted(rng.sample(range(len(word) + 1), 2))
    return make_diagram([word[:a], word[a:b], word[b:]], K.signs)


def _braid_knot(rng, crossings, strands=3):
    while True:
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(crossings)]
        code = braid_closure_gauss_code(word, strands)
        if code is not None:
            return parse_gauss_code(code)


def _counting(classified):
    """The subsets that add to a sum, with their flags, chords sorted, in sorted order."""
    return sorted((tuple(sorted(subset)), asc, des) for subset, asc, des in classified if asc or des)


def _mask_table(G, max_size, required=None):
    """The signed table of ``G`` up to ``max_size`` chords from the mask walk, over the subsets
    holding chord index ``required`` if it is set."""
    ids = G.chord_ids()
    mask = mask_qualifying_subsets(_endpoints(G)[0], range(max_size + 1), required)
    return _signed_table(G, [(tuple(ids[i] for i in s), a, d) for s, a, d in mask])


def _assert_walk_matches_mask_walk(G, max_sizes):
    # Subset by subset, not only by sums, so that two errors cannot cancel.
    layout, _ = _endpoints(G)
    held = _held_tables(G)
    for max_size in max_sizes:
        walk = walk_triples(layout, max_size)
        mask = list(mask_qualifying_subsets(layout, range(max_size + 1)))
        assert sorted((tuple(sorted(s)), a, d) for s, a, d in walk) == _counting(mask), (str(G), max_size)
        assert conway_pairing_table(G, max_degree=max_size) == _mask_table(G, max_size), (str(G), max_size)
        for required, chord in enumerate(G.chord_ids()):
            switched = crossing_change(G, chord)
            want = skein_difference(_mask_table(G, max_size, required), _mask_table(switched, max_size, required),
                                    G.sign(chord))
            got = {size: sums for size, sums in held[chord].items() if size <= max_size}
            assert got == want, (str(G), max_size, chord)


def test_walk_matches_mask_walk_on_larger_knots():
    # 13-16 chords: past what the word-based reference can enumerate quickly.
    rng = random.Random(131)
    diagrams = [random_knot_diagram(chords, rng) for chords in (13, 14, 15, 16)]
    diagrams += [_braid_knot(rng, crossings) for crossings in (14, 16)]
    for G in diagrams:
        _assert_walk_matches_mask_walk(G, (G.num_chords,))


def test_walk_matches_mask_walk_on_multi_circle_diagrams():
    rng = random.Random(89)
    diagrams = [random_link_diagram(rng.randint(8, 10), rng) for _ in range(8)]
    diagrams += [_three_circle_diagram(rng, rng.randint(8, 10)) for _ in range(8)]
    for G in diagrams:
        n = G.num_chords
        _assert_walk_matches_mask_walk(G, (1, 2, 5, n))


def test_size_whose_sums_cancel_is_not_a_key():
    # Two descending z^2 subsets with opposite sign products: size 2 has
    # one-component subsets but both sums are 0, so it is absent.
    G = parse_gauss_code("O1+O2-U3+U1+U2-O3+")
    layout, _ = _endpoints(G)
    descending = [s for s, a, d in mask_qualifying_subsets(layout, (2,)) if d]
    assert len(descending) == 2
    assert conway_pairing_table(G) == {0: (1, 1)}
    assert conway_pairing(G, 2, "descending") == 0


def test_large_braid_closures_match_the_skein_oracle():
    # The mask walk took 7.6 s for these six polynomials (5.8 s at 22
    # crossings); the search visits only the partial walks that stay pure.
    rng = random.Random(2026)
    for crossings in (18, 20, 22):
        G = _braid_knot(rng, crossings)
        assert G.num_chords == crossings
        want = conway_polynomial(G)
        assert ascending_polynomial(G) == want, str(G)
        assert descending_polynomial(G) == want, str(G)


def _result_and_walk_calls(call):
    """``call()`` and the number of branches (``walk`` calls) the search made in it."""
    calls = []

    def count_walks(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "walk":
            calls.append(frame)

    sys.setprofile(count_walks)
    try:
        result = call()
    finally:
        sys.setprofile(None)
    return result, len(calls)


def _table_and_walk_calls(G):
    return _result_and_walk_calls(lambda: conway_pairing_table(G))


def test_walks_never_land_on_a_kink():
    # A kink's upper end can only be reached by a jump to its lower end, so a
    # walk never adds a kink: 12 kinks cost no branch, where each used to
    # double the subsets walked.  Kinks, and a chord enclosing only kinks,
    # are left out before the first walk, so inside a trefoil chord they
    # keep no arc open either.
    kinks = "".join("U%d+O%d+" % (i, i) for i in range(4, 16))
    assert _table_and_walk_calls(parse_gauss_code(kinks)) == ({0: (1, 1)}, 0)
    base = parse_gauss_code("O1-U2-O3-U1-O2-U3-")
    assert _table_and_walk_calls(base) == ({0: (1, 1), 2: (1, 1)}, 5)
    nested = "O16+O17+U17+O18-U18-U16+"
    for kinked in (kinks + "O1-U2-O3-U1-O2-U3-", "O1-U2-O3-U1-O2-U3-" + kinks,
                   "O1-U2-O3-" + kinks + "U1-O2-U3-", "O1-U2-O3-" + nested + "U1-O2-U3-",
                   "O1-U2-O3-" + kinks + nested + "U1-O2-U3-"):
        assert _table_and_walk_calls(parse_gauss_code(kinked)) == _table_and_walk_calls(base), kinked


def _kinked(rng, G):
    """``G`` with a kink and a chord enclosing a kink put into random gaps of its circles."""
    top = max(G.chord_ids(), default=0)
    circles = [list(circle) for circle in G.circles]
    extras = ([(top + 1, True), (top + 1, False)],
              [(top + 2, False), (top + 3, False), (top + 3, True), (top + 2, True)])
    for extra in extras:
        circle = rng.choice(circles)
        at = rng.randint(0, len(circle))
        circle[at:at] = extra
    return make_diagram(circles, dict(G.signs) | {top + 1: 1, top + 2: -1, top + 3: 1})


def test_walk_matches_mask_walk_at_small_bounds():
    # A full subset scans only its own endpoints; kinks never enter a walk.
    rng = random.Random(97)
    diagrams = [random_knot_diagram(rng.randint(5, 10), rng) for _ in range(5)]
    diagrams += [random_link_diagram(rng.randint(3, 8), rng) for _ in range(5)]
    diagrams += [_kinked(rng, G) for G in list(diagrams)]
    for G in diagrams:
        _assert_walk_matches_mask_walk(G, (1, 2, 3))


def _relabeled_word(G, shift):
    """The endpoint word of the knot ``G`` with each chord ``c`` renamed ``c + shift``."""
    return [(chord + shift, is_head) for chord, is_head in G.circles[0]]


def _random_split_link(k, rng):
    """A random two-circle diagram whose chords need not join the circles: one draw of
    ``random_link_diagram``, which would draw again when none does."""
    slots, signs = _random_chords(k, rng)
    split = rng.randint(0, 2 * k)
    return make_diagram([slots[:split], slots[split:]], signs)


def _split_diagrams(rng):
    """Layouts with no one-component subset, each with a chord on its first circle: two circles
    no chord joins, three circles of which one (first, middle or last) is isolated or empty, and
    the smoothings of knot chords that interleave no other chord."""
    out = []
    for _ in range(20):
        A, B = random_knot_diagram(rng.randint(1, 6), rng), random_knot_diagram(rng.randint(0, 6), rng)
        out.append(make_diagram([A.circles[0], _relabeled_word(B, 10)], dict(A.signs) | {c + 10: s for c, s in B.signs}))
    while len(out) < 40:
        G = _random_split_link(rng.randint(1, 6), rng)
        if G.circles[0] and not connecting_chords(G):
            out.append(G)
    for _ in range(30):
        L, K = random_link_diagram(rng.randint(1, 7), rng), random_knot_diagram(rng.randint(0, 4), rng)
        at = rng.randint(0, 2)
        circles = list(L.circles)
        circles.insert(at, _relabeled_word(K, 10))
        if circles[0]:
            out.append(make_diagram(circles, dict(L.signs) | {c + 10: s for c, s in K.signs}))
    while len(out) < 110:
        G = random_knot_diagram(rng.randint(2, 9), rng)
        word = G.circles[0]
        for chord in G.chord_ids():
            a, b = sorted(pos for pos, (c, _) in enumerate(word) if c == chord)
            inside = [c for c, _ in word[a + 1 : b]]
            if all(inside.count(c) == 2 for c in inside) and (a, b) != (0, len(word) - 1):
                out.append(smooth(G, chord))  # it interleaves nothing and leaves chords on the first circle
    return out


def test_split_layouts_match_mask_walk_without_walking():
    # One walk must visit every circle, so when the chords do not join the circles the search
    # returns at once: no branch, where a cut reading only the first circle's chords walks on.
    rng = random.Random(83)
    for G in _split_diagrams(rng):
        assert G.num_circles > 1 and G.circles[0], str(G)
        layout, signs = _endpoints(G)
        n = G.num_chords
        assert list(mask_qualifying_subsets(layout, range(n + 1))) == [], str(G)
        assert mask_crossing_change_subsets(layout) == ([[] for _ in range(n)], [[] for _ in range(n)]), str(G)
        for max_size in (1, 2, n):
            assert _result_and_walk_calls(lambda: _walks(layout, max_size)) == ([], 0), str(G)
        assert _result_and_walk_calls(lambda: _walks(layout, n, budget=1)) == ([], 0), str(G)
        tables = _crossing_change_tables(layout, signs, range(n))
        assert tables == {i: {} for i in range(n)}, str(G)
        assert _table_and_walk_calls(G) == ({}, 0), str(G)
