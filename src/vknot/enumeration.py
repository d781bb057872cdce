"""Exhaustive and randomized generation of based Gauss diagrams."""

from __future__ import annotations

import itertools

from .diagram import _first_occurrence, _require_knot, _rotations, make_diagram


def raw_diagram_count(k):
    """(2k-1)!! * 4^k, the unreduced one-circle census size."""
    total = 4**k
    for odd in range(1, 2 * k, 2):
        total *= odd
    return total


def _matchings(items, opposite_parity=False):
    """Each perfect matching of ``items``; with ``opposite_parity`` each pair joins an even and an odd item."""
    if not items:
        yield ()
        return
    first = items[0]
    for i in range(1, len(items)):
        if opposite_parity and (items[i] - first) % 2 == 0:
            continue
        pair = (first, items[i])
        rest = items[1:i] + items[i + 1 :]
        for sub in _matchings(rest, opposite_parity):
            yield (pair,) + sub


def _words(k, colorable=False):
    """Each one-circle endpoint word with ``k`` chords, in census order: every matching of the
    ``2k`` slots, then every orientation.  Chord ``c`` is the ``c``-th pair, which numbers the
    chords 1..k by first occurrence.  With ``colorable`` only the matchings that pair each even
    slot with an odd one, which are the checkerboard colorable words
    (:func:`~vknot.diagram._ends_of_opposite_parity`), in the same order."""
    for matching in _matchings(tuple(range(2 * k)), colorable):
        for heads in itertools.product((False, True), repeat=k):
            slots = [None] * (2 * k)
            for chord, ((a, b), head_at_a) in enumerate(zip(matching, heads), start=1):
                slots[a] = (chord, head_at_a)
                slots[b] = (chord, not head_at_a)
            yield tuple(slots)


def _census_key(word):
    """The order :func:`_words` emits one-circle words in: each chord's partner slot, then each
    chord's orientation, chords taken in order of first occurrence (so their labels play no part)."""
    ends = {}
    for pos, (chord, is_head) in enumerate(word):
        ends.setdefault(chord, []).append((pos, is_head))
    return tuple(second for _, (second, _) in ends.values()), tuple(head for (_, head), _ in ends.values())


def _canonical_sign_vectors(word, vectors):
    """The sign vectors of ``vectors`` whose diagram on the census word ``word`` comes first in
    census order among its rotations: none unless ``word`` is least among its rotations under
    :func:`_census_key`, else those that no rotation mapping ``word`` to itself takes to an
    earlier vector (+1 before -1)."""
    key = _census_key(word)
    symmetries = []
    for rotated in _rotations(word):
        rotated_key = _census_key(rotated)
        if rotated_key < key:
            return []
        if rotated_key == key:  # the chords in order of their first occurrence in ``rotated``
            symmetries.append([c - 1 for c in _first_occurrence(c for c, _ in rotated)])
    # +1 comes before -1, so an earlier vector is a larger tuple
    return [signs for signs in vectors
            if all(signs >= tuple(signs[i] for i in source) for source in symmetries)]


def enumerate_structures(max_chords, colorable=False):
    """Each unsigned oriented one-circle structure with at most ``max_chords`` chords.

    Yields ``(word, sign_vectors)``.  ``word`` is the endpoint word
    (chord matching and orientation) with chords numbered 1..k in order of
    first occurrence; ``sign_vectors`` lists all 2^k sign tuples (chord ``c``
    has sign ``signs[c - 1]``) in the order :func:`enumerate_diagrams`
    yields their diagrams.  With ``colorable=True`` only the checkerboard
    colorable structures are generated.
    """
    for k in range(max_chords + 1):
        vectors = list(itertools.product((1, -1), repeat=k))
        for word in _words(k, colorable):
            yield word, vectors


def enumerate_diagrams(k, canonical=False):
    """All one-circle based diagrams with exactly ``k`` chords.

    Yields every combination of endpoint pairing, chord orientation and
    signs, signs varying fastest; with ``canonical=True`` only the first
    diagram of each rotation class (basepoint placement), decided on each
    word alone by :func:`_canonical_sign_vectors`.
    """
    if k < 0:
        raise ValueError("chord count must be >= 0")
    vectors = list(itertools.product((1, -1), repeat=k))
    for word in _words(k):
        for signs in _canonical_sign_vectors(word, vectors) if canonical else vectors:
            yield make_diagram([word], zip(range(1, k + 1), signs))


def enumerate_all_diagrams(max_chords):
    for k in range(max_chords + 1):
        yield from enumerate_diagrams(k)


def rotation_canonical_key(diagram):
    """Minimal canonical key over basepoint rotations of a one-circle diagram."""
    _require_knot(diagram, "a rotation key")
    sign = dict(diagram.signs)
    keys = []
    for rotated in _rotations(diagram.circles[0]):
        label = _first_occurrence(c for c, _ in rotated)  # as ``canonical_key`` numbers them
        keys.append((tuple([(label[c], h, sign[c]) for c, h in rotated]),))
    return min(keys)


def _random_chords(k, rng):
    """``(slots, signs)``: ``k`` chords with random endpoint slots among ``2k``,
    random directions and random signs."""
    order = list(range(2 * k))
    rng.shuffle(order)
    slots = [None] * (2 * k)
    signs = {}
    for chord in range(1, k + 1):
        a, b = order[2 * chord - 2], order[2 * chord - 1]
        head_at_a = rng.random() < 0.5
        slots[a] = (chord, head_at_a)
        slots[b] = (chord, not head_at_a)
        signs[chord] = rng.choice((1, -1))
    return slots, signs


def random_knot_diagram(k, rng):
    """Uniform-ish random one-circle diagram with ``k`` chords."""
    slots, signs = _random_chords(k, rng)
    return make_diagram([slots], signs)


def random_link_diagram(k, rng, require_connecting=True):
    """Random two-circle diagram with ``k`` chords.

    With ``require_connecting`` at least one chord joins the circles, so the
    diagram has a crossing whose smoothing merges the components.
    """
    if k < 1:
        raise ValueError("a two-circle diagram needs at least one chord")
    while True:
        slots, signs = _random_chords(k, rng)
        split = rng.randint(0, 2 * k)
        diagram = make_diagram([slots[:split], slots[split:]], signs)
        if not require_connecting or connecting_chords(diagram):
            return diagram


def connecting_chords(diagram):
    """Chords whose endpoints lie on two different circles."""
    return [
        c
        for c, _ in diagram.signs
        if diagram.tail(c)[0] != diagram.head(c)[0]
    ]
