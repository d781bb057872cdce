"""Exhaustive and randomized generation of based Gauss diagrams."""

from __future__ import annotations

import itertools

from .diagram import _first_occurrence, make_diagram


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


def _signed_structures(k, canonical, colorable=False):
    """``(word, sign_vectors)`` of each structure with ``k`` chords, in census order."""
    vectors = list(itertools.product((1, -1), repeat=k))
    seen = set()
    for word in _words(k, colorable):
        if not canonical:
            yield word, vectors
            continue
        rotations = _rotations(word)
        kept = []
        for signs in vectors:
            key = _rotation_key(rotations, dict(zip(range(1, k + 1), signs)))
            if key not in seen:
                seen.add(key)
                kept.append(signs)
        yield word, kept


def enumerate_structures(max_chords, canonical=False, colorable=False):
    """Each unsigned oriented one-circle structure with at most ``max_chords`` chords.

    Yields ``(word, sign_vectors)``.  ``word`` is the endpoint word
    (chord matching and orientation) with chords numbered 1..k in order of
    first occurrence; ``sign_vectors`` lists the sign tuples (chord ``c``
    has sign ``signs[c - 1]``) whose diagrams :func:`enumerate_diagrams`
    yields for it, in the same order.  That is all 2^k of them, or with
    ``canonical=True`` those whose diagram is the first of its rotation
    class.  With ``colorable=True`` only the checkerboard colorable
    structures are generated, with the same sign vectors: a rotation keeps
    the parity of each chord's two ends apart, so a rotation class is
    colorable or not as a whole.
    """
    for k in range(max_chords + 1):
        yield from _signed_structures(k, canonical, colorable)


def enumerate_diagrams(k, canonical=False):
    """All one-circle based diagrams with exactly ``k`` chords.

    Yields every combination of endpoint pairing, chord orientation and
    signs, signs varying fastest; with ``canonical=True`` diagrams equal up
    to rotation (basepoint placement) are emitted once.
    """
    if k < 0:
        raise ValueError("chord count must be >= 0")
    for word, vectors in _signed_structures(k, canonical):
        for signs in vectors:
            yield make_diagram([word], zip(range(1, k + 1), signs))


def enumerate_all_diagrams(max_chords, canonical=False):
    for k in range(max_chords + 1):
        yield from enumerate_diagrams(k, canonical=canonical)


def _rotations(word):
    """Each rotation of a one-circle word as ``(label, is_head, chord)`` slots.

    Labels number the chords by first occurrence, as ``canonical_key`` does.
    """
    out = []
    for r in range(len(word)):
        rotated = word[r:] + word[:r]
        label = _first_occurrence(c for c, _ in rotated)
        out.append([(label[c], h, c) for c, h in rotated])
    return out


def _rotation_key(rotations, sign):
    """:func:`rotation_canonical_key` of the word of ``rotations``, chord ``c`` of sign ``sign[c]``."""
    keys = ((tuple([(label, h, sign[c]) for label, h, c in slots]),) for slots in rotations)
    return min(keys, default=((),))


def rotation_canonical_key(diagram):
    """Minimal canonical key over basepoint rotations of a one-circle diagram."""
    return _rotation_key(_rotations(diagram.circles[0]), dict(diagram.signs))


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
