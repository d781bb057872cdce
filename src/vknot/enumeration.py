"""Exhaustive and randomized generation of based Gauss diagrams."""

from __future__ import annotations

import itertools

from .diagram import _closed, _first_occurrence, _renumbered, _require_knot, _rotations, make_diagram


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


def _word(matching, heads):
    """The endpoint word of ``matching`` (pairs of slots, in order of their first slot) with chord
    ``c`` the ``c``-th pair and its head at the pair's first slot where ``heads[c - 1]``."""
    slots = [None] * (2 * len(matching))
    for chord, ((a, b), head_at_a) in enumerate(zip(matching, heads), start=1):
        slots[a] = (chord, head_at_a)
        slots[b] = (chord, not head_at_a)
    return tuple(slots)


def _words(k, colorable=False):
    """Each one-circle endpoint word with ``k`` chords, in census order: every matching of the
    ``2k`` slots, then every orientation.  Chord ``c`` is the ``c``-th pair, which numbers the
    chords 1..k by first occurrence.  With ``colorable`` only the matchings that pair each even
    slot with an odd one, which are the checkerboard colorable words
    (:func:`~vknot.diagram._ends_of_opposite_parity`), in the same order."""
    for matching in _matchings(tuple(range(2 * k)), colorable):
        for heads in itertools.product((False, True), repeat=k):
            yield _word(matching, heads)


def _census_key(word):
    """The order :func:`_words` emits one-circle words in: each chord's partner slot, then each
    chord's orientation, chords taken in order of first occurrence (so their labels play no part)."""
    ends = {}
    for pos, (chord, is_head) in enumerate(word):
        ends.setdefault(chord, []).append((pos, is_head))
    return tuple(second for _, (second, _) in ends.values()), tuple(head for (_, head), _ in ends.values())


def _rotation_orbits(k, colorable=False):
    """Each word of :func:`_words` that is least among its rotations under :func:`_census_key`
    (each renumbered by first occurrence), in census order, with its stabilizer: the shifts ``r``
    whose rotation (:func:`_rotations`) gives the word back, 0 first.  They form a subgroup, so
    the rotation class has 2k / |stabilizer| members, the rotations by 0, 1, ... (one for k = 0).

    Each word is decided alone (orderly generation).  ``gap[p]`` counts the slots from ``p``
    forward to its partner, and a rotation rotates the gaps: the key's partner slots are
    ``p + gap[p]`` wherever that is below 2k.  A matching that some rotation makes smaller is
    dropped with all its orientations, which only the shifts giving the matching back compare,
    and no rotated word is built."""
    n = 2 * k
    for matching in _matchings(tuple(range(n)), colorable):
        gap = [0] * n
        for a, b in matching:
            gap[a], gap[b] = b - a, n + a - b
        if n and min(gap) < gap[0]:  # the first partner slot of some rotation is smaller
            continue
        half = [b for _, b in matching]
        chord_at = {a: c for c, pair in enumerate(matching) for a in pair}
        shifts = []  # (r, the chords in the order word[r:] first meets them, each with whether at its second end)
        for r in range(1, n):
            if gap[r] != gap[0]:
                continue
            rotated = gap[r:] + gap[:r]
            rotated_half = [p + d for p, d in enumerate(rotated) if p + d < n]
            if rotated_half < half:
                break
            if rotated_half == half:
                firsts = [(p + r) % n for p, d in enumerate(rotated) if p + d < n]
                shifts.append((r, [(chord_at[q], q + gap[q] >= n) for q in firsts]))
        else:
            for heads in itertools.product((False, True), repeat=k):
                stabilizer = [0]
                for r, order in shifts:
                    rotated_heads = tuple([heads[c] != second for c, second in order])
                    if rotated_heads < heads:
                        break
                    if rotated_heads == heads:
                        stabilizer.append(r)
                else:
                    yield _word(matching, heads), tuple(stabilizer)


def _canonical_sign_vectors(word, stabilizer, vectors):
    """The sign vectors of ``vectors`` whose diagram on the word ``word``, least of its rotation
    class, comes first in census order among its rotations: those that no shift of ``stabilizer``
    (:func:`_rotation_orbits`) takes to an earlier vector (+1 before -1)."""
    # the chords in order of their first occurrence in each rotation mapping ``word`` to itself
    symmetries = [[c - 1 for c in _renumbered(_rotations(word)[r])[1]] for r in stabilizer[1:]]
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


def enumerate_diagrams(k, canonical=False, colorable=False):
    """All one-circle based diagrams with exactly ``k`` chords.

    Yields every combination of endpoint pairing, chord orientation and
    signs, signs varying fastest; with ``canonical=True`` only the first
    diagram of each rotation class (basepoint placement), decided on each
    word alone by :func:`_rotation_orbits` and :func:`_canonical_sign_vectors`.  With ``colorable=True``
    only the checkerboard colorable diagrams, in the same order.
    """
    if k < 0:
        raise ValueError("chord count must be >= 0")
    vectors = list(itertools.product((1, -1), repeat=k))
    if canonical:
        classes = ((word, _canonical_sign_vectors(word, stabilizer, vectors))
                   for word, stabilizer in _rotation_orbits(k, colorable))
    else:
        classes = zip(_words(k, colorable), itertools.repeat(vectors))
    for word, signs_of_word in classes:
        for signs in signs_of_word:
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


def _random_link_words(k, rng):
    """``(circles, signs)`` of :func:`random_link_diagram`, drawn by the same calls on ``rng``."""
    if k < 1:
        raise ValueError("a two-circle diagram needs at least one chord")
    while True:
        slots, signs = _random_chords(k, rng)
        split = rng.randint(0, 2 * k)
        if not _closed(slots[:split]):  # a chord joins the circles
            return (slots[:split], slots[split:]), signs


def random_link_diagram(k, rng):
    """Random two-circle diagram with ``k`` chords, at least one of them joining the circles,
    so the diagram has a crossing whose smoothing merges the components."""
    return make_diagram(*_random_link_words(k, rng))


def connecting_chords(diagram):
    """Chords whose endpoints lie on two different circles."""
    return [
        c
        for c, _ in diagram.signs
        if diagram.tail(c)[0] != diagram.head(c)[0]
    ]
