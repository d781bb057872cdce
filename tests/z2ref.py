"""The z^2 pair lists that came before the bitmask sweep in ``vknot.arrows``.

``z2_pairs`` compares the four endpoint positions of every chord pair, O(n^2)
on a knot, and lists the pairs ``(x, y)`` of chord indices that the
ascending and descending z^2 pairings count; ``z2_sums`` sums s_x * s_y
over each list.  They are kept here, unchanged apart from their names and
the link case reading the subset walk through ``maskwalk.walk_triples``, as
the reference that ``arrows._z2_pairs`` and ``arrows._z2_sums`` must agree
with.
"""

import itertools

from maskwalk import walk_triples


def z2_pairs(layout):
    """The chord-index pairs counted by the ascending and descending z^2 pairings.

    On one circle the degree-2 Conway sets are ``U1O2O1U2`` (ascending) and
    ``O1U2U1O2`` (descending), so c2 is a Polyak-Viro Gauss-diagram
    formula: s_x * s_y summed over the chord pairs with
    h_x < t_y < t_x < h_y, respectively t_x < h_y < h_x < t_y.
    """
    tails, heads, bounds = layout
    if len(bounds) != 2:
        pairs = [(s, a, d) for s, a, d in walk_triples(layout, 2) if len(s) == 2]
        return [s for s, a, _ in pairs if a], [s for s, _, d in pairs if d]
    asc, des = [], []
    chords = list(zip(itertools.count(), tails, heads))
    for x, tx, hx in chords:
        if hx < tx:
            asc.extend([(x, y) for y, t, h in chords if hx < t < tx < h])
        else:
            des.extend([(x, y) for y, t, h in chords if tx < h < hx < t])
    return asc, des


def z2_sums(pair_lists, signs):
    """``(ascending, descending)`` z^2 pairings: s_x * s_y summed over each list."""
    return tuple(sum(signs[x] * signs[y] for x, y in pairs) for pairs in pair_lists)
