"""The mask walk that classified chord subsets before the walk-guided search.

It enumerates every chord subset of the right parity and runs the jump
traversal over the bits of the subset's endpoint mask, so its cost is
2^(n-1) walks whatever the diagram.  It is kept here, unchanged, as the
reference that ``arrows._walks`` must agree with on every subset that adds
to a sum.  Besides the ascending and descending subsets it yields the first
one-component subset of each size, which may be neither.

Its subsets come as ``(subset, ascending, descending)`` triples.
:func:`walk_triples` reads the ``(subset, tails_first)`` pairs of the walk
under test as such triples, and :func:`signed_sums` and
:func:`skein_difference` build the reference tables from them.
"""

import itertools

from vknot.arrows import _walks


def walk_triples(layout, max_size):
    """``(subset, ascending, descending)`` for each subset of ``arrows._walks(layout, max_size)``."""
    return [(subset, not first, len(first) == len(subset)) for subset, first in _walks(layout, max_size)]


def signed_sums(classified, signs):
    """``{size: (ascending, descending)}`` signed sums over ``(subset, ascending, descending)``
    triples, chord index ``i`` having sign ``signs[i]``; a size whose two sums are 0 is not a key."""
    sums = {}
    for subset, asc, des in classified:
        prod = 1
        for i in subset:
            prod *= signs[i]
        entry = sums.setdefault(len(subset), [0, 0])
        entry[0] += prod if asc else 0
        entry[1] += prod if des else 0
    return {size: tuple(pair) for size, pair in sorted(sums.items()) if any(pair)}


def skein_difference(table, switched, sign):
    """``sign * (table - switched)`` of two tables ``{size: (ascending, descending)}``: with
    ``table`` that of D over the subsets holding chord c, ``switched`` that of the crossing
    change D^c and ``sign`` the sign of c in D, the skein difference T(D+) - T(D-); a size whose
    two differences are 0 is not a key."""
    out = {}
    for size in sorted(set(table) | set(switched)):
        pair = tuple(sign * (a - b) for a, b in zip(table.get(size, (0, 0)), switched.get(size, (0, 0))))
        if any(pair):
            out[size] = pair
    return out

def _walk_setup(layout):
    """The tables of a mask walk over ``layout``: ``partner``, ``role`` (2 at a
    tail, else 1), ``circles``, ``wrap``, ``above`` and the chords' ``bits``."""
    tails, heads, bounds = layout
    partner, role = [0] * bounds[-1], [1] * bounds[-1]
    for t, h in zip(tails, heads):
        partner[t], partner[h] = h, t
        role[t] = 2
    circles = [(1 << b) - (1 << a) for a, b in zip(bounds, bounds[1:])]
    wrap = [circle for circle, a, b in zip(circles, bounds, bounds[1:]) for _ in range(a, b)]
    above = [circle & -(2 << q) for q, circle in enumerate(wrap)]
    return partner, role, circles, wrap, above, [(1 << t) | (1 << h) for t, h in zip(tails, heads)]


def _qualifying_subsets(layout, sizes, required=None):
    """Yield ``(subset, ascending, descending)`` for the subsets that can count.

    ``subset`` is a tuple of chord indices.  Only subsets of the sizes in
    ``sizes`` that hold chord index ``required`` (if set) are enumerated.  A
    one-component subset on c circles has c - 1 + 2j chords (its traversal
    is one cycle, an odd permutation), so other sizes are skipped.  Signs
    are never read, so one pass serves every sign vector of the layout.

    The jump traversal walks the bits of the subset's endpoint mask.  Only
    one-component subsets that are ascending or descending are yielded,
    plus the first one-component subset of each size (so that the size is
    a key of the table): after it, a walk that has reached one chord
    head-first and another tail-first stops.
    """
    partner, role, circles, wrap, above, bits = _walk_setup(layout)
    base = () if required is None else (required,)
    base_mask = sum(bits[i] for i in base)
    others = [i for i in range(len(bits)) if i != required]
    other_bits = [bits[i] for i in others]
    for size in sizes:
        if size < len(base) or size % 2 != (len(circles) - 1) % 2:
            continue
        if size == 0:
            if len(circles) == 1:
                yield (), True, True
            continue
        seen = False
        pick = size - len(base)
        for rest, rest_bits in zip(itertools.combinations(others, pick),
                                   itertools.combinations(other_bits, pick)):
            mask = base_mask + sum(rest_bits)  # chords' bits are disjoint
            if len(circles) > 1 and not all([mask & circle for circle in circles]):
                continue  # a circle carries no endpoint of the subset
            start = p = (mask & -mask).bit_length() - 1
            reached = roles = 0
            while True:
                q = partner[p]
                if not reached >> q & 1:
                    roles |= role[p]
                    if roles == 3 and seen:
                        break
                reached |= 1 << p
                p = mask & above[q] or mask & wrap[q]
                p = (p & -p).bit_length() - 1
                if p == start:
                    if reached == mask:
                        seen = True
                        yield base + rest, not roles & 2, not roles & 1
                    break


def _crossing_change_subsets(layout):
    """``(same, switched)``: at chord index ``i``, the subsets holding ``i`` that count in D and in D^i.

    Entries are ``(subset, ascending, descending)``; signs are never read.  D^i, the crossing
    change at chord ``i``, swaps its tail and head in place, so each walk keeps its path and only
    chord ``i``'s first-reached role flips: a subset is ascending in D when no chord is first
    reached tail-first, and in D^i when ``i`` is the only one (descending likewise).  The walk is
    :func:`_qualifying_subsets`'s, kept apart because recording chords there slows every table.
    """
    partner, role, circles, wrap, above, bits = _walk_setup(layout)
    same, switched = [[] for _ in bits], [[] for _ in bits]
    for size in range(1 + len(circles) % 2, len(bits) + 1, 2):
        for subset, subset_bits in zip(itertools.combinations(range(len(bits)), size),
                                       itertools.combinations(bits, size)):
            mask = sum(subset_bits)
            if len(circles) > 1 and not all([mask & circle for circle in circles]):
                continue
            start = p = (mask & -mask).bit_length() - 1
            reached = tails = heads = 0  # tails, heads: where chords are first reached
            while True:
                q = partner[p]
                if not reached >> q & 1:
                    if role[p] == 2:
                        tails |= 1 << p
                    else:
                        heads |= 1 << p
                    if tails & (tails - 1) and heads & (heads - 1):
                        break  # no crossing change makes it ascending or descending
                reached |= 1 << p
                p = mask & above[q] or mask & wrap[q]
                p = (p & -p).bit_length() - 1
                if p == start:
                    if reached == mask:
                        for i in subset:
                            flip = (tails | heads) & bits[i]
                            for found, t, h in ((same, tails, heads), (switched, tails ^ flip, heads ^ flip)):
                                if not t or not h:
                                    found[i].append((subset, not t, not h))
                    break
    return same, switched
