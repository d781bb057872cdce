"""The mask walk that classified chord subsets before the walk-guided search.

It enumerates every chord subset of the right parity and runs the jump
traversal over the bits of the subset's endpoint mask, so its cost is
2^(n-1) walks whatever the diagram.  It is kept here, unchanged, as the
reference that ``arrows._walks`` must agree with on every subset that adds
to a sum.  Besides the ascending and descending subsets it yields the first
one-component subset of each size, which may be neither.

It reads a *layout*, ``(tails, heads, bounds)`` (:func:`layout`), and its
subsets come as ``(subset, ascending, descending)`` triples of chord
indices.  ``arrows._walks`` reads endpoint words and reports position masks
``(taken, first)``; :func:`decoded` turns those into ``(subset,
tails_first)`` chord tuples, checking that the masks are well formed, and
every test that reads the walk's subsets reads them through it.
:func:`walk_triples` gives them as this module's triples, and
:func:`signed_sums` and :func:`skein_difference` build the reference tables.
"""

import itertools

from vknot.arrows import _walks


def layout(circles, chords):
    """Integer endpoint positions ``(tails, heads, bounds)`` of the endpoint words ``circles``.

    The circles are laid end to end; chord ``i`` (the ``i``-th of
    ``chords``) has its tail at ``tails[i]`` and its head at ``heads[i]``,
    and ``bounds`` holds each circle's first position, then the total.
    """
    tails, heads = {}, {}
    bounds = [0]
    for circle in circles:
        for pos, (chord, is_head) in enumerate(circle, start=bounds[-1]):
            (heads if is_head else tails)[chord] = pos
        bounds.append(bounds[-1] + len(circle))
    return [tails[c] for c in chords], [heads[c] for c in chords], bounds


def endpoints(diagram):
    """``(layout, signs)`` of a diagram, chords in ``chord_ids`` order."""
    return layout(diagram.circles, diagram.chord_ids()), [s for _, s in diagram.signs]


def layout_words(layout):
    """The endpoint words of ``layout``, chord ``i`` labelled ``i``."""
    tails, heads, bounds = layout
    slots = [None] * bounds[-1]
    for i, (t, h) in enumerate(zip(tails, heads)):
        slots[t], slots[h] = (i, False), (i, True)
    return tuple(tuple(slots[a:b]) for a, b in zip(bounds, bounds[1:]))


def decoded(circles, walked):
    """``(subset, tails_first)`` chord tuples, each sorted, of the ``(taken, first)`` position masks
    of ``arrows._walks(circles, ...)``.

    ``taken`` must hold both endpoints of each chord of ``subset`` and no
    other position, and ``first`` only tails of chords of ``subset``.
    """
    ends = {}
    for p, (chord, is_head) in enumerate(itertools.chain.from_iterable(circles)):
        ends.setdefault(chord, [0, 0])[is_head] = 1 << p
    out = []
    for taken, first in walked:
        subset = tuple(sorted(chord for chord, (t, h) in ends.items() if taken & (t | h)))
        tails_first = tuple(chord for chord in subset if first & ends[chord][0])
        assert taken == sum([t | h for chord, (t, h) in ends.items() if chord in subset]), (circles, taken)
        assert first == sum([ends[chord][0] for chord in tails_first]), (circles, taken, first)
        out.append((subset, tails_first))
    return out


def chord_walks(layout, max_size, budget=0):
    """``arrows._walks`` of the words of ``layout`` (:func:`layout_words`), :func:`decoded` to chord
    indices."""
    words = layout_words(layout)
    return decoded(words, _walks(words, max_size, budget))


def crossing_change_lists(layout, max_size):
    """``(same, switched)`` from the budget-1 :func:`chord_walks`, as :func:`_crossing_change_subsets`
    lists them: at chord index ``i``, the subsets holding ``i`` that count in D and in D^i."""
    same, switched = [[] for _ in layout[0]], [[] for _ in layout[0]]
    for subset, first in chord_walks(layout, max_size, budget=1):
        for i in subset:  # t: the chords first reached tail-first in D, then in D^i
            for found, t in ((same, len(first)), (switched, len(first) + (-1 if i in first else 1))):
                if t in (0, len(subset)):
                    found[i].append((subset, not t, t == len(subset)))
    return same, switched


def walk_triples(layout, max_size):
    """``(subset, ascending, descending)`` for each subset of :func:`chord_walks` with budget 0."""
    return [(subset, not first, len(first) == len(subset)) for subset, first in chord_walks(layout, max_size)]


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
