"""Seeded benchmark inputs, emitted as signed Gauss-code strings.

Everything here depends only on the seed and the standard library, so a
change to vknot cannot change what the benchmark feeds it.

The work of the pairings is set by where each chord's two endpoints sit on
the circle, not by which end is the head or by the sign: the jump traversal
jumps to a chord's other endpoint either way.  So each size has one fixed
chord layout (a braid's generator sequence, or a virtual knot's chord
matching), and the seed draws every crossing's over/under and sign on it.
Inputs then differ from seed to seed while their cost barely does.
"""

from __future__ import annotations

import random

# One classical braid closure per crossing count and one random virtual
# knot per chord count in each table pass.
TABLE_BRAID_CROSSINGS = tuple(range(10, 17))
TABLE_VIRTUAL_CHORDS = tuple(range(10, 16))
# Crossing counts of the large classical knots.  The work per knot is cubic,
# and few sizes let each knot be timed several times in a run.
LARGE_CROSSINGS = (80, 120, 160, 200, 250)


def braid_closure_code(word, strands):
    """Signed Gauss code of the closure of a braid word, or None for a link.

    Letter ``i`` crosses position i over position i+1 (1-based) with sign +,
    letter ``-i`` crosses it under with sign -.  The code starts where
    strand 0 enters the braid.
    """
    at = list(range(strands))
    passages = [[] for _ in range(strands)]
    for label, letter in enumerate(word, start=1):
        i = abs(letter) - 1
        a, b = at[i], at[i + 1]
        sign = "+" if letter > 0 else "-"
        over, under = (a, b) if letter > 0 else (b, a)
        passages[over].append("O%d%s" % (label, sign))
        passages[under].append("U%d%s" % (label, sign))
        at[i], at[i + 1] = b, a
    end_position = {strand: pos for pos, strand in enumerate(at)}
    order = [0]
    while len(order) < strands:
        nxt = end_position[order[-1]]
        if nxt == 0:
            return None
        order.append(nxt)
    if end_position[order[-1]] != 0:
        return None
    return "".join("".join(passages[s]) for s in order)


def knot_braid_generators(rng, crossings, strands, max_tries=10000):
    """Random generator sequence (1-based) of a braid that closes to a knot.

    The closure is one component only when the braid permutation is a
    ``strands``-cycle, whose parity is that of ``strands - 1``; a word of the
    other parity can never close to a knot, so it is refused up front
    instead of being retried forever.  Signs do not change the permutation.
    """
    if strands < 2:
        raise ValueError("a braid needs at least 2 strands")
    if crossings % 2 != (strands - 1) % 2:
        raise ValueError(
            "a %d-crossing word on %d strands never closes to a knot"
            % (crossings, strands)
        )
    for _ in range(max_tries):
        word = [rng.randint(1, strands - 1) for _ in range(crossings)]
        if braid_closure_code(word, strands) is not None:
            return word
    raise RuntimeError("no knot closure found in %d tries" % max_tries)


def strands_for(crossings, fewest):
    """``fewest`` or ``fewest + 1`` strands, whichever lets ``crossings`` close."""
    return fewest if crossings % 2 == (fewest - 1) % 2 else fewest + 1


def seeded_braid_knot(rng, crossings, fewest_strands):
    """Knot closure on the fixed braid layout of its size, signs from ``rng``."""
    strands = strands_for(crossings, fewest_strands)
    layout = random.Random("braid:%d:%d" % (crossings, strands))
    word = knot_braid_generators(layout, crossings, strands)
    return braid_closure_code([rng.choice((1, -1)) * g for g in word], strands)


def seeded_virtual_knot(rng, chords):
    """One-circle code on the fixed chord matching of its size.

    ``rng`` draws each chord's direction and sign.
    """
    slots = list(range(2 * chords))
    random.Random("virtual:%d" % chords).shuffle(slots)
    tokens = [None] * (2 * chords)
    for label in range(1, chords + 1):
        tail, head = slots[2 * label - 2], slots[2 * label - 1]
        if rng.random() < 0.5:
            tail, head = head, tail
        sign = rng.choice("+-")
        tokens[tail] = "O%d%s" % (label, sign)
        tokens[head] = "U%d%s" % (label, sign)
    return "".join(tokens)


def table_inputs(seed):
    """(braid closure codes, virtual knot codes) for the table workload."""
    rng = random.Random("table:%d" % seed)
    braids = [seeded_braid_knot(rng, n, 3) for n in TABLE_BRAID_CROSSINGS]
    virtuals = [seeded_virtual_knot(rng, n) for n in TABLE_VIRTUAL_CHORDS]
    return braids, virtuals


def large_inputs(seed):
    """Classical braid-closure codes for the large workload."""
    rng = random.Random("large:%d" % seed)
    return [seeded_braid_knot(rng, n, 5) for n in LARGE_CROSSINGS]
