"""Reidemeister moves on based Gauss diagrams.

The generators below produce every diagram reachable by a single move of
each kind (plus basepoint shifts).  R3 configurations are not hand-listed:
they are computed once, on first use, from an explicit planar model of three
directed lines in general position, which guarantees that every emitted slide
is realizable, and a slide is one lookup of its local key among them.
Moves whose local picture would have to slide across a basepoint are skipped;
this only thins the generated neighbor set, never invalidates it.
"""

from __future__ import annotations

import functools
import itertools
import random

from .diagram import BasedGaussDiagram, shift_basepoint


def _fresh_ids(diagram, count):
    start = max((c for c, _ in diagram.signs), default=0) + 1
    return list(range(start, start + count))


def _with_circles(diagram, replacements, extra_signs=(), drop=()):
    circles = list(diagram.circles)
    for ci, word in replacements.items():
        circles[ci] = tuple(word)
    signs = tuple(
        sorted([(c, s) for c, s in diagram.signs if c not in drop] + list(extra_signs))
    )
    return BasedGaussDiagram(tuple(circles), signs)


# -- R1 ----------------------------------------------------------------------


def r1_insertions(diagram):
    out = []
    for ci, word in enumerate(diagram.circles):
        (new,) = _fresh_ids(diagram, 1)
        for pos in range(len(word) + 1):
            for head_first in (False, True):
                for sign in (1, -1):
                    kink = [(new, head_first), (new, not head_first)]
                    moved = list(word[:pos]) + kink + list(word[pos:])
                    out.append(_with_circles(diagram, {ci: moved}, [(new, sign)]))
    return out


def r1_deletions(diagram):
    out = []
    for ci, word in enumerate(diagram.circles):
        m = len(word)
        # a kink needs two distinct positions: on a circle of one endpoint
        # that endpoint is its own successor, and on a circle of two the
        # kink read at position 1 across the wrap is the one read at 0
        for pos in range(m if m > 2 else m - 1):
            chord, _ = word[pos]
            partner, _ = word[(pos + 1) % m]
            if chord == partner:
                moved = [e for i, e in enumerate(word) if i not in (pos, (pos + 1) % m)]
                out.append(_with_circles(diagram, {ci: moved}, drop={chord}))
    return out


# -- R2 ----------------------------------------------------------------------


def r2_insertions(diagram):
    """Insert a canceling pair of chords: tails together on the over strand,
    heads together on the under strand, opposite signs.  Parallel strands give
    the interleaved head order, antiparallel the nested one."""
    out = []
    sites = [
        (ci, pos)
        for ci, word in enumerate(diagram.circles)
        for pos in range(len(word) + 1)
    ]
    c, d = _fresh_ids(diagram, 2)
    tails = [(c, False), (d, False)]
    for (ci, gi), (cj, gj) in itertools.product(sites, repeat=2):
        for nested, sign in itertools.product((False, True), (1, -1)):
            heads = [(d, True), (c, True)] if nested else [(c, True), (d, True)]
            circles = [list(word) for word in diagram.circles]
            # the later site first, so the earlier one keeps its position; in
            # one gap the heads go in first and the tails land in front of them
            for ck, gk, block in sorted(
                [(cj, gj, heads), (ci, gi, tails)], key=lambda site: site[:2], reverse=True
            ):
                circles[ck][gk:gk] = block
            out.append(_with_circles(diagram, dict(enumerate(circles)), [(c, sign), (d, -sign)]))
    return out


def _cyclic_next(diagram, ci, pos):
    word = diagram.circles[ci]
    return word[(pos + 1) % len(word)]


def r2_deletions(diagram):
    out = []
    for (c, sc), (d, sd) in itertools.permutations(diagram.signs, 2):
        if sc != -sd:
            continue
        tci, tpc = diagram.tail(c)
        tcj, tpd = diagram.tail(d)
        if tci != tcj or _cyclic_next(diagram, tci, tpc) != (d, False):
            continue
        hci, hpc = diagram.head(c)
        hcj, hpd = diagram.head(d)
        if hci != hcj:
            continue
        parallel = _cyclic_next(diagram, hci, hpc) == (d, True)
        nested = _cyclic_next(diagram, hci, hpd) == (c, True)
        if not (parallel or nested):
            continue
        circles = [
            tuple(e for e in word if e[0] not in (c, d)) for word in diagram.circles
        ]
        signs = tuple((x, s) for x, s in diagram.signs if x not in (c, d))
        out.append(BasedGaussDiagram(tuple(circles), signs))
    return out


# -- R3 ----------------------------------------------------------------------

_POINTS = {"AB": (0, 0), "AC": (2, 0), "BC": (1, 1)}


def _triangle_configs():
    """Local patterns of a slide move, from three directed lines in the plane.

    Strand A runs along y=0, B along y=x, C along y=-x+2; each may point
    either way and any of the six height orders is allowed.  A config records,
    per strand, its two crossings in traversal order with over/under flags,
    plus the sign of each crossing.
    """
    configs = set()
    for da, db, dc in itertools.product((1, -1), repeat=3):
        dirs = {"A": (da, 0), "B": (db, db), "C": (dc, -dc)}
        for order in itertools.permutations("ABC"):
            level = {s: i for i, s in enumerate(order)}
            blocks = []
            for s, (dx, dy) in dirs.items():
                crossings = sorted((x for x in _POINTS if s in x),
                                   key=lambda x: _POINTS[x][0] * dx + _POINTS[x][1] * dy)
                blocks.append(tuple((x, level[s] > level[x.replace(s, "")]) for x in crossings))
            signs = []
            for x in _POINTS:
                over, under = sorted(x, key=level.get, reverse=True)
                (ox, oy), (ux, uy) = dirs[over], dirs[under]
                signs.append(1 if ox * uy - oy * ux > 0 else -1)
            configs.add((*blocks, tuple(signs)))
    return tuple(sorted(configs))


def _local_key(ends, sign):
    """``ends``, a list of ``(chord, is_head)`` pairs, with the chords relabeled
    0, 1, ... by first occurrence, and the sign of each label."""
    label = {}
    for chord, _ in ends:
        label.setdefault(chord, len(label))
    return tuple((label[chord], is_head) for chord, is_head in ends), tuple(sign[c] for c in label)


@functools.cache
def _r3_keys():
    """The local key of every :func:`_triangle_configs` pattern, its three
    strands' blocks taken in every order."""
    keys = set()
    for *blocks, signs in _triangle_configs():
        sign = dict(zip(("AB", "AC", "BC"), signs))
        for order in itertools.permutations(blocks):
            ends = [(x, not is_over) for block in order for x, is_over in block]
            keys.add(_local_key(ends, sign))
    return keys


def _adjacent_blocks(diagram):
    """Non-wrapping adjacent endpoint pairs whose two chords differ."""
    blocks = []
    for ci, word in enumerate(diagram.circles):
        for pos in range(len(word) - 1):
            if word[pos][0] != word[pos + 1][0]:
                blocks.append((ci, pos))
    return blocks


def r3_slides(diagram):
    """Swap the endpoints of each three adjacent pairs whose local key is a slide pattern.

    Each chord of a pattern has one head and one tail among the six
    endpoints, so overlapping pairs never match."""
    out = []
    sign = dict(diagram.signs)
    keys = _r3_keys()
    for triple in itertools.combinations(_adjacent_blocks(diagram), 3):
        ends = [e for ci, pos in triple for e in diagram.circles[ci][pos : pos + 2]]
        if _local_key(ends, sign) not in keys:
            continue
        circles = [list(word) for word in diagram.circles]
        for ci, pos in triple:
            circles[ci][pos : pos + 2] = circles[ci][pos + 1], circles[ci][pos]
        out.append(BasedGaussDiagram(tuple(map(tuple, circles)), diagram.signs))
    return out


# -- the full neighbor set ----------------------------------------------------


def basepoint_shifts(diagram):
    out = []
    for ci, word in enumerate(diagram.circles):
        if word:
            out.append(shift_basepoint(diagram, ci, forward=True))
            out.append(shift_basepoint(diagram, ci, forward=False))
    return out


def reidemeister_moves(diagram):
    """Every diagram one R1/R2/R3 move or basepoint shift away."""
    seen = {}
    for moved in itertools.chain(
        r1_insertions(diagram),
        r1_deletions(diagram),
        r2_insertions(diagram),
        r2_deletions(diagram),
        r3_slides(diagram),
        basepoint_shifts(diagram),
    ):
        seen[(moved.circles, moved.signs)] = moved
    return list(seen.values())


def random_reidemeister_walk(diagram, steps, rng=None, max_chords=8):
    """Random walk in the move graph, biased away from growing too large."""
    if rng is None:
        rng = random.Random(0)
    path = [diagram]
    for _ in range(steps):
        current = path[-1]
        shrinking = (
            r1_deletions(current)
            + r2_deletions(current)
            + r3_slides(current)
            + basepoint_shifts(current)
        )
        candidates = list(shrinking)
        if current.num_chords + 2 <= max_chords:
            candidates += r1_insertions(current) + r2_insertions(current)
        elif current.num_chords + 1 <= max_chords:
            candidates += r1_insertions(current)
        if not candidates:
            candidates = [current]
        path.append(rng.choice(candidates))
    return path
