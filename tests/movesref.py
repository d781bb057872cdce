"""The R2 and R3 generators that came before the pattern lookup in ``vknot.moves``.

``r3_slides`` tries, for every triple of adjacent endpoint pairs, each of
the six assignments of the pairs to the strands of the planar model and
each of its configurations, matching them endpoint by endpoint;
``r2_insertions`` builds each candidate in a same-circle or a two-circle
branch.  They are kept here, unchanged, as the reference that the lookup
and the one-splice insertion must agree with, order included.
"""

import itertools

from vknot.diagram import BasedGaussDiagram


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


def r2_insertions(diagram):
    out = []
    sites = [
        (ci, pos)
        for ci, word in enumerate(diagram.circles)
        for pos in range(len(word) + 1)
    ]
    for (ci, gi), (cj, gj) in itertools.product(sites, repeat=2):
        c, d = _fresh_ids(diagram, 2)
        for nested in (False, True):
            for sign in (1, -1):
                tails = [(c, False), (d, False)]
                heads = [(d, True), (c, True)] if nested else [(c, True), (d, True)]
                signs = [(c, sign), (d, -sign)]
                if ci == cj:
                    word = list(diagram.circles[ci])
                    if gi <= gj:
                        moved = word[:gi] + tails + word[gi:gj] + heads + word[gj:]
                    else:
                        moved = word[:gj] + heads + word[gj:gi] + tails + word[gi:]
                    out.append(_with_circles(diagram, {ci: moved}, signs))
                else:
                    wi = list(diagram.circles[ci])
                    wj = list(diagram.circles[cj])
                    out.append(
                        _with_circles(
                            diagram,
                            {
                                ci: wi[:gi] + tails + wi[gi:],
                                cj: wj[:gj] + heads + wj[gj:],
                            },
                            signs,
                        )
                    )
    return out


_STRANDS = ("A", "B", "C")
_CROSSING_OF = {
    frozenset(("A", "B")): "AB",
    frozenset(("A", "C")): "AC",
    frozenset(("B", "C")): "BC",
}
_POINTS = {"AB": (0, 0), "AC": (2, 0), "BC": (1, 1)}
_INCIDENT = {"A": ("AB", "AC"), "B": ("AB", "BC"), "C": ("AC", "BC")}


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
        for order in itertools.permutations(_STRANDS):
            level = {s: i for i, s in enumerate(order)}
            blocks = {}
            for s in _STRANDS:
                x1, x2 = _INCIDENT[s]
                d = dirs[s]
                k1 = _POINTS[x1][0] * d[0] + _POINTS[x1][1] * d[1]
                k2 = _POINTS[x2][0] * d[0] + _POINTS[x2][1] * d[1]
                first, second = (x1, x2) if k1 < k2 else (x2, x1)
                blocks[s] = tuple(
                    (x, level[s] > level[_other_strand(x, s)]) for x in (first, second)
                )
            signs = {}
            for x in ("AB", "AC", "BC"):
                s1, s2 = x
                over, under = (s1, s2) if level[s1] > level[s2] else (s2, s1)
                do, du = dirs[over], dirs[under]
                cross = do[0] * du[1] - do[1] * du[0]
                signs[x] = 1 if cross > 0 else -1
            configs.add(
                (blocks["A"], blocks["B"], blocks["C"], (signs["AB"], signs["AC"], signs["BC"]))
            )
    return tuple(sorted(configs))


def _other_strand(crossing, strand):
    return crossing[0] if crossing[1] == strand else crossing[1]


_R3_CONFIGS = _triangle_configs()


def _adjacent_blocks(diagram):
    """Non-wrapping adjacent endpoint pairs whose two chords differ."""
    blocks = []
    for ci, word in enumerate(diagram.circles):
        for pos in range(len(word) - 1):
            if word[pos][0] != word[pos + 1][0]:
                blocks.append((ci, pos))
    return blocks


def r3_slides(diagram):
    out = {}
    blocks = _adjacent_blocks(diagram)
    sign = dict(diagram.signs)
    for triple in itertools.combinations(blocks, 3):
        slots = set()
        for ci, pos in triple:
            slots.update({(ci, pos), (ci, pos + 1)})
        if len(slots) != 6:
            continue
        words = [
            (diagram.circles[ci][pos], diagram.circles[ci][pos + 1])
            for ci, pos in triple
        ]
        chord_sets = [frozenset(e[0] for e in pair) for pair in words]
        if len(frozenset().union(*chord_sets)) != 3:
            continue
        for perm in itertools.permutations(range(3)):
            role_block = {s: triple[perm[i]] for i, s in enumerate(_STRANDS)}
            role_word = {s: words[perm[i]] for i, s in enumerate(_STRANDS)}
            shared = {}
            ok = True
            for s1, s2 in (("A", "B"), ("A", "C"), ("B", "C")):
                common = {e[0] for e in role_word[s1]} & {e[0] for e in role_word[s2]}
                if len(common) != 1:
                    ok = False
                    break
                shared[_CROSSING_OF[frozenset((s1, s2))]] = next(iter(common))
            if not ok:
                continue
            for blockA, blockB, blockC, csigns in _R3_CONFIGS:
                config = {"A": blockA, "B": blockB, "C": blockC}
                if any(
                    sign[shared[x]] != s
                    for x, s in zip(("AB", "AC", "BC"), csigns)
                ):
                    continue
                match = True
                for s in _STRANDS:
                    for (crossing, is_over), (chord, is_head) in zip(
                        config[s], role_word[s]
                    ):
                        if shared[crossing] != chord or is_over != (not is_head):
                            match = False
                            break
                    if not match:
                        break
                if not match:
                    continue
                circles = [list(w) for w in diagram.circles]
                for ci, pos in triple:
                    circles[ci][pos], circles[ci][pos + 1] = (
                        circles[ci][pos + 1],
                        circles[ci][pos],
                    )
                moved = BasedGaussDiagram(
                    tuple(tuple(w) for w in circles), diagram.signs
                )
                out[(moved.circles, moved.signs)] = moved
    return list(out.values())
