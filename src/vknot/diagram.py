"""Based Gauss diagrams of virtual knots and links.

A diagram is one or more oriented circles carrying the endpoints of signed,
directed chords.  Every chord records one crossing of the underlying virtual
link diagram: the tail of the chord sits on the over-passage (an ``O`` token
in the Gauss code) and the head on the under-passage (a ``U`` token).  Each
circle carries a basepoint; internally every circle is stored so that its
endpoint sequence starts immediately after the basepoint, which makes the
basepoint the gap *before* endpoint 0.

Values are immutable; every operation returns a new diagram.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import GaussCodeError, PreconditionError, UnknownChordError

_TOKEN = re.compile(r"(\*?)([OU])(\d+)([+-])")


def _first_occurrence(chords):
    """``{chord: label}``, labeling the chords of ``chords`` 0, 1, ... by first occurrence."""
    return {chord: label for label, chord in enumerate(dict.fromkeys(chords))}


def _renumbered(word):
    """``(renumbered, label)``: the one-circle endpoint ``word`` with each chord ``c`` renamed
    ``label[c] + 1``, numbering its chords 1, 2, ... by first occurrence (:func:`_first_occurrence`)."""
    label = _first_occurrence(c for c, _ in word)
    return tuple([(label[c] + 1, is_head) for c, is_head in word]), label


def _endpoint_positions(circles, noun):
    """``{(chord, is_head): (circle, pos)}`` of the endpoint words ``circles``.

    A second head or tail of one chord is refused, naming the chord a ``noun``.
    """
    positions = {}
    for ci, circle in enumerate(circles):
        for pos, (chord, is_head) in enumerate(circle):
            if (chord, is_head) in positions:
                end = "head" if is_head else "tail"
                raise GaussCodeError("%s %r has two %s endpoints" % (noun, chord, end))
            positions[chord, is_head] = (ci, pos)
    return positions


@dataclass(frozen=True)
class BasedGaussDiagram:
    """Circles of endpoint slots plus chord signs.

    ``circles[i]`` lists the endpoints of circle ``i`` in traversal order
    starting just after that circle's basepoint.  ``signs`` is a sorted
    tuple of ``(chord_id, sign)`` pairs.
    """

    circles: tuple
    signs: tuple

    _sign_map: dict = field(init=False, repr=False, compare=False, default=None)
    _positions: dict = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "_sign_map", dict(self.signs))
        positions = _endpoint_positions(self.circles, "chord")
        for chord, sign in self.signs:
            if sign not in (1, -1):
                raise GaussCodeError("chord %r has sign %r, expected +1 or -1" % (chord, sign))
            if (chord, False) not in positions or (chord, True) not in positions:
                raise GaussCodeError("chord %r is missing an endpoint" % chord)
        if len(positions) != 2 * len(self.signs):
            extra = {c for c, _ in positions} - {c for c, _ in self.signs}
            raise GaussCodeError("endpoints found for unknown chord ids %s" % sorted(extra))
        object.__setattr__(self, "_positions", positions)

    # -- basic accessors -------------------------------------------------

    @property
    def num_circles(self):
        return len(self.circles)

    @property
    def num_chords(self):
        return len(self.signs)

    def chord_ids(self):
        return tuple(c for c, _ in self.signs)

    def sign(self, chord):
        try:
            return self._sign_map[chord]
        except KeyError:
            raise UnknownChordError(chord) from None

    def tail(self, chord):
        """(circle, position) of the over-passage endpoint."""
        self.sign(chord)
        return self._positions[(chord, False)]

    def head(self, chord):
        """(circle, position) of the under-passage endpoint."""
        self.sign(chord)
        return self._positions[(chord, True)]

    def canonical_key(self):
        """Structural key with chords relabeled by first occurrence."""
        label = _first_occurrence(chord for circle in self.circles for chord, _ in circle)
        sign = self._sign_map
        return tuple(tuple((label[c], is_head, sign[c]) for c, is_head in circle) for circle in self.circles)

    def __str__(self):
        return serialize_gauss_code(self)


def make_diagram(circles, signs):
    """Build a diagram from per-circle endpoint lists and a chord->sign map."""
    return BasedGaussDiagram(
        tuple(tuple(c) for c in circles),
        tuple(sorted(signs.items() if isinstance(signs, dict) else signs)),
    )


# -- signed Gauss codes ---------------------------------------------------


def parse_gauss_code(text):
    """Parse a signed Gauss code such as ``"O1+U2+O3+U1+O2+U3+"``.

    Circles are separated by ``;``.  A ``*`` before a token moves that
    circle's basepoint to the gap preceding the token (default: before the
    first token).  Whitespace is ignored.
    """
    circles = []
    chord_sign = {}
    seen = set()
    for chunk in text.split(";"):
        chunk = "".join(chunk.split())
        word = []
        star_at = None
        pos = 0
        for m in _TOKEN.finditer(chunk):
            if m.start() != pos:
                raise GaussCodeError("bad token at %r" % chunk[pos : pos + 8])
            star, ou, label, sgn = m.groups()
            if star:
                if star_at is not None:
                    raise GaussCodeError("circle has more than one basepoint marker")
                star_at = len(word)
            chord = int(label)
            is_head = ou == "U"
            sign = 1 if sgn == "+" else -1
            if (chord, is_head) in seen:
                raise GaussCodeError("duplicate %s token for label %d" % (ou, chord))
            seen.add((chord, is_head))
            if chord in chord_sign and chord_sign[chord] != sign:
                raise GaussCodeError("sign mismatch between O and U tokens of label %d" % chord)
            chord_sign[chord] = sign
            word.append((chord, is_head))
            pos = m.end()
        if pos < len(chunk):
            if chunk[pos:] != "*":
                raise GaussCodeError("bad token at %r" % chunk[pos : pos + 8])
            # trailing star: gap after the last token, i.e. the default gap
            if star_at is not None:
                raise GaussCodeError("circle has more than one basepoint marker")
        if star_at:
            word = word[star_at:] + word[:star_at]
        circles.append(tuple(word))
    for chord in chord_sign:
        if (chord, False) not in seen or (chord, True) not in seen:
            raise GaussCodeError("label %d is missing its partner token" % chord)
    return make_diagram(circles, chord_sign)


def serialize_gauss_code(diagram):
    """Inverse of :func:`parse_gauss_code` (basepoints are always default)."""
    words = []
    for circle in diagram.circles:
        words.append(
            "".join(
                "%s%d%s" % ("U" if is_head else "O", chord, "+" if diagram.sign(chord) > 0 else "-")
                for chord, is_head in circle
            )
        )
    return ";".join(words)


# -- invariants of chords and arcs ----------------------------------------


def _require_knot(diagram, what):
    if diagram.num_circles != 1:
        raise PreconditionError("%s is defined for one-circle diagrams only" % what)


def _layout(circles, chords):
    """Integer endpoint positions: ``(tails, heads, bounds)``.

    The circles are laid end to end; chord ``i`` (the ``i``-th of
    ``chords``) has its tail at ``tails[i]`` and its head at ``heads[i]``,
    and ``bounds`` holds each circle's first position, then the total.
    Signs play no part: a sign vector lists chord ``i``'s sign at ``i``.
    """
    tails, heads = {}, {}
    bounds = [0]
    for circle in circles:
        for pos, (chord, is_head) in enumerate(circle, start=bounds[-1]):
            (heads if is_head else tails)[chord] = pos
        bounds.append(bounds[-1] + len(circle))
    return [tails[c] for c in chords], [heads[c] for c in chords], bounds


def _interleavings(word, planes, ones):
    """``(chord, head_first, m, negatives)`` for each chord of the one-circle ``word`` with
    endpoints strictly between its ends ``lo < hi``, in the order of ``hi``.

    Up to sign, the chord's index sums ``s_j`` over the tails and ``-s_j``
    over the heads of the ``m = hi - lo - 1`` endpoints between its ends (a
    chord wholly inside adds ``s_j - s_j``): ``m - 2 * negatives`` for the
    ``negatives`` terms that are -1.  One prefix sum along the word gives
    every count, a tail of chord ``j`` adding ``planes[j]`` and a head
    ``ones ^ planes[j]``.  On the lanes of :class:`~vknot.verify.SignLanes`
    each count is per lane, and at most the chord count; with planes 0 and 1
    for the positive and negative chords and ``ones = 1`` it is one number.
    """
    prefix, opened = [0], {}
    for hi, (chord, is_head) in enumerate(word):
        lo = opened.setdefault(chord, hi)
        if hi > lo + 1:
            yield chord, not is_head, hi - lo - 1, prefix[hi] - prefix[lo + 1]
        prefix.append(prefix[-1] + (ones ^ planes[chord] if is_head else planes[chord]))


def indices(diagram):
    """``{chord: index(diagram, chord)}`` for every chord, from :func:`_interleavings`.

    A chord's sign times ``m - 2 * negatives`` is its signed count when the
    arc from its head to its tail lies between its ends; when the tail comes
    first that arc runs outside, which negates it.
    """
    _require_knot(diagram, "index")
    sign = diagram._sign_map
    out = dict.fromkeys(diagram.chord_ids(), 0)
    planes = {chord: int(s < 0) for chord, s in diagram.signs}
    for chord, head_first, m, negatives in _interleavings(diagram.circles[0], planes, 1):
        out[chord] = sign[chord] * (m - 2 * negatives) * (1 if head_first else -1)
    return out


def index(diagram, chord):
    """Signed count of chords interleaved with ``chord``.

    A chord ``d`` crossing ``chord`` counts with weight ``+sign(d)`` when its
    tail lies on the arc running from the head of ``chord`` to its tail, and
    ``-sign(d)`` otherwise; the total is multiplied by ``sign(chord)``.
    """
    value = indices(diagram).get(chord)
    if value is None:
        raise UnknownChordError(chord)
    return value


def _congruent(a, b, p):
    if p == 0:
        return a == b
    return (a - b) % p == 0


def _closed(segment):
    """True iff every chord with an endpoint in the endpoint sequence ``segment`` has both there."""
    return len({chord for chord, _ in segment}) * 2 == len(segment)


def _interleaves_nothing(word, chord):
    """True iff no chord of the one-circle ``word`` has exactly one end between the ends of
    ``chord``, so that its smoothing (:func:`smooth`) leaves two circles that share no chord."""
    a, b = sorted([word.index((chord, False)), word.index((chord, True))])
    return _closed(word[a + 1 : b])


def _ends_of_opposite_parity(word):
    """True iff each chord of the one-circle ``word`` has its two ends at positions of opposite parity.

    The endpoints strictly between a chord's ends pair off, two for each
    chord lying wholly inside, so the chord interleaves an even number of
    others exactly when its ends have opposite parity: this is the index
    criterion mod 2, checkerboard colorability of a knot.  It holds exactly
    when the even positions hold every chord once.
    """
    return len({chord for chord, _ in word[::2]}) * 2 == len(word)


def is_mod_p_numberable(diagram, p):
    """True iff the diagram admits a mod ``p`` Alexander numbering.

    ``p = 0`` asks for an integer numbering and ``p = 2`` is checkerboard
    colorability.  On a knot this is the index criterion: every chord index
    is 0 mod ``p``, exactly 0 when ``p = 0``; mod 2 it is read from the parity
    of each chord's endpoint positions (:func:`_ends_of_opposite_parity`).
    Links run the labeling walk of :func:`alexander_numbering`.
    """
    if p < 0:
        raise ValueError("modulus must be >= 0")
    if diagram.num_circles != 1:
        return alexander_numbering(diagram, p) is not None
    if p == 2:
        return _ends_of_opposite_parity(diagram.circles[0])
    values = indices(diagram).values()
    return all(v % p == 0 for v in values) if p else not any(values)


@dataclass(frozen=True)
class Numbering:
    """Labels on short arcs satisfying the crossing constraints mod ``p``.

    ``labels[ci][g]`` is the label of the gap before endpoint ``g`` of circle
    ``ci`` (a circle without endpoints has the single gap 0).
    """

    labels: tuple
    modulus: int

    def label(self, circle, gap):
        return self.labels[circle][gap]


def _walk_increments(diagram):
    """Per-circle prefix labels from the basepoint, over the integers.

    Crossing a tail lowers the running label by the chord sign; crossing a
    head raises it.  Returns (prefix lists, per-circle closing totals).
    """
    prefixes = []
    closures = []
    for circle in diagram.circles:
        w = [0]
        for chord, is_head in circle:
            d = diagram.sign(chord)
            w.append(w[-1] + (d if is_head else -d))
        closures.append(w[-1])
        prefixes.append(w[:-1] if circle else [0])
    return prefixes, closures


def alexander_numbering(diagram, p):
    """A mod ``p`` Alexander numbering of the short arcs, or None.

    Succeeds exactly when :func:`is_mod_p_numberable` does.  Labels are
    produced by walking each circle from its basepoint and then fixing the
    per-circle offsets against the over/under linkage constraint at every
    chord (the label after the tail must match the label before the head).
    """
    if p < 0:
        raise ValueError("modulus must be >= 0")
    w, closures = _walk_increments(diagram)
    if not all(_congruent(c, 0, p) for c in closures):
        return None
    ncirc = diagram.num_circles
    # offset[ci] - offset[cj] must equal each linkage discrepancy mod p
    constraints = []
    for chord, _ in diagram.signs:
        ci, it = diagram.tail(chord)
        cj, jh = diagram.head(chord)
        after_tail = w[ci][(it + 1) % len(diagram.circles[ci])]
        before_head = w[cj][jh]
        constraints.append((ci, cj, before_head - after_tail))
    offset = [None] * ncirc
    adj = [[] for _ in range(ncirc)]
    for ci, cj, diff in constraints:
        if ci == cj:
            if not _congruent(diff, 0, p):
                return None
        else:
            adj[ci].append((cj, diff))
            adj[cj].append((ci, -diff))
    for start in range(ncirc):
        if offset[start] is not None:
            continue
        offset[start] = 0
        queue = [start]
        while queue:
            ci = queue.pop()
            for cj, diff in adj[ci]:
                want = offset[ci] + diff
                if offset[cj] is None:
                    offset[cj] = want
                    queue.append(cj)
                elif not _congruent(offset[cj], want, p):
                    return None
    labels = tuple(
        tuple((offset[ci] + v) % p if p else offset[ci] + v for v in w[ci])
        for ci in range(ncirc)
    )
    return Numbering(labels, p)


def numbering_is_valid(diagram, numbering):
    """Check the four-arc constraints of ``numbering`` at every chord.

    At a positive chord the label drops by one along the over strand, rises
    by one along the under strand, and the outgoing over arc agrees with the
    incoming under arc; at a negative chord the shifts reverse.
    """
    p = numbering.modulus
    lab = numbering.label

    def gaps(ci, pos):
        m = len(diagram.circles[ci])
        return lab(ci, pos), lab(ci, (pos + 1) % m)

    for chord, eps in diagram.signs:
        ci, it = diagram.tail(chord)
        cj, jh = diagram.head(chord)
        over_in, over_out = gaps(ci, it)
        under_in, under_out = gaps(cj, jh)
        if not (
            _congruent(over_out, over_in - eps, p)
            and _congruent(under_out, under_in + eps, p)
            and _congruent(over_out, under_in, p)
        ):
            return False
    return True


def _warping_degree(word):
    """The chords of the one-circle ``word`` whose first endpoint is a head."""
    return sum(dict(word[::-1]).values())  # reversed, the last value kept is the first endpoint's


def warping_degree(diagram):
    """Number of chords met head-first when traveling from the basepoint."""
    _require_knot(diagram, "warping degree")
    return _warping_degree(diagram.circles[0])


# -- local moves -----------------------------------------------------------


def crossing_change(diagram, chord):
    """Exchange over and under passages of ``chord`` and negate its sign."""
    diagram.sign(chord)
    circles = tuple(
        tuple((c, not ih) if c == chord else (c, ih) for c, ih in circle)
        for circle in diagram.circles
    )
    signs = tuple((c, -s if c == chord else s) for c, s in diagram.signs)
    return BasedGaussDiagram(circles, signs)


def _smoothed_words(circles, chord):
    """The endpoint words ``circles`` after the oriented smoothing along ``chord`` (see :func:`smooth`).

    Only the positions of the chord's two ends matter, not which is its tail.
    """
    (ci, a), (cj, b) = [(c, pos) for c, circle in enumerate(circles)
                        for pos, (other, _) in enumerate(circle) if other == chord]
    circles = list(circles)
    if ci == cj:
        circle = circles[ci]
        circles[ci : ci + 1] = [circle[:a] + circle[b + 1 :], circle[a + 1 : b]]
    else:
        first, second = circles[ci], circles[cj]
        circles[ci] = first[:a] + second[b + 1 :] + second[:b] + first[a + 1 :]
        del circles[cj]
    return tuple(circles)


def smooth(diagram, chord):
    """Oriented smoothing along ``chord``.

    The chord's endpoints are removed and the strands reconnected so that the
    arc entering the over-passage continues out of the under-passage and vice
    versa.  Smoothing a chord with both endpoints on one circle splits it:
    the part containing that circle's basepoint keeps it and stays first in
    the circle order, while the split-off circle is inserted right after it
    with a fresh basepoint just past the reconnection site.  Smoothing a
    chord joining two circles merges them onto the earlier circle, keeping
    its basepoint.
    """
    diagram.sign(chord)
    signs = tuple((c, s) for c, s in diagram.signs if c != chord)
    return BasedGaussDiagram(_smoothed_words(diagram.circles, chord), signs)


def shift_basepoint(diagram, circle=0, forward=True):
    """Move the basepoint of one circle across the adjacent endpoint."""
    word = diagram.circles[circle]
    if not word:
        return diagram
    moved = word[1:] + word[:1] if forward else word[-1:] + word[:-1]
    circles = list(diagram.circles)
    circles[circle] = moved
    return BasedGaussDiagram(tuple(circles), diagram.signs)


def _rotations(word):
    """The endpoint word ``word`` with its basepoint in each gap, the ``r``-th starting at ``word[r]``."""
    return [word[r:] + word[:r] for r in range(max(1, len(word)))]


def basepoint_positions(diagram):
    """All diagrams obtained by placing the primary basepoint in each gap, in :func:`_rotations` order."""
    return [BasedGaussDiagram((rotated,) + diagram.circles[1:], diagram.signs)
            for rotated in _rotations(diagram.circles[0])]
