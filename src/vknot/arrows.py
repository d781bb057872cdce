"""Arrow diagrams, jump traversal, and the ascending/descending polynomials.

An arrow diagram is a based chord diagram with directed, unsigned chords
(arrows).  Pairing an arrow diagram against a based Gauss diagram counts the
order- and direction-preserving embeddings of its arrows onto chords, each
weighted by the product of the chord signs hit.

The traversal that defines *one-component*, *ascending* and *descending*
starts at the first circle's basepoint and travels along the orientation;
whenever an endpoint is reached by travel, the walk jumps to the other end
of that arrow and resumes from there, stopping on return to the start.  An
arrow is classified by which of its endpoints the travel reaches first:
heads-first everywhere is ascending, tails-first everywhere descending.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
from dataclasses import dataclass

from .diagram import (_congruent, _endpoint_positions, _first_occurrence, _interleaves_nothing, _layout,
                      _require_knot, _rotations, _smoothed_words, basepoint_positions, is_mod_p_numberable)
from .enumeration import _matchings, _word
from .errors import GaussCodeError, PreconditionError

_ARROW_TOKEN = re.compile(r"([OU])(\d+)")


@dataclass(frozen=True)
class ArrowDiagram:
    """Based circles with directed unsigned chords; tails are ``O`` slots."""

    circles: tuple

    def __post_init__(self):
        seen = _endpoint_positions(self.circles, "arrow")
        for chord, is_head in seen:
            if (chord, not is_head) not in seen:
                raise GaussCodeError("arrow %r is missing an endpoint" % chord)

    @property
    def num_circles(self):
        return len(self.circles)

    @property
    def num_arrows(self):
        return sum(len(c) for c in self.circles) // 2

    def canonical_key(self):
        label = _first_occurrence(chord for circle in self.circles for chord, _ in circle)
        return tuple(tuple((label[c], is_head) for c, is_head in circle) for circle in self.circles)

    def __str__(self):
        return serialize_arrow_code(self)


def parse_arrow_code(text):
    """Parse the unsigned variant of the Gauss code grammar (``"U1O2O1U2"``)."""
    circles = []
    for chunk in text.split(";"):
        chunk = "".join(chunk.split())
        word = []
        pos = 0
        while pos < len(chunk):
            m = _ARROW_TOKEN.match(chunk, pos)
            if not m:
                raise GaussCodeError("bad token at %r" % chunk[pos : pos + 8])
            ou, label = m.groups()
            word.append((int(label), ou == "U"))
            pos = m.end()
        circles.append(tuple(word))
    return ArrowDiagram(tuple(circles))


def serialize_arrow_code(arrow_diagram):
    return ";".join(
        "".join("%s%d" % ("U" if is_head else "O", chord) for chord, is_head in circle)
        for circle in arrow_diagram.circles
    )


# -- jump traversal ---------------------------------------------------------


def jump_traversal(diagram):
    """Travel-reached endpoints in order, plus the set of visited gaps.

    Accepts either an :class:`ArrowDiagram` or a
    :class:`~vknot.diagram.BasedGaussDiagram`.  Gap ``(ci, g)`` is the arc
    before endpoint ``g`` of circle ``ci``; the primary basepoint sits in gap
    ``(0, 0)``.  Both classes give each chord one head and one tail, so the
    walk permutes the gaps and returns to ``(0, 0)`` before any repeat.
    """
    words = diagram.circles
    positions = _endpoint_positions(words, "chord")
    reached = []
    cur = (0, 0)
    while words[0]:
        reached.append(cur)
        chord, is_head = words[cur[0]][cur[1]]
        cj, pj = positions[(chord, not is_head)]
        cur = (cj, (pj + 1) % len(words[cj]))
        if cur == (0, 0):
            break
    return tuple(reached), frozenset([(0, 0), *reached])


def _first_reached(diagram):
    """``(one_component, first)`` from the jump traversal, ``first[chord]`` telling whether travel
    reaches the chord first at its head."""
    reached, gaps = jump_traversal(diagram)
    first = {}
    for ci, g in reached:
        chord, is_head = diagram.circles[ci][g]
        first.setdefault(chord, is_head)
    return len(gaps) == sum(max(1, len(word)) for word in diagram.circles), first


def is_one_component(diagram):
    """True iff the jump traversal visits every arc of every circle."""
    return _first_reached(diagram)[0]


def is_ascending(diagram):
    """True iff every arrow is first reached by travel at its head."""
    return all(_first_reached(diagram)[1].values())


def is_descending(diagram):
    """True iff every arrow is first reached by travel at its tail."""
    return not any(_first_reached(diagram)[1].values())


# -- Conway combinations ------------------------------------------------------


@dataclass(frozen=True)
class ConwaySet:
    """All one-component ascending (or descending) diagrams of one degree."""

    degree: int
    circles: int
    variant: str
    members: tuple

    def __len__(self):
        return len(self.members)


def _variant_name(variant):
    v = variant.lower()
    if v in ("asc", "ascending"):
        return "ascending"
    if v in ("des", "desc", "descending"):
        return "descending"
    raise ValueError("variant must be 'ascending' or 'descending'")


def conway_sets(degree, circles):
    """The ascending and descending :class:`ConwaySet` of one degree, from one pass.

    Even degrees live on one circle, odd degrees on two; anything else is a
    parity mismatch.  Candidates are the matchings of the endpoint slots
    (:func:`_matchings`), cut in two for two circles, with arrows numbered by
    first occurrence (:func:`_word`), so no two members are isomorphic.  The
    jump traversal goes to an arrow's other end whichever end it reached, so
    its path reads only the matching and the cut: one traversal per
    one-component candidate gives its one ascending orientation (each head
    where travel first reaches its arrow) and its one descending orientation.
    Members are sorted by :meth:`ArrowDiagram.canonical_key`.
    """
    if degree < 0 or circles not in (1, 2):
        raise ValueError("degree must be >= 0 and circles 1 or 2")
    if (degree % 2 == 0) != (circles == 1):
        raise ValueError("degree %d cannot live on %d circle(s)" % (degree, circles))
    cuts = [None] if circles == 1 else range(2 * degree + 1)
    ascending, descending = [], []
    for matching in _matchings(tuple(range(2 * degree))):
        word = _word(matching, [True] * degree)  # each head at its pair's first slot
        for cut in cuts:
            one, first = _first_reached(ArrowDiagram(_cut(word, cut)))
            if one:
                heads = [first[chord] for chord in range(1, degree + 1)]
                ascending.append(ArrowDiagram(_cut(_word(matching, heads), cut)))
                descending.append(ArrowDiagram(_cut(_word(matching, [not h for h in heads]), cut)))
    return tuple(ConwaySet(degree, circles, variant, tuple(sorted(members, key=ArrowDiagram.canonical_key)))
                 for variant, members in (("ascending", ascending), ("descending", descending)))


def _cut(word, cut):
    """The circles of ``word``: itself, or cut in two before slot ``cut``."""
    return (word,) if cut is None else (word[:cut], word[cut:])


def conway_set(degree, circles, variant):
    """Enumerate the one-component ascending/descending arrow diagrams (see :func:`conway_sets`)."""
    column = 0 if _variant_name(variant) == "ascending" else 1
    return conway_sets(degree, circles)[column]


# -- pairings ---------------------------------------------------------------


def _subset_words(circles, subset):
    return tuple(
        tuple((c, ih) for c, ih in circle if c in subset) for circle in circles
    )


def subset_pattern(diagram, chords):
    """The based arrow diagram induced by a subset of a Gauss diagram's chords."""
    return ArrowDiagram(_subset_words(diagram.circles, frozenset(chords)))


def pairing(arrow_diagram, diagram):
    """Signed count of embeddings of ``arrow_diagram`` into ``diagram``.

    Circle counts must match; circle ``i`` maps onto circle ``i`` with
    basepoints preserved, so an embedding is just a choice of chords whose
    induced pattern is isomorphic to ``arrow_diagram``.
    """
    if arrow_diagram.num_circles != diagram.num_circles:
        raise PreconditionError(
            "cannot pair a %d-circle arrow diagram with a %d-circle diagram"
            % (arrow_diagram.num_circles, diagram.num_circles)
        )
    target = arrow_diagram.canonical_key()
    k = arrow_diagram.num_arrows
    sign = dict(diagram.signs)
    total = 0
    for subset in itertools.combinations(diagram.chord_ids(), k):
        if subset_pattern(diagram, subset).canonical_key() == target:
            prod = 1
            for c in subset:
                prod *= sign[c]
            total += prod
    return total


def _endpoints(diagram):
    """``(layout, signs)`` of a diagram, chords in ``chord_ids`` order."""
    return _layout(diagram.circles, diagram.chord_ids()), [s for _, s in diagram.signs]


def _walks(layout, max_size, budget=0):
    """``(subset, tails_first)`` for each one-component subset that the walk keeps.

    ``subset`` holds chord indices of at most ``max_size`` chords;
    ``tails_first`` holds those that the jump traversal reaches first at the
    tail, and the others are reached first at the head.  A subset is kept
    when at most ``budget`` chords are reached first in one of the two ways
    (0 for ascending or descending).  Signs are never read, so one pass
    serves every sign vector of the layout.

    The subsets are built while their traversal runs, depth first.  A walk
    starts at the subset's lowest endpoint ``p0`` (on the first circle), so
    chords with an endpoint below it are left out.  After each jump to ``q``
    it scans up the circle of ``q``, wrapping to the circle's start: an
    endpoint of a chord already in the subset is the landing, a chord left
    out is passed over, and any other chord is tried both ways, landed on
    (which adds it, reached first there) or left out.  Landing back on
    ``p0`` ends the walk, which counts if it landed on every endpoint and
    every circle carries one, so when the layout's chords do not join every
    circle no walk starts.  A branch is cut when it would exceed
    ``max_size``, reach more than ``budget`` chords first at their tails and
    at their heads, or land on a chord whose other end no later scan can
    reach.  A chord that no walk can land on that way (a kink, or a chord
    enclosing only such chords) is left out before the first walk, and once
    a subset holds ``max_size`` chords its scans pass over every other chord.
    So the cost follows the partial walks that stay within the budget, not
    2^n, and the recursion is at most ``max_size`` deep.
    """
    tails, heads, bounds = layout
    n = bounds[-1]
    partner, tail_at, chord = [0] * n, [False] * n, [0] * n
    for i, (t, h) in enumerate(zip(tails, heads)):
        partner[t], partner[h] = h, t
        tail_at[t] = True
        chord[t] = chord[h] = i
    circles = [(1 << b) - (1 << a) for a, b in zip(bounds, bounds[1:])]
    wrap = [circle for circle, a, b in zip(circles, bounds, bounds[1:]) for _ in range(a, b)]
    # A walk visits every circle of a subset that counts, so its chords join them all: when the
    # layout's chords do not (a circle carries no endpoint, or the circles fall in two groups no
    # chord joins), no subset counts.  Each pass joins the circles a chord links to those joined.
    if len(circles) > 1:
        joined = circles[0]
        for _ in circles[1:]:
            for t, h in zip(tails, heads):
                if (joined >> t ^ joined >> h) & 1:
                    joined |= wrap[t] | wrap[h]
        if not all([joined & circle for circle in circles]):
            return []
    # above[p]: the positions above p on its circle.  between[p]: those between p and its partner
    # q above it on one circle (else -1, which never cuts).  If all are left out, a scan lands on
    # q only from a jump to p, which needs q landed on first.  No scan can land on such a chord
    # (a kink encloses nothing), so it is left out before the first walk; the chords it encloses
    # have higher lower ends, so a downward pass settles those first.
    above, between = [0] * n, [-1] * n
    open_ = (1 << n) - 1
    for p in range(n - 1, -1, -1):
        q, circle = partner[p], wrap[p]
        above[p] = circle & -(2 << p)
        if p < q and circle >> q & 1:
            between[p] = (1 << q) - (2 << p)
            if not open_ & between[p]:
                open_ &= ~(1 << p | 1 << q)
    found = [((), ())] if len(circles) == 1 and max_size >= 0 else []  # the empty subset
    last = max_size - 1  # a subset of this many chords is full once it lands on one more

    def walk(q, open_, taken, reached, subset, tails_first, size, num_first):
        while True:
            p = open_ & above[q] or open_ & wrap[q]
            p = (p & -p).bit_length() - 1
            if taken >> p & 1:
                if p == p0:
                    if reached == taken and all([taken & circle for circle in circles]):
                        found.append((subset, tails_first))
                    return
                reached |= 1 << p
                q = partner[p]
                continue
            c, bits = chord[p], 1 << p | 1 << partner[p]
            if size < max_size and open_ & between[p]:
                first, num = (tails_first + (c,), num_first + 1) if tail_at[p] else (tails_first, num_first)
                if num <= budget or size + 1 - num <= budget:
                    if size < last:
                        walk(partner[p], open_, taken | bits, reached | 1 << p, subset + (c,), first, size + 1, num)
                    else:  # full: it lands only on its own endpoints, every other chord is left out
                        full = taken | bits
                        if full & between[p]:
                            walk(partner[p], full, full, reached | 1 << p, subset + (c,), first, size + 1, num)
            open_ ^= bits

    for p0 in range(bounds[1] if max_size > 0 else 0):
        if open_ >> p0 & 1:
            c, bits = chord[p0], 1 << p0 | 1 << partner[p0]
            first, num = ((c,), 1) if tail_at[p0] else ((), 0)
            if max_size > 1:
                if open_ & between[p0]:
                    walk(partner[p0], open_, bits, 1 << p0, (c,), first, 1, num)
            elif bits & between[p0]:
                walk(partner[p0], bits, bits, 1 << p0, (c,), first, 1, num)
            open_ ^= bits
    return found


def _smoothing_subsets(circles, chords, i):
    """:func:`_walks` of the smoothing along ``chords[i]`` of the diagram with endpoint words
    ``circles`` (:func:`~vknot.diagram.smooth`), its chords the others, each subset in the chord
    indices of ``chords``, so the diagram's own signs apply.

    A knot chord that interleaves nothing is not spliced: its smoothing's two
    circles share no chord, so no subset counts (:func:`_walks`).
    """
    if len(circles) == 1 and _interleaves_nothing(circles[0], chords[i]):
        return []
    others = chords[:i] + chords[i + 1 :]
    layout = _layout(_smoothed_words(circles, chords[i]), others)
    # the smoothing's chord index j is the diagram's j, or j + 1 from i on; first is () or all of subset
    return [(mapped, mapped if first else ()) for subset, first in _walks(layout, len(others))
            for mapped in [tuple([j + (j >= i) for j in subset])]]


def _crossing_change_tables(layout, signs, resolved):
    """``{i: T(D+) - T(D-)}`` for each chord index ``i`` of ``resolved``: the skein difference of
    the Conway tables ``{size: (ascending, descending)}`` of the diagrams D+ and D- whose chord
    ``i`` is positive and negative, the sizes with a nonzero difference in increasing order.

    D^i, the crossing change at chord ``i``, swaps its tail and head in place and negates its
    sign, so each walk keeps its path, only chord ``i``'s first-reached role flips, and the sign
    product changes sign: a subset is ascending in D when no chord is first reached tail-first,
    and in D^i when ``i`` is the only one (descending likewise).  So one :func:`_walks` with a
    budget of one chord serves D and every D^i.  Only the subsets holding ``i`` differ between D+
    and D-, and such a subset adds s_i times its sign product once for its class in D and once
    for its class in D^i: the product over its other chords, the chords of the smoothing at ``i``.
    """
    diffs = {i: {} for i in resolved}
    for subset, first in _walks(layout, len(layout[0]), budget=1):
        size, num = len(subset), len(first)  # num: the chords first reached tail-first in D
        prod = math.prod([signs[i] for i in subset])
        for i in subset:
            if i in diffs:
                diff, term = diffs[i], prod * signs[i]
                if num == 0 or num == size:  # column 0 when ascending, 1 when descending
                    diff.setdefault(size, [0, 0])[num != 0] += term
                flipped = num - 1 if i in first else num + 1  # in D^i
                if flipped == 0 or flipped == size:
                    diff.setdefault(size, [0, 0])[flipped != 0] += term
    return {i: {size: (a, d) for size, (a, d) in sorted(diff.items()) if a or d} for i, diff in diffs.items()}


def _pairing_sums(walked, signs):
    """``{size: (ascending, descending)}`` signed sums over the subsets of a :func:`_walks` (budget 0).

    Only the sizes with a nonzero sum are keys, in increasing order.
    """
    sums = {}
    for subset, first in walked:
        prod = math.prod([signs[i] for i in subset])
        entry = sums.setdefault(len(subset), [0, 0])
        entry[0] += prod if not first else 0
        entry[1] += prod if len(first) == len(subset) else 0
    return {size: (a, d) for size, (a, d) in sorted(sums.items()) if a or d}


def _table_lanes(walked, planes):
    """:func:`_pairing_sums` in every lane of the sign planes ``planes`` (``SignLanes.planes``), as
    ``{size: ((count, negatives), (count, negatives))}``, ascending then descending.

    ``count`` is the number of subsets of that size that count and
    ``negatives`` counts per lane those with sign product -1, so the pairing
    is ``count - 2 * negatives``; every size with a subset that counts is a key.
    """
    sums = {}
    for subset, first in walked:
        negative = functools.reduce(operator.xor, [planes[i] for i in subset], 0)
        entry = sums.setdefault(len(subset), [0, 0, 0, 0])
        if not first:
            entry[0] += 1
            entry[1] += negative
        if len(first) == len(subset):
            entry[2] += 1
            entry[3] += negative
    return {size: ((a, na), (d, nd)) for size, (a, na, d, nd) in sorted(sums.items())}


def _z2_pairs(word, index):
    """The chord pairs counted by the ascending and descending z^2 pairings of the knot with endpoint
    word ``word``, as bitmask rows, chord ``c`` standing for bit ``index[c]``.

    On one circle the degree-2 Conway sets are ``U1O2O1U2`` (ascending) and
    ``O1U2U1O2`` (descending), so c2 is a Polyak-Viro Gauss-diagram
    formula: s_x * s_y summed over the chord pairs with
    h_x < t_y < t_x < h_y, respectively t_x < h_y < h_x < t_y.

    Returns ``(ascending, descending)``, lists of rows ``(x, mask)``, each
    standing for the pairs ``(x, y)`` with bit ``y`` set in ``mask``; empty
    rows are left out.  One sweep along the word keeps two bitmasks, the
    chords whose tail and whose head it has passed.  The head of a
    head-first chord x saves the passed tails, and its tail emits the passed
    tails not saved whose heads are not passed yet: the y with
    h_x < t_y < t_x < h_y, the ascending row of x.  A tail-first x gives its
    descending row with tails and heads swapped.  That is O(n) big-integer
    operations, not n^2 comparisons.
    """
    passed_tails = passed_heads = 0
    saved = {}
    asc, des = [], []
    for chord, is_head in word:
        x = index[chord]
        first = saved.pop(chord, None)
        if is_head:
            if first is None:
                saved[chord] = passed_tails
            elif mask := passed_heads & ~(first | passed_tails):
                des.append((x, mask))
            passed_heads |= 1 << x
        else:
            if first is None:
                saved[chord] = passed_heads
            elif mask := passed_tails & ~(first | passed_heads):
                asc.append((x, mask))
            passed_tails |= 1 << x
    return asc, des


def _plus_mask(signs):
    """The bitmask of the chord indices with sign +1."""
    return sum([1 << i for i, s in enumerate(signs) if s > 0])


def _z2_sums(row_lists, signs, plus):
    """``(ascending, descending)`` z^2 pairings from the rows of :func:`_z2_pairs`.

    A row ``(x, mask)`` adds s_x times the sum of s_y over ``mask``, which
    is its count of positive chords minus its count of negative ones;
    ``plus`` is ``_plus_mask(signs)``.
    """
    asc, des = row_lists
    return (sum([signs[x] * (2 * (mask & plus).bit_count() - mask.bit_count()) for x, mask in asc]),
            sum([signs[x] * (2 * (mask & plus).bit_count() - mask.bit_count()) for x, mask in des]))


def _z2(circles, chords, signs):
    """``(ascending, descending)`` z^2 pairings of the diagram with endpoint words ``circles``,
    chord ``chords[i]`` having sign ``signs[i]``: on a knot from the rows of :func:`_z2_pairs`,
    on a link from the subset walk of every other degree."""
    if len(circles) != 1:
        return _pairing_sums(_walks(_layout(circles, chords), 2), signs).get(2, (0, 0))
    index = {chord: i for i, chord in enumerate(chords)}
    return _z2_sums(_z2_pairs(circles[0], index), signs, _plus_mask(signs))


def conway_pairing(diagram, degree, variant):
    """Pairing of the full degree-``degree`` Conway combination with ``diagram``.

    Equals the sum of :func:`pairing` over every member of
    ``conway_set(degree, ...)`` but reads :func:`conway_pairing_table` up to
    ``degree``.  Degree 2 reads :func:`_z2`, on a knot one sweep over the
    endpoints, O(n) big-integer operations.
    """
    column = 0 if _variant_name(variant) == "ascending" else 1
    if degree == 2:
        return _z2(diagram.circles, diagram.chord_ids(), [s for _, s in diagram.signs])[column]
    return conway_pairing_table(diagram, max_degree=degree).get(degree, (0, 0))[column]


def conway_pairing_table(diagram, *, max_degree=None):
    """All Conway pairings of a diagram up to ``max_degree`` at once.

    Returns ``{size: (ascending_sum, descending_sum)}`` over chord-subset
    sizes up to ``max_degree`` (default: every chord), from the walk-guided
    search of :func:`_walks`; a size is a key only when one of its two sums
    is nonzero.
    """
    if max_degree is None:
        max_degree = diagram.num_chords
    layout, signs = _endpoints(diagram)
    return _pairing_sums(_walks(layout, max_degree), signs)


def z2_pairings_at_basepoints(diagram):
    """``(ascending, descending)`` z^2 pairings for every first-basepoint gap.

    Entry ``s`` is the pair for ``basepoint_positions(diagram)[s]``.
    """
    chords, signs = diagram.chord_ids(), [s for _, s in diagram.signs]
    return [_z2((rotated,) + diagram.circles[1:], chords, signs) for rotated in _rotations(diagram.circles[0])]


# -- polynomials -------------------------------------------------------------


@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial in one variable, stored as sorted (degree, coeff)."""

    coeffs: tuple

    @classmethod
    def from_dict(cls, d):
        return cls(tuple(sorted((k, v) for k, v in d.items() if v)))

    def coefficient(self, degree):
        for d, c in self.coeffs:
            if d == degree:
                return c
        return 0

    @property
    def degree(self):
        return self.coeffs[-1][0] if self.coeffs else 0

    def __call__(self, x):
        return sum(c * x**d for d, c in self.coeffs)

    def __add__(self, other):
        out = dict(self.coeffs)
        for d, c in other.coeffs:
            out[d] = out.get(d, 0) + c
        return IntPolynomial.from_dict(out)

    def __sub__(self, other):
        out = dict(self.coeffs)
        for d, c in other.coeffs:
            out[d] = out.get(d, 0) - c
        return IntPolynomial.from_dict(out)

    def scaled(self, factor, shift=0):
        """``factor * z**shift * self``."""
        return IntPolynomial.from_dict({d + shift: c * factor for d, c in self.coeffs})

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for d, c in self.coeffs:
            mag = abs(c)
            term = "z" if d == 1 else "z^%d" % d
            if d == 0:
                body = str(mag)
            elif mag == 1:
                body = term
            else:
                body = "%d %s" % (mag, term)
            parts.append(("- " if c < 0 else "+ " if parts else "") + body)
        return " ".join(parts) if parts[0][0] != "-" else "-" + " ".join(parts)[2:]


ZERO = IntPolynomial(())
ONE = IntPolynomial(((0, 1),))


def table_polynomials(table, max_degree=None):
    """The (ascending, descending) polynomials of a :func:`conway_pairing_table`."""
    kept = [(size, sums) for size, sums in table.items() if max_degree is None or size <= max_degree]
    return tuple(IntPolynomial.from_dict({size: sums[col] for size, sums in kept}) for col in (0, 1))


def _polynomials(diagram, max_degree):
    if diagram.num_circles != 1:
        raise PreconditionError("ascending/descending polynomials are defined for knots")
    return table_polynomials(conway_pairing_table(diagram, max_degree=max_degree))


def ascending_polynomial(diagram, max_degree=None):
    """Sum over even degrees of the ascending Conway pairings times z^degree.

    Only chord subsets of up to ``max_degree`` chords are enumerated.
    """
    return _polynomials(diagram, max_degree)[0]


def descending_polynomial(diagram, max_degree=None):
    return _polynomials(diagram, max_degree)[1]


def v2(diagram, p=2, certify=False):
    """Coefficient of z^2 of the ascending polynomial, reduced mod ``p``; like
    the polynomial, defined for knots only.

    With ``certify=True`` the value is recomputed for every basepoint
    position and for the descending variant; all of them must agree mod
    ``p``, which requires the diagram to be mod ``p`` numberable.
    """
    _require_knot(diagram, "v2")
    if p < 0:
        raise ValueError("modulus must be >= 0")
    if certify:
        if not is_mod_p_numberable(diagram, p):
            raise PreconditionError("certified v2 needs a mod %d numberable diagram" % p)
        pairs = z2_pairings_at_basepoints(diagram)
        base = pairs[0][0]
        for shift, values in enumerate(pairs):
            for variant, val in zip(("ascending", "descending"), values):
                if not _congruent(val, base, p):
                    raise PreconditionError(
                        "v2 certification failed on %s (%s, got %d vs %d)"
                        % (basepoint_positions(diagram)[shift], variant, val, base)
                    )
    else:
        base = conway_pairing(diagram, 2, "ascending")
    return base % p if p else base
