"""Sweep checks for the determinant/ascending-polynomial relations.

Each check walks a population of diagrams (exhaustive up to a chord bound,
or seeded random) and applies a pure verdict.  An exhaustive check's
verdict reads an unsigned chord structure of the census and all of its
sign vectors at once, one per lane of an integer, so work done once per
structure serves all of its diagrams (see :class:`CensusStructure` and
:class:`SignLanes`).  The census is swept one rotation orbit at a time:
the members of an orbit share its basepoint-free values, and a verdict
declared ``rotation_invariant`` runs on the orbit's representative alone.
Failures never abort a sweep: the offending Gauss codes are collected, in
census order, because a failure almost certainly pins down a convention
bug and the codes are the debugging artifact.  :func:`recheck` runs the
verdict the sweep ran on a recorded code, so it reproduces the failure.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import multiprocessing
import operator
import random
import time
import traceback
from dataclasses import asdict, dataclass

from .arrows import _crossing_change_tables, _pairing_sums, _smoothing_subsets, _table_lanes, _walks, _z2_pairs
from .determinant import _word_determinant
from .diagram import (
    _ends_of_opposite_parity,
    _interleavings,
    _layout,
    _renumbered,
    _require_knot,
    _rotations,
    _warping_degree,
    make_diagram,
    parse_gauss_code,
    serialize_gauss_code,
)
from .enumeration import _census_key, _random_chords, _random_link_words, _rotation_orbits
from .errors import PreconditionError, UnknownCheckError


@dataclass(frozen=True)
class SweepConfig:
    """Knobs shared by all checks; two runs with equal config agree exactly."""

    max_chords: int = 4
    moduli: tuple = (2, 3)
    samples: int = 1000
    random_max_chords: int = 8
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        for field in ("max_chords", "samples", "workers"):
            if getattr(self, field) < 0:
                raise PreconditionError("%s must be >= 0, got %d" % (field, getattr(self, field)))
        if any(p < 0 for p in self.moduli):
            raise PreconditionError("every modulus in moduli must be >= 0, got %s" % (self.moduli,))
        if self.random_max_chords < 1:
            raise PreconditionError("random_max_chords must be >= 1, got %d" % self.random_max_chords)


@dataclass(frozen=True)
class CheckReport:
    check: str
    population: int
    passes: int
    failures: int
    counterexamples: tuple
    seed: int
    elapsed_ms: int

    def to_dict(self):
        return dict(asdict(self), counterexamples=list(self.counterexamples))

    def to_text(self):
        keys = ("check", "population", "passes", "failures", "elapsed_ms")
        lines = ["%s: %s" % (key, getattr(self, key)) for key in keys]
        lines += ["counterexample: %s" % code for code in self.counterexamples]
        return "\n".join(lines)


def reports_to_json(reports):
    return json.dumps([r.to_dict() for r in reports], indent=2, sort_keys=True)


# -- the skein check -----------------------------------------------------------


def _population_random_skein(config):
    """``(circles, signs)`` of each sample: the endpoint words and ``{chord: sign}`` of chords
    1..k that :func:`random_knot_diagram` (even samples) and :func:`random_link_diagram` (odd
    ones) would build a diagram from, drawn by the same calls on the seeded generator."""
    rng = random.Random(config.seed)
    for i in range(config.samples):
        k = rng.randint(1, config.random_max_chords)
        if i % 2:
            yield _random_link_words(k, rng)
        else:
            slots, signs = _random_chords(k, rng)
            yield (slots,), signs


def skein_verdict(circles, signs, config):
    """Exact skein identities at every resolvable crossing of the diagram with endpoint words
    ``circles`` and chord signs ``signs`` (``{chord: sign}``); no diagram is built.

    For a knot every chord is resolved; for a two-circle diagram only chords
    joining the circles (smoothing a self-chord leaves the one- or two-circle
    pairing domain).  The skein difference T(D+) - T(D-) at each of them
    comes from one walk of D (:func:`_crossing_change_tables`) and must be
    the smoothing's table shifted up one size.  Each smoothing gets its own
    walk of its own endpoint words (:func:`_smoothing_subsets`), so the
    identity stays a check.
    """
    chords, sign = tuple(signs), list(signs.values())
    layout = tails, heads, _ = _layout(circles, chords)
    if len(circles) == 1:
        resolved = range(len(chords))
    else:  # the chords with ends on two circles
        circle_at = [ci for ci, circle in enumerate(circles) for _ in circle]
        resolved = [i for i, (t, h) in enumerate(zip(tails, heads)) if circle_at[t] != circle_at[h]]
    for i, diff in _crossing_change_tables(layout, sign, resolved).items():
        smoothed = _pairing_sums(_smoothing_subsets(circles, chords, i), sign)
        if diff != {n + 1: sums for n, sums in smoothed.items()}:
            return False
    return True


# -- the census engine ---------------------------------------------------------


class SignLanes:
    """Sign vectors of ``k`` chords, one per lane of an integer.

    Lane ``v`` is bits ``v * width`` to ``(v + 1) * width - 1`` and describes
    ``vectors[v]``.  A lane mask holds a 1 at the lowest bit of each lane it
    selects, and ``ones`` selects them all.  ``planes[i]`` selects the lanes
    where chord ``i + 1`` is negative, so a product of signs is negative in
    the lanes of the XOR of its chords' planes, and a sum of masks counts per
    lane: each integer operation serves every vector.

    No count a verdict sums exceeds C(k, k // 2): a z^2 row set holds at
    most C(k, 2) pairs, a Conway table at most C(k, s) subsets of size s, and
    an index row k - 1 chords.  A lane holds twice that below its top bit,
    which the comparisons keep as a guard.
    """

    def __init__(self, vectors, k):
        self.vectors = vectors
        self.k = k
        self.width = (2 * math.comb(k, k // 2)).bit_length() + 1
        self.ones = ((1 << len(vectors) * self.width) - 1) // ((1 << self.width) - 1)
        self._guard = self.ones << self.width - 1
        self.planes = [sum([1 << v * self.width for v, signs in enumerate(vectors) if signs[i] < 0])
                       for i in range(k)]

    def pair_sum(self, rows):
        """``(count, negatives)`` of the chord pairs that ``rows`` of :func:`_z2_pairs` stand for:
        the sum of s_x * s_y over them is ``count - 2 * negatives`` in each lane."""
        planes = self.planes
        count = negatives = 0
        for x, mask in rows:
            count += mask.bit_count()
            while mask:
                low = mask & -mask
                negatives += planes[x] ^ planes[low.bit_length() - 1]
                mask ^= low
        return count, negatives

    def selected(self, mask):
        """The lanes ``mask`` selects, in increasing order."""
        while mask:
            low = mask & -mask
            yield (low.bit_length() - 1) // self.width
            mask ^= low

    def equal(self, x, c):
        """The lanes where ``x`` holds ``c``; both are below the guard bit."""
        nonzero = ((x ^ c * self.ones) + self._guard - self.ones) & self._guard
        return self.ones ^ nonzero >> self.width - 1

    def twice_congruent(self, x, c, p, bound):
        """The lanes where ``2 x = c`` mod ``p`` (exactly when ``p = 0``), ``x`` being at most ``bound``.

        The condition is ``x = a`` mod ``m`` for one residue ``a``, or none.
        Lane-wise, ``x`` drops ``m * 2^j`` wherever it is that large, for each
        ``j`` from the largest fitting ``bound`` down, which leaves ``x mod m``.
        """
        if p == 0:
            return self.equal(x, c // 2) if c % 2 == 0 and 0 <= c // 2 <= bound else 0
        if p % 2:
            m, a = p, c * pow(2, -1, p) % p
        elif c % 2:
            return 0
        else:
            m, a = p // 2, c // 2 % (p // 2)
        if m == 1:
            return self.ones
        if a > bound:
            return 0
        for j in range((bound // m).bit_length() - 1, -1, -1):
            d = m << j
            fits = ((x + self._guard - d * self.ones) & self._guard) >> self.width - 1
            x -= fits * d
        return self.equal(x, a)

    def nonzero(self, count, negatives):
        """The lanes where the signed sum ``count - 2 * negatives`` is not 0."""
        return self.ones ^ self.twice_congruent(negatives, count, 0, count)


def _smoothing_candidates(circles, chords):
    """Chords of the knot with endpoint words ``circles`` whose interleaving chords all have tails
    on the basepoint arc: each chord with its tail strictly between the ends has its head there too."""
    tails, heads, _ = _layout(circles, chords)
    for chord, t, h in zip(chords, tails, heads):
        lo, hi = min(t, h), max(t, h)
        if all(lo < other_head < hi for other_tail, other_head in zip(tails, heads) if lo < other_tail < hi):
            yield chord


class CensusStructure:
    """One unsigned structure of the census and what its diagrams share.

    The 2^k diagrams of a structure differ only in their chord signs.  None
    of the following reads a sign, so each serves them all, computed from the
    endpoint word with its basepoint at :attr:`rotation`: mod 2 colorability,
    the determinant, numberability, the warping degree, the z^2 pairs at every
    basepoint, and the chord subsets that can add to the Conway table of the
    diagram and of each smoothing candidate's smoothing (walked by
    :meth:`table` and :meth:`smoothed_tables`).  The first three do not depend
    on the basepoint: they are kept, and shared by the structures at the
    word's other rotations (:meth:`members`), which keep these chord labels.
    The rest is computed when read, by the one verdict a structure serves.
    The methods taking ``lanes`` (:class:`SignLanes`) evaluate the diagrams of
    all its sign vectors from them at once; ``signs[i]`` is the sign of chord
    ``i + 1``.  No diagram is built but by :meth:`diagram`, on :attr:`word`
    in the census's numbering.
    """

    def __init__(self, word):
        self.word = self.rotation = word
        self.chords = tuple(range(1, len(word) // 2 + 1))
        # chord i + 1 is bit i of a _z2_pairs row, as in lanes.planes
        self._index = {chord: chord - 1 for chord in self.chords}
        # every chord interleaves an even number of others
        self.colorable = _ends_of_opposite_parity(word)
        self._determinant, self._numberable = None, ()

    @classmethod
    def from_diagram(cls, diagram):
        """``(structure, signs)`` of a one-circle diagram.

        The chords are relabeled 1..k by first occurrence, as the census
        numbers them, so ``structure.diagram(signs)`` is ``diagram`` up to
        that relabeling.
        """
        _require_knot(diagram, "a census structure")
        word, label = _renumbered(diagram.circles[0])
        return cls(word), tuple(diagram.sign(chord) for chord in label)

    def members(self, count):
        """The structures at rotations 0 to ``count - 1`` of the word (:func:`_rotations`): this
        one, then one :class:`_Member` per other rotation."""
        return [self, *[_Member(rotated, self) for rotated in _rotations(self.word)[1:count]]]

    def diagram(self, signs):
        return make_diagram([self.word], zip(self.chords, signs))

    @property
    def determinant(self):
        if self._determinant is None:
            self._determinant = _word_determinant((self.word,), self.chords)
        return self._determinant

    @property
    def warping_degree(self):
        """The chords met head-first from the basepoint."""
        return _warping_degree(self.rotation)

    @property
    def c2_parity(self):
        """The parity of c2, the ascending z^2 pairing, at the basepoint: c2 sums +-1 over the
        ascending pairs, so its parity is their count's."""
        return sum([mask.bit_count() for _, mask in _z2_pairs(self.rotation, self._index)[0]]) % 2

    @property
    def z2_pairs(self):
        """The rows of :func:`_z2_pairs` with the basepoint in each gap, in ``basepoint_positions``
        order, as frozensets: one pair set has one set of rows."""
        return [tuple(map(frozenset, _z2_pairs(rotated, self._index))) for rotated in _rotations(self.rotation)]

    def numberable(self, lanes, moduli):
        """Per modulus ``p`` of ``moduli``, the lanes whose diagram is mod ``p`` numberable.

        The index criterion asks each chord's index ``m - 2 * negatives``
        (:func:`_interleavings`, read on the sign lanes) to be 0 mod ``p``;
        the answer is kept for the last ``lanes`` and ``moduli`` asked.
        """
        if self._numberable[:2] != (lanes, moduli):
            found = [lanes.ones] * len(moduli)
            for _, _, m, negatives in _interleavings(self.rotation, dict(zip(self.chords, lanes.planes)), lanes.ones):
                if not any(found):
                    break
                found = [lanes.twice_congruent(negatives, m, p, m) & lanes_p if lanes_p else 0
                         for p, lanes_p in zip(moduli, found)]
            self._numberable = lanes, moduli, found
        return self._numberable[2]

    def table(self, lanes):
        """``conway_pairing_table`` in every lane, as :func:`_table_lanes`."""
        return _table_lanes(_walks(_layout((self.rotation,), self.chords), len(self.chords)), lanes.planes)

    def smoothed_tables(self, lanes):
        """:meth:`table` of each smoothing candidate's smoothing (``_smoothing_candidates`` order)."""
        return [_table_lanes(_smoothing_subsets((self.rotation,), self.chords, alpha - 1), lanes.planes)
                for alpha in _smoothing_candidates((self.rotation,), self.chords)]


class _Member(CensusStructure):
    """The structure at a rotation of the word of ``orbit``, in ``orbit``'s chord labels, so that
    its lane ``v`` is ``orbit``'s and it shares ``orbit``'s basepoint-free values.  Only
    :attr:`word` (and :meth:`diagram`) numbers the chords as the census and :func:`recheck` do:
    ``rotation`` renumbered by first occurrence, built when read."""

    def __init__(self, rotation, orbit):
        self.rotation, self._orbit = rotation, orbit
        self.chords, self._index, self.colorable = orbit.chords, orbit._index, orbit.colorable

    @property
    def word(self):
        return _renumbered(self.rotation)[0]

    @property
    def determinant(self):
        return self._orbit.determinant

    def numberable(self, lanes, moduli):
        return self._orbit.numberable(lanes, moduli)


# -- the exhaustive checks -----------------------------------------------------

# Each takes (structure, lanes, config) and returns (population, failing):
# the lanes whose diagram, structure.rotation signed by lanes.vectors[v], is
# in the check's population, and those of them that fail it.  It reads chords
# only through the word, never one by its label.


def _mod8_residues(c2):
    """The residues mod 8 the corollary allows the determinant of a colorable knot whose
    z^2 pairing is ``c2``: det = +-(1 + 4 v2) mod 8 reads only the parity of ``c2``."""
    return {1, 7} if c2 % 2 == 0 else {3, 5}


def _corollary_census(structure, lanes, config):
    """det == +-(1 + 4 v2) mod 8 on a checkerboard colorable knot diagram."""
    if not structure.colorable:
        return 0, 0
    return lanes.ones, 0 if structure.determinant % 8 in _mod8_residues(structure.c2_parity) else lanes.ones


def _det_vs_ascending_census(structure, lanes, config):
    """det == +-(ascending polynomial at 2) mod 8 on a colorable knot diagram.

    The polynomial at 2 is ``C - 2 N`` in each lane, with ``C`` the sum of
    ``2^s * count`` and ``N`` that of ``2^s * negatives`` over the table's
    ascending column.  Only ``N mod 4`` matters, and sizes of 2 or more add
    multiples of 4 to ``N``, so the sizes below 2 stand in for it.
    """
    if not structure.colorable:
        return 0, 0
    det = structure.determinant
    table = structure.table(lanes)
    value = sum([count << size for size, ((count, _), _) in table.items()])
    low = [(count << size, negatives << size) for size, ((count, negatives), _) in table.items() if size < 2]
    bound, negatives = sum([b for b, _ in low]), sum([n for _, n in low])
    agree = (lanes.twice_congruent(negatives, value - det, 8, bound)
             | lanes.twice_congruent(negatives, value + det, 8, bound))
    return lanes.ones, lanes.ones ^ agree


def _main_theorem_census(structure, lanes, config):
    """z^2 pairings mod p agree across basepoints and both variants.

    Against one pairing ``(count0, negatives0)``, another ``(count,
    negatives)`` agrees mod ``p`` where ``2 w = count + count0``, with
    ``w = negatives + count0 - negatives0`` never negative.
    """
    numberable = structure.numberable(lanes, config.moduli)
    population = functools.reduce(operator.or_, numberable, 0)
    if not population:
        return 0, 0
    distinct = {rows for both in structure.z2_pairs for rows in both}
    (count0, negatives0), *others = map(lanes.pair_sum, distinct)
    shift = count0 * lanes.ones - negatives0
    failing = 0
    for p, found in zip(config.moduli, numberable):
        agree = found
        for count, negatives in others:
            if not agree:
                break
            agree &= lanes.twice_congruent(negatives + shift, count + count0, p, count + count0)
        failing |= found ^ agree
    return population, failing


# Every basepoint is read, and numberability does not depend on the basepoint, so each member of
# a rotation orbit, in the representative's labels, has its lanes.  A verdict put in CHECKS in
# its place lacks this declaration.
_main_theorem_census.rotation_invariant = True


def _warp_and_smoothing_census(structure, lanes, config):
    """Vanishing pairings on descending diagrams plus the smoothing lemma.

    Warping degree 0 forces every positive-degree Conway pairing to vanish
    and, on a colorable diagram, determinant 1.  Smoothing a chord whose
    interleaving tails all sit on the basepoint arc of a mod p numberable
    diagram kills the degree-1 ascending pairing exactly, the descending one
    mod p, and all higher odd ascending pairings exactly.
    """
    failing = 0
    if structure.warping_degree == 0:
        if structure.colorable and structure.determinant != 1:
            return lanes.ones, lanes.ones
        for size, columns in structure.table(lanes).items():
            if size:
                for count, negatives in columns:
                    failing |= lanes.nonzero(count, negatives)
    numberable = structure.numberable(lanes, config.moduli)
    numbered = functools.reduce(operator.or_, numberable, 0)
    if numbered:
        for table in structure.smoothed_tables(lanes):
            for size, (ascending, descending) in table.items():
                if size == 1 or size >= 3:
                    failing |= numbered & lanes.nonzero(*ascending)
                if size == 1:
                    count, negatives = descending
                    for p, found in zip(config.moduli, numberable):
                        failing |= found & ~lanes.twice_congruent(negatives, count, p, count)
    return lanes.ones, failing


# -- the check registry --------------------------------------------------------


class _Census:
    """Every one-circle diagram with at most ``max_chords`` chords.

    A sweep shards over the rotation orbits of the unsigned structures,
    evaluates each structure's sign vectors together, and builds a diagram
    only for a failure.  With
    ``colorable`` it visits only the checkerboard colorable structures, which
    are all a check of colorable diagrams needs.  :func:`recheck` refuses a
    code with more than one circle.
    """

    def __init__(self, colorable=False):
        self.colorable = colorable

    def sweep(self, name, verdict_fn, config, shard, num_shards):
        """``(passes, counterexamples)`` of each rotation orbit of this shard.

        The verdict gets each member of the orbit (:meth:`CensusStructure.members`), and the
        lanes of every sign vector, built once per chord count.  One declared
        ``rotation_invariant`` gets the representative alone, its counts taken once per member;
        only a failing orbit is expanded to its members, to list them.  A member's lanes are in
        the representative's labels; only a failing one is renumbered to the census ``word`` of
        its rotation, which moves each failing sign vector to a lane ``v`` of ``word``.  Its
        counterexample is ``(key, diagram)``, ``key = (k, _census_key(word), v)`` being its
        place in census order.  An exception the verdict raises gets a note naming the check and
        the structure.
        """
        invariant = getattr(verdict_fn, "rotation_invariant", False)
        orbits = ((word, max(1, len(word)) // len(stabilizer)) for k in range(config.max_chords + 1)
                  for word, stabilizer in _rotation_orbits(k, self.colorable))
        lanes = None
        for i, (word, size) in enumerate(orbits):
            if i % num_shards != shard:
                continue
            k = len(word) // 2
            if lanes is None or lanes.k != k:
                lanes = SignLanes(list(itertools.product((1, -1), repeat=k)), k)
            structure = orbit = CensusStructure(word)
            passes, failed = 0, []
            try:
                if invariant:
                    population, failing = verdict_fn(orbit, lanes, config)
                    if not failing:
                        yield population.bit_count() * size, []
                        continue
                for structure in orbit.members(size):
                    population, failing = verdict_fn(structure, lanes, config)
                    passes += population.bit_count() - failing.bit_count()
                    if failing:
                        word, label = _renumbered(structure.rotation)
                        key = k, _census_key(word)
                        for v in lanes.selected(failing):
                            signs = tuple([lanes.vectors[v][chord - 1] for chord in label])
                            failed.append(((*key, lanes.vectors.index(signs)), structure.diagram(signs)))
            except Exception as exc:
                code = structure.diagram(lanes.vectors[0])  # every sign +1
                exc.add_note("raised by the %s check on the structure of %s" % (name, code))
                raise
            yield passes, failed

    def recheck(self, name, verdict_fn, diagram, config):
        _require_knot(diagram, "the %s check" % name)
        structure, signs = CensusStructure.from_diagram(diagram)
        population, failing = verdict_fn(structure, SignLanes([signs], len(signs)), config)
        if not population:
            raise PreconditionError("%s is outside the %s check's population" % (diagram, name))
        return not failing


class _Samples:
    """The samples ``(circles, signs)`` that ``population(config)`` yields, each checked by
    ``verdict(circles, signs, config)``; a diagram is built only for a failing sample."""

    def __init__(self, population):
        self.population = population

    def sweep(self, name, verdict_fn, config, shard, num_shards):
        """``(passes, counterexamples)`` of each sample of this shard, a counterexample ``(index, diagram)``.
        An exception the verdict raises gets a note naming the check, the sample and its code."""
        for i, (circles, signs) in enumerate(self.population(config)):
            if i % num_shards == shard:
                try:
                    passed = verdict_fn(circles, signs, config)
                except Exception as exc:
                    exc.add_note("raised by the %s check on sample %d, %s" % (name, i, make_diagram(circles, signs)))
                    raise
                yield (1, []) if passed else (0, [(i, make_diagram(circles, signs))])

    def recheck(self, name, verdict_fn, diagram, config):
        return verdict_fn(diagram.circles, dict(diagram.signs), config)


# Each check is (population, verdict): the verdict a sweep runs over the
# population is the one recheck runs on a recorded code.
CHECKS = {
    "cor-det": (_Census(colorable=True), _corollary_census),
    "det-asc": (_Census(colorable=True), _det_vs_ascending_census),
    "main-theorem": (_Census(), _main_theorem_census),
    "skein": (_Samples(_population_random_skein), skein_verdict),
    "warp-smooth": (_Census(), _warp_and_smoothing_census),
}


def _run_shard(name, config, shard, num_shards):
    """``(passes, counterexamples)`` of one shard, each counterexample ``(key, code)`` with the key
    of its place in the population."""
    population, verdict_fn = CHECKS[name]
    passes, counterexamples = 0, []
    for passed, failed in population.sweep(name, verdict_fn, config, shard, num_shards):
        passes += passed
        counterexamples += [(key, serialize_gauss_code(diagram)) for key, diagram in failed]
    return passes, counterexamples


def _send_shard(conn, name, config, shard, num_shards):
    """Run :func:`_run_shard` in a child process and send its result, or the exception it raised
    with the child's traceback, which prints its notes, as its one note (a traceback does not
    pickle)."""
    try:
        part = _run_shard(name, config, shard, num_shards)
    except Exception as exc:
        exc.__notes__ = ["raised in shard %d: %s" % (shard, traceback.format_exc())]
        part = exc
    conn.send(part)
    conn.close()


def _run_shards(name, config, num_shards):
    """The parts of ``num_shards`` shards: this process sweeps shard 0 and one child process
    each other shard, so one shard starts no process.

    A child sends its part over a one-way pipe, whose send end this process
    closes once the child has started, so a child that exits without
    reporting ends the read rather than hanging it.  A part is read before its
    child is joined, as a long counterexample list can fill the pipe.  Every
    child is joined before this returns or raises, and terminated first if it
    raises.
    """
    children = []
    try:
        for shard in range(1, num_shards):
            receiver, sender = multiprocessing.Pipe(duplex=False)
            child = multiprocessing.Process(target=_send_shard, args=(sender, name, config, shard, num_shards))
            child.start()
            sender.close()
            children.append((child, receiver))
        parts = [_run_shard(name, config, 0, num_shards)]
        for shard, (child, receiver) in enumerate(children, 1):
            try:
                part = receiver.recv()
            except EOFError:
                child.join()
                raise RuntimeError("shard %d of the %s check exited with code %s before it reported"
                                   % (shard, name, child.exitcode)) from None
            if isinstance(part, Exception):
                raise part
            parts.append(part)
        return parts
    except BaseException:
        for child, _ in children:
            child.terminate()
        raise
    finally:
        for child, receiver in children:
            child.join()
            receiver.close()


def _require_checks(names):
    for name in names:
        if name not in CHECKS:
            raise UnknownCheckError("unknown check %r; available: %s" % (name, ", ".join(sorted(CHECKS))))


def run_check(name, config=None):
    """Sweep check ``name`` in ``config.workers`` processes, this one included (0 is serial,
    as 1 is); the report is the serial sweep's but for ``elapsed_ms``, its counterexamples in
    population order."""
    _require_checks([name])
    if config is None:
        config = SweepConfig()
    start = time.monotonic()
    parts = _run_shards(name, config, max(1, config.workers))
    passes = sum(p for p, _ in parts)
    keyed = sorted(itertools.chain.from_iterable(c for _, c in parts), key=operator.itemgetter(0))
    counterexamples = tuple(code for _, code in keyed)
    elapsed = int((time.monotonic() - start) * 1000)
    return CheckReport(
        check=name,
        population=passes + len(counterexamples),
        passes=passes,
        failures=len(counterexamples),
        counterexamples=counterexamples,
        seed=config.seed,
        elapsed_ms=elapsed,
    )


def run_checks(config=None, names=None):
    """Run each check in ``names`` (default: all), refusing an unknown name before any runs."""
    if names is None:
        names = sorted(CHECKS)
    _require_checks(names)
    return [run_check(name, config) for name in names]


def recheck(name, code, config=None):
    """Run the verdict a sweep of check ``name`` runs on one recorded code.

    A one-circle code outside the check's population raises
    :class:`PreconditionError`, and so does a code with more than one
    circle on a census check.
    """
    _require_checks([name])
    if config is None:
        config = SweepConfig()
    population, verdict_fn = CHECKS[name]
    return population.recheck(name, verdict_fn, parse_gauss_code(code), config)
