"""Sweep checks for the determinant/ascending-polynomial relations.

Each check walks a population of diagrams (exhaustive up to a chord bound,
or seeded random) and applies a pure verdict.  An exhaustive check's
verdict reads an unsigned chord structure of the census and all of its
sign vectors at once, one per lane of an integer, so work done once per
structure serves all of its diagrams (see :class:`CensusStructure` and
:class:`SignLanes`).  Failures never abort a sweep: the
offending Gauss codes are collected, because a failure almost certainly
pins down a convention bug and the codes are the debugging artifact.
:func:`recheck` runs the verdict the sweep ran on a recorded code, so it
reproduces the failure.
"""

from __future__ import annotations

import functools
import heapq
import json
import math
import multiprocessing
import operator
import random
import time
import traceback
from dataclasses import asdict, dataclass

from .arrows import (
    _crossing_change_subsets,
    _endpoints,
    _pairing_sums,
    _qualifying_subsets,
    _z2_pairs,
)
from .determinant import _word_determinant
from .diagram import (
    _ends_of_opposite_parity,
    _first_occurrence,
    _interleavings,
    _layout,
    _require_knot,
    _rotations,
    _smoothed_words,
    _warping_degree,
    make_diagram,
    parse_gauss_code,
    serialize_gauss_code,
)
from .enumeration import (
    connecting_chords,
    enumerate_structures,
    random_knot_diagram,
    random_link_diagram,
)
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
    rng = random.Random(config.seed)
    for i in range(config.samples):
        k = rng.randint(1, config.random_max_chords)
        yield (random_link_diagram if i % 2 else random_knot_diagram)(k, rng)


def skein_verdict(diagram, config):
    """Exact skein identities at every resolvable crossing.

    For a knot every chord is resolved; for a two-circle diagram only chords
    joining the circles (smoothing a self-chord leaves the one- or two-circle
    pairing domain).  A smoothing's table is ``conway_pairing_table`` of
    ``smooth(diagram, chord)``, read from the smoothed endpoint words.
    """
    chords = diagram.chord_ids()
    layout, signs = _endpoints(diagram)
    same, switched = _crossing_change_subsets(layout)
    for chord in chords if diagram.num_circles == 1 else connecting_chords(diagram):
        i = chords.index(chord)
        tables = (_pairing_sums(same[i], signs),
                  _pairing_sums(switched[i], signs[:i] + [-signs[i]] + signs[i + 1 :]))
        t_plus, t_minus = tables if signs[i] > 0 else tables[::-1]
        # the smoothing gets its own walk, so the identity stays a check
        smoothed = _smoothed_layout(diagram.circles, chords, i)
        t_zero = _pairing_sums(_qualifying_subsets(smoothed, len(chords) - 1), signs[:i] + signs[i + 1 :])
        sizes = set(t_plus) | set(t_minus) | {s + 1 for s in t_zero}
        for n in sizes:
            for column in (0, 1):
                lhs = t_plus.get(n, (0, 0))[column] - t_minus.get(n, (0, 0))[column]
                rhs = t_zero.get(n - 1, (0, 0))[column]
                if lhs != rhs:
                    return False
    return True


def _smoothed_layout(circles, chords, i):
    """The layout of the smoothing along ``chords[i]`` (:func:`smooth`), whose chords are the others."""
    return _layout(_smoothed_words(circles, chords[i]), chords[:i] + chords[i + 1 :])


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


def _table_lanes(classified, lanes):
    """The Conway table of classified subsets per lane, as
    ``{size: ((count, negatives), (count, negatives))}``, ascending then descending.

    ``count`` is the number of qualifying subsets of that size and
    ``negatives`` counts per lane those with sign product -1, so the pairing
    is ``count - 2 * negatives``; every size with a qualifying subset is a key.
    """
    planes = lanes.planes
    sums = {}
    for subset, asc, des in classified:
        negative = functools.reduce(operator.xor, [planes[i] for i in subset], 0)
        entry = sums.setdefault(len(subset), [0, 0, 0, 0])
        if asc:
            entry[0] += 1
            entry[1] += negative
        if des:
            entry[2] += 1
            entry[3] += negative
    return {size: ((a, na), (d, nd)) for size, (a, na, d, nd) in sorted(sums.items())}


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
    endpoint word when read: mod 2 colorability, the determinant, the warping
    degree, the z^2 pairs at every basepoint, and the chord subsets that can
    add to the Conway table of the diagram and of each smoothing candidate's
    smoothing (walked by :meth:`table` and :meth:`smoothed_tables`).  A
    structure serves one verdict, which reads each at most once, so only the
    word is kept.  The methods taking ``lanes``
    (:class:`SignLanes`) evaluate the diagrams of all its sign vectors from
    them at once; ``signs[i]`` is the sign of chord ``i + 1``.  No diagram is
    built but by :meth:`diagram`.
    """

    def __init__(self, word):
        self.word = word
        self.chords = tuple(range(1, len(word) // 2 + 1))

    @classmethod
    def from_diagram(cls, diagram):
        """``(structure, signs)`` of a one-circle diagram.

        The chords are relabeled 1..k by first occurrence, as the census
        numbers them, so ``structure.diagram(signs)`` is ``diagram`` up to
        that relabeling.
        """
        _require_knot(diagram, "a census structure")
        label = _first_occurrence(c for c, _ in diagram.circles[0])
        word = tuple((label[c] + 1, is_head) for c, is_head in diagram.circles[0])
        return cls(word), tuple(diagram.sign(chord) for chord in label)

    def diagram(self, signs):
        return make_diagram([self.word], zip(self.chords, signs))

    @property
    def colorable(self):
        """Mod 2 colorability: every chord interleaves an even number of others."""
        return _ends_of_opposite_parity(self.word)

    @property
    def determinant(self):
        return _word_determinant((self.word,), self.chords)

    @property
    def warping_degree(self):
        """The chords met head-first from the basepoint."""
        return _warping_degree(self.word)

    @property
    def _index(self):
        """``{chord: i}``: chord ``i + 1`` is bit ``i`` of a :func:`_z2_pairs` row, as in ``lanes.planes``."""
        return {chord: chord - 1 for chord in self.chords}

    @property
    def c2_parity(self):
        """The parity of c2, the ascending z^2 pairing at the basepoint.

        c2 sums +-1 over the ascending pairs, so its parity is their count's.
        """
        return sum([mask.bit_count() for _, mask in _z2_pairs(self.word, self._index)[0]]) % 2

    @property
    def z2_pairs(self):
        """The rows of :func:`_z2_pairs` with the basepoint in each gap, in ``basepoint_positions``
        order, as frozensets: one pair set has one set of rows."""
        index = self._index
        return [tuple(map(frozenset, _z2_pairs(rotated, index))) for rotated in _rotations(self.word)]

    def numberable(self, lanes, moduli):
        """Per modulus ``p`` of ``moduli``, the lanes whose diagram is mod ``p`` numberable.

        The index criterion asks each chord's index ``m - 2 * negatives``
        (:func:`_interleavings`, read on the sign lanes) to be 0 mod ``p``.
        """
        if any(p < 0 for p in moduli):
            raise ValueError("modulus must be >= 0")
        found = [lanes.ones] * len(moduli)
        for _, _, m, negatives in _interleavings(self.word, dict(zip(self.chords, lanes.planes)), lanes.ones):
            if not any(found):
                break
            found = [lanes.twice_congruent(negatives, m, p, m) & lanes_p if lanes_p else 0
                     for p, lanes_p in zip(moduli, found)]
        return found

    def table(self, lanes):
        """``conway_pairing_table`` in every lane, as :func:`_table_lanes`."""
        return _table_lanes(_qualifying_subsets(_layout((self.word,), self.chords), len(self.chords)), lanes)

    def smoothed_tables(self, lanes):
        """:meth:`table` of each smoothing candidate's smoothing (``_smoothing_candidates`` order)."""
        out = []
        for alpha in _smoothing_candidates((self.word,), self.chords):
            layout = _smoothed_layout((self.word,), self.chords, alpha - 1)
            # the smoothing's chord index i is this structure's i, or i + 1 from alpha's place on,
            # so the subsets hold this structure's chord indices and its lanes apply
            subsets = [(tuple(i + (i >= alpha - 1) for i in subset), asc, des)
                       for subset, asc, des in _qualifying_subsets(layout, len(self.chords) - 1)]
            out.append(_table_lanes(subsets, lanes))
        return out


# -- the exhaustive checks -----------------------------------------------------

# Each takes (structure, lanes, config) and returns (population, failing):
# the lanes whose diagram structure.diagram(lanes.vectors[v]) is in the
# check's population, and those of them that fail it.


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

    A sweep shards over the unsigned structures, evaluates each one's sign
    vectors together, and builds a diagram only for a failure.  With
    ``colorable`` it visits only the checkerboard colorable structures, which
    are all a check of colorable diagrams needs.  :func:`recheck` refuses a
    code with more than one circle.
    """

    def __init__(self, colorable=False):
        self.colorable = colorable

    def sweep(self, verdict_fn, config, shard, num_shards):
        """``(index, passes, failing diagrams)`` of each structure of this shard, in census order."""
        structures = enumerate_structures(config.max_chords, colorable=self.colorable)
        lanes = None
        for i, (word, vectors) in enumerate(structures):
            if i % num_shards != shard:
                continue
            if lanes is None or lanes.k != len(word) // 2:
                lanes = SignLanes(vectors, len(word) // 2)
            structure = CensusStructure(word)
            population, failing = verdict_fn(structure, lanes, config)
            yield (i, population.bit_count() - failing.bit_count(),
                   [structure.diagram(vectors[v]) for v in lanes.selected(failing)])

    def recheck(self, name, verdict_fn, diagram, config):
        _require_knot(diagram, "the %s check" % name)
        structure, signs = CensusStructure.from_diagram(diagram)
        population, failing = verdict_fn(structure, SignLanes([signs], len(signs)), config)
        if not population:
            raise PreconditionError("%s is outside the %s check's population" % (diagram, name))
        return not failing


class _Diagrams:
    """The diagrams ``population(config)`` yields, each checked by ``verdict(diagram, config)``."""

    def __init__(self, population):
        self.population = population

    def sweep(self, verdict_fn, config, shard, num_shards):
        for i, diagram in enumerate(self.population(config)):
            if i % num_shards == shard:
                yield (i, 1, []) if verdict_fn(diagram, config) else (i, 0, [diagram])

    def recheck(self, name, verdict_fn, diagram, config):
        return verdict_fn(diagram, config)


# Each check is (population, verdict): the verdict a sweep runs over the
# population is the one recheck runs on a recorded code.
CHECKS = {
    "cor-det": (_Census(colorable=True), _corollary_census),
    "det-asc": (_Census(colorable=True), _det_vs_ascending_census),
    "main-theorem": (_Census(), _main_theorem_census),
    "skein": (_Diagrams(_population_random_skein), skein_verdict),
    "warp-smooth": (_Census(), _warp_and_smoothing_census),
}


def _run_shard(name, config, shard, num_shards):
    """``(passes, failures, counterexamples)`` of one shard, each counterexample
    ``(index, code)`` with the index of its structure or sample in the population."""
    population, verdict_fn = CHECKS[name]
    passes = failures = 0
    counterexamples = []
    for index, passed, failed in population.sweep(verdict_fn, config, shard, num_shards):
        passes += passed
        failures += len(failed)
        counterexamples += [(index, serialize_gauss_code(diagram)) for diagram in failed]
    return passes, failures, counterexamples


def _send_shard(conn, name, config, shard, num_shards):
    """Run :func:`_run_shard` in a child process and send its result, or the exception it raised
    with the child's traceback as a note (a traceback does not pickle)."""
    try:
        part = _run_shard(name, config, shard, num_shards)
    except Exception as exc:
        exc.__notes__ = [*getattr(exc, "__notes__", ()), "raised in shard %d: %s" % (shard, traceback.format_exc())]
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
    as 1 is); the report is the serial sweep's but for ``elapsed_ms``."""
    _require_checks([name])
    if config is None:
        config = SweepConfig()
    start = time.monotonic()
    parts = _run_shards(name, config, max(1, config.workers))
    passes = sum(p for p, _, _ in parts)
    failures = sum(f for _, f, _ in parts)
    # each index is one shard's, and a shard lists its own in increasing order
    merged = heapq.merge(*(c for _, _, c in parts), key=operator.itemgetter(0))
    counterexamples = tuple(code for _, code in merged)
    elapsed = int((time.monotonic() - start) * 1000)
    return CheckReport(
        check=name,
        population=passes + failures,
        passes=passes,
        failures=failures,
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
