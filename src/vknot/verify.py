"""Sweep checks for the determinant/ascending-polynomial relations.

Each check walks a population of diagrams (exhaustive up to a chord bound,
or seeded random) and applies a pure verdict.  An exhaustive check's
verdict reads one diagram of the census as an unsigned chord structure and
a sign vector, so work done once per structure serves all of its diagrams
(see :class:`CensusStructure`).  Failures never abort a sweep: the
offending Gauss codes are collected, because a failure almost certainly
pins down a convention bug and the codes are the debugging artifact.
:func:`recheck` runs the verdict the sweep ran on a recorded code, so it
reproduces the failure.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from functools import cached_property

from .arrows import (
    _basepoint_layouts,
    _crossing_change_tables,
    _pairing_sums,
    _plus_mask,
    _qualifying_subsets,
    _z2_pairs,
    _z2_sums,
    conway_pairing_table,
)
from .determinant import determinant
from .diagram import (
    _congruent,
    _ends_of_opposite_parity,
    _index_rows,
    _layout,
    _require_knot,
    make_diagram,
    parse_gauss_code,
    serialize_gauss_code,
    smooth,
    warping_degree,
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
    canonical: bool = False


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
    pairing domain).
    """
    chords = diagram.chord_ids() if diagram.num_circles == 1 else connecting_chords(diagram)
    tables = _crossing_change_tables(diagram)
    for chord in chords:
        t_plus, t_minus = tables[chord] if diagram.sign(chord) > 0 else tables[chord][::-1]
        # the smoothing gets its own walk, so the identity stays a check
        t_zero = conway_pairing_table(smooth(diagram, chord))
        sizes = set(t_plus) | set(t_minus) | {s + 1 for s in t_zero}
        for n in sizes:
            if n < 1:
                continue
            for column in (0, 1):
                lhs = t_plus.get(n, (0, 0))[column] - t_minus.get(n, (0, 0))[column]
                rhs = t_zero.get(n - 1, (0, 0))[column]
                if lhs != rhs:
                    return False
    return True


# -- the census engine ---------------------------------------------------------


def _smoothing_candidates(diagram):
    """Chords whose interleaving chords all have tails on the basepoint arc."""
    if diagram.num_circles != 1:
        return
    tails, heads, _ = _layout(diagram.circles, diagram.chord_ids())
    for chord, t, h, row in zip(diagram.chord_ids(), tails, heads, _index_rows(tails, heads)):
        # a coefficient is +1 for a tail on the arc from h to t, which holds the basepoint when t < h
        basepoint_side = 1 if t < h else -1
        if all(coef == basepoint_side for _, coef in row):
            yield chord


class CensusStructure:
    """One unsigned structure of the census and what its diagrams share.

    The 2^k diagrams of a structure differ only in their chord signs.  None
    of the following reads a sign, so each is computed once, on first use:
    mod 2 colorability, the determinant, the warping degree, the z^2 pair
    lists at every basepoint, the chord subsets that can add to the Conway
    table of the diagram and of each smoothing candidate's smoothing, and the
    interleaving rows that make each chord's index a linear form in the
    signs.  The methods taking ``signs`` evaluate one diagram from them;
    ``signs[i]`` is the sign of chord ``i + 1``.
    """

    def __init__(self, word):
        self.word = word
        self.chords = tuple(range(1, len(word) // 2 + 1))
        self.template = make_diagram([word], {c: 1 for c in self.chords})

    @classmethod
    def from_diagram(cls, diagram):
        """``(structure, signs)`` of a one-circle diagram.

        The chords are relabeled 1..k by first occurrence, as the census
        numbers them, so ``structure.diagram(signs)`` is ``diagram`` up to
        that relabeling.
        """
        _require_knot(diagram, "a census structure")
        label = {}
        word = tuple((label.setdefault(c, len(label) + 1), is_head) for c, is_head in diagram.circles[0])
        return cls(word), tuple(diagram.sign(chord) for chord in label)

    def diagram(self, signs):
        return make_diagram([self.word], zip(self.chords, signs))

    @cached_property
    def layout(self):
        return _layout((self.word,), self.chords)

    @cached_property
    def colorable(self):
        """Mod 2 colorability: every chord interleaves an even number of others."""
        return _ends_of_opposite_parity(self.word)

    @cached_property
    def determinant(self):
        return determinant(self.template)

    @cached_property
    def warping_degree(self):
        return warping_degree(self.template)

    @cached_property
    def index_rows(self):
        """Per chord ``c``, ``(i, coefficient)`` of each sign ``signs[i]`` in :func:`index`'s
        sum: the index of ``c`` is ``signs[c - 1]`` times the row's dot product with ``signs``."""
        tails, heads, _ = self.layout
        return _index_rows(tails, heads)

    @cached_property
    def c2_parity(self):
        """The parity of c2, the ascending z^2 pairing at the basepoint.

        c2 sums +-1 over the ascending pairs, so its parity is their count's.
        """
        return sum([mask.bit_count() for _, mask in _z2_pairs(self.layout)[0]]) % 2

    @cached_property
    def z2_pairs(self):
        """The rows of :func:`_z2_pairs` with the basepoint in each gap, in ``basepoint_positions`` order."""
        return [_z2_pairs(shifted) for shifted in _basepoint_layouts(self.layout)]

    @cached_property
    def subsets(self):
        """Each ascending or descending one-component subset with its flags."""
        return _qualifying_subsets(self.layout, len(self.chords))

    @cached_property
    def smoothed_subsets(self):
        """:attr:`subsets` of each smoothing candidate's smoothing.

        Subsets hold this structure's chord indices, so ``signs`` applies.
        """
        out = []
        for alpha in _smoothing_candidates(self.template):
            smoothed = smooth(self.template, alpha)
            kept = smoothed.chord_ids()
            layout = _layout(smoothed.circles, kept)
            out.append([
                (tuple(kept[i] - 1 for i in subset), asc, des)
                for subset, asc, des in _qualifying_subsets(layout, len(kept))
            ])
        return out

    def numberable(self, signs, p):
        """``is_mod_p_numberable(self.diagram(signs), p)``."""
        if p == 2:
            return self.colorable
        if p < 0:
            raise ValueError("modulus must be >= 0")
        for row in self.index_rows:
            dot = 0
            for i, coef in row:
                dot += coef * signs[i]
            if not _congruent(dot, 0, p):
                return False
        return True

    def z2_at_basepoints(self, signs):
        """``z2_pairings_at_basepoints(self.diagram(signs))``."""
        plus = _plus_mask(signs)
        return [_z2_sums(rows, signs, plus) for rows in self.z2_pairs]

    def table(self, signs):
        """``conway_pairing_table(self.diagram(signs))``."""
        return _pairing_sums(self.subsets, signs)

    def smoothed_tables(self, signs):
        """``conway_pairing_table`` of each candidate's smoothing of ``self.diagram(signs)``."""
        return [_pairing_sums(subsets, signs) for subsets in self.smoothed_subsets]


# -- the exhaustive checks -----------------------------------------------------

# Each takes (structure, signs, config) and returns the verdict on
# structure.diagram(signs), or None if that diagram is outside the check's
# population.


def _all_congruent(values, p):
    """True iff all ``values`` agree mod ``p`` (exactly when ``p = 0``)."""
    return all(_congruent(v, w, p) for v, w in zip(values, values[1:]))


def _corollary_census(structure, signs, config):
    """det == +-(1 + 4 v2) mod 8 on a checkerboard colorable knot diagram."""
    if not structure.colorable:
        return None
    allowed = {1, 7} if structure.c2_parity == 0 else {3, 5}
    return structure.determinant % 8 in allowed


def _det_vs_ascending_census(structure, signs, config):
    """det == +-(ascending polynomial at 2) mod 8 on a colorable knot diagram."""
    if not structure.colorable:
        return None
    det = structure.determinant
    value = sum(asc * 2**size for size, (asc, _) in structure.table(signs).items())
    return (det - value) % 8 == 0 or (det + value) % 8 == 0


def _main_theorem_census(structure, signs, config):
    """z^2 pairings mod p agree across basepoints and both variants."""
    moduli = [p for p in config.moduli if structure.numberable(signs, p)]
    if not moduli:
        return None
    values = list({v for pair in structure.z2_at_basepoints(signs) for v in pair})
    return all(_all_congruent(values, p) for p in moduli)


def _warp_and_smoothing_census(structure, signs, config):
    """Vanishing pairings on descending diagrams plus the smoothing lemma.

    Warping degree 0 forces every positive-degree Conway pairing to vanish
    and, on a colorable diagram, determinant 1.  Smoothing a chord whose
    interleaving tails all sit on the basepoint arc of a mod p numberable
    diagram kills the degree-1 ascending pairing exactly, the descending one
    mod p, and all higher odd ascending pairings exactly.
    """
    if structure.warping_degree == 0:
        if any(sums != (0, 0) for size, sums in structure.table(signs).items() if size):
            return False
        if structure.colorable and structure.determinant != 1:
            return False
    moduli = [p for p in config.moduli if structure.numberable(signs, p)]
    if moduli:
        for table in structure.smoothed_tables(signs):
            asc1, des1 = table.get(1, (0, 0))
            if asc1 != 0 or not all(_congruent(des1, 0, p) for p in moduli):
                return False
            if any(asc != 0 for size, (asc, _) in table.items() if size >= 3):
                return False
    return True


# -- the check registry --------------------------------------------------------


class _Census:
    """Every one-circle diagram with at most ``max_chords`` chords.

    A sweep shards over the unsigned structures and builds a diagram only
    for a failure.  ``links`` is what :func:`recheck` answers on a code with
    more than one circle; None refuses it.
    """

    def __init__(self, links=None):
        self.links = links

    def sweep(self, verdict_fn, config, shard, num_shards):
        """``(verdict, diagram)`` for this shard, in census order; ``diagram`` is None on a pass."""
        structures = enumerate_structures(config.max_chords, config.canonical)
        for i, (word, vectors) in enumerate(structures):
            if i % num_shards != shard:
                continue
            structure = CensusStructure(word)
            for signs in vectors:
                verdict = verdict_fn(structure, signs, config)
                if verdict is not None:
                    yield verdict, None if verdict else structure.diagram(signs)

    def recheck(self, name, verdict_fn, diagram, config):
        if diagram.num_circles != 1 and self.links is not None:
            return self.links
        _require_knot(diagram, "the %s check" % name)
        verdict = verdict_fn(*CensusStructure.from_diagram(diagram), config)
        if verdict is None:
            raise PreconditionError("%s is outside the %s check's population" % (diagram, name))
        return verdict


class _Diagrams:
    """The diagrams ``population(config)`` yields, each checked by ``verdict(diagram, config)``."""

    def __init__(self, population):
        self.population = population

    def sweep(self, verdict_fn, config, shard, num_shards):
        for i, diagram in enumerate(self.population(config)):
            if i % num_shards == shard:
                yield verdict_fn(diagram, config), diagram

    def recheck(self, name, verdict_fn, diagram, config):
        return verdict_fn(diagram, config)


# Each check is (population, verdict): the verdict a sweep runs over the
# population is the one recheck runs on a recorded code.
CHECKS = {
    "cor-det": (_Census(), _corollary_census),
    "det-asc": (_Census(), _det_vs_ascending_census),
    "main-theorem": (_Census(), _main_theorem_census),
    "skein": (_Diagrams(_population_random_skein), skein_verdict),
    "warp-smooth": (_Census(links=True), _warp_and_smoothing_census),
}


def _run_shard(args):
    name, config, shard, num_shards = args
    population, verdict_fn = CHECKS[name]
    passes = failures = 0
    counterexamples = []
    for verdict, diagram in population.sweep(verdict_fn, config, shard, num_shards):
        if verdict:
            passes += 1
        else:
            failures += 1
            counterexamples.append(serialize_gauss_code(diagram))
    return passes, failures, counterexamples


def _require_checks(names):
    for name in names:
        if name not in CHECKS:
            raise UnknownCheckError("unknown check %r; available: %s" % (name, ", ".join(sorted(CHECKS))))


def run_check(name, config=None):
    _require_checks([name])
    if config is None:
        config = SweepConfig()
    start = time.monotonic()
    if config.workers > 1:
        shards = [(name, config, s, config.workers) for s in range(config.workers)]
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            parts = list(pool.map(_run_shard, shards))
    else:
        parts = [_run_shard((name, config, 0, 1))]
    passes = sum(p for p, _, _ in parts)
    failures = sum(f for _, f, _ in parts)
    counterexamples = tuple(itertools.chain.from_iterable(c for _, _, c in parts))
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
    circle unless the check passes it (``warp-smooth`` does).
    """
    _require_checks([name])
    if config is None:
        config = SweepConfig()
    population, verdict_fn = CHECKS[name]
    return population.recheck(name, verdict_fn, parse_gauss_code(code), config)
