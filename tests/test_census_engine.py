"""Differential tests of the census engine.

Each exhaustive check classifies every unsigned chord structure once and
evaluates all of its sign vectors from that, one per lane of an integer.  Its reference is the library
evaluated on each materialized diagram, and the per-diagram verdicts below
with their population filters: the checks as they read before the structure
forms became their only implementation.  A sweep of a reference verdict
over its population must report exactly what ``run_check`` reports.
"""

import contextlib
import functools
import itertools
import json
import math
import multiprocessing
import operator
import os
import random
import signal

import pytest
from braidutil import braid_closure_gauss_code

from vknot.arrows import (
    ascending_polynomial,
    conway_pairing,
    conway_pairing_table,
    z2_pairings_at_basepoints,
)
from vknot.cli import main
from vknot.determinant import determinant
from vknot import verify
from vknot.diagram import (
    _congruent,
    _first_occurrence,
    _renumbered,
    _require_knot,
    alexander_numbering,
    crossing_change,
    is_mod_p_numberable,
    make_diagram,
    _rotations,
    parse_gauss_code,
    serialize_gauss_code,
    smooth,
    warping_degree,
)
from vknot.enumeration import (
    _census_key,
    _rotation_orbits,
    _words,
    enumerate_all_diagrams,
    enumerate_structures,
    random_knot_diagram,
)
from vknot.verify import (
    CHECKS,
    CensusStructure,
    SignLanes,
    SweepConfig,
    _Census,
    _corollary_census,
    _main_theorem_census,
    _smoothing_candidates,
    recheck,
    run_check,
)

CENSUS_CHECKS = ["cor-det", "det-asc", "main-theorem", "warp-smooth"]

# A sweep's child processes see a monkeypatched CHECKS only when forked from this one.
FORKED_CHILDREN = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork", reason="child processes do not inherit a patched CHECKS"
)


# -- the per-diagram reference -------------------------------------------------


def _population_colorable(config):
    for diagram in enumerate_all_diagrams(config.max_chords):
        if is_mod_p_numberable(diagram, 2):
            yield diagram


def _population_numberable_any(config):
    for diagram in enumerate_all_diagrams(config.max_chords):
        if any(is_mod_p_numberable(diagram, p) for p in config.moduli):
            yield diagram


def _population_all(config):
    yield from enumerate_all_diagrams(config.max_chords)


def corollary_verdict(diagram, config):
    """det == +-(1 + 4 v2) mod 8 on a checkerboard colorable knot diagram."""
    _require_knot(diagram, "the cor-det check")
    det = determinant(diagram)
    vv = conway_pairing(diagram, 2, "ascending") % 2
    allowed = {1, 7} if vv == 0 else {3, 5}
    return det % 8 in allowed


def det_vs_ascending_verdict(diagram, config):
    """det == +-(ascending polynomial at 2) mod 8, full evaluation."""
    _require_knot(diagram, "the det-asc check")
    det = determinant(diagram)
    value = ascending_polynomial(diagram)(2)
    return (det - value) % 8 == 0 or (det + value) % 8 == 0


def _all_congruent(values, p):
    """True iff all ``values`` agree mod ``p`` (exactly when ``p = 0``)."""
    return all(_congruent(v, w, p) for v, w in zip(values, values[1:]))


def main_theorem_verdict(diagram, config):
    """z^2 pairings mod p agree across basepoints and both variants."""
    _require_knot(diagram, "the main-theorem check")
    values = [v for pair in z2_pairings_at_basepoints(diagram) for v in pair]
    for p in config.moduli:
        if is_mod_p_numberable(diagram, p) and not _all_congruent(values, p):
            return False
    return True


def warp_and_smoothing_verdict(diagram, config):
    """Vanishing pairings on descending diagrams plus the smoothing lemma."""
    if diagram.num_circles != 1:
        return True
    if warping_degree(diagram) == 0:
        if any(sums != (0, 0) for size, sums in conway_pairing_table(diagram).items() if size):
            return False
        if is_mod_p_numberable(diagram, 2) and determinant(diagram) != 1:
            return False
    moduli = [p for p in config.moduli if is_mod_p_numberable(diagram, p)]
    if moduli:
        for alpha in _smoothing_candidates(diagram.circles, diagram.chord_ids()):
            table = conway_pairing_table(smooth(diagram, alpha))
            asc1, des1 = table.get(1, (0, 0))
            if asc1 != 0 or not all(_congruent(des1, 0, p) for p in moduli):
                return False
            if any(asc != 0 for size, (asc, _) in table.items() if size >= 3):
                return False
    return True


REFERENCE = {
    "cor-det": (_population_colorable, corollary_verdict),
    "det-asc": (_population_colorable, det_vs_ascending_verdict),
    "main-theorem": (_population_numberable_any, main_theorem_verdict),
    "warp-smooth": (_population_all, warp_and_smoothing_verdict),
}


def _reference_fields(name, population, verdict, config):
    """The report fields but ``elapsed_ms`` of a per-diagram sweep."""
    passes = 0
    counterexamples = []
    for diagram in population(config):
        if verdict(diagram, config):
            passes += 1
        else:
            counterexamples.append(serialize_gauss_code(diagram))
    return {
        "check": name,
        "population": passes + len(counterexamples),
        "passes": passes,
        "failures": len(counterexamples),
        "counterexamples": counterexamples,
        "seed": config.seed,
    }


def _fields(report):
    data = report.to_dict()
    data.pop("elapsed_ms")
    return data


# -- tests ---------------------------------------------------------------------


def _lane(lanes, x, v):
    """The value lane ``v`` of ``x`` holds."""
    return x >> v * lanes.width & (1 << lanes.width) - 1


def _signed(lanes, v, count, negatives):
    return count - 2 * _lane(lanes, negatives, v)


def _table_at(lanes, v, table):
    """The lane-``v`` Conway table of ``table`` (:meth:`CensusStructure.table`), as
    ``conway_pairing_table`` returns it."""
    signed = {size: (_signed(lanes, v, *asc), _signed(lanes, v, *des)) for size, (asc, des) in table.items()}
    return {size: sums for size, sums in signed.items() if sums != (0, 0)}


def _z2_lanes(structure, lanes):
    """``z2_pairings_at_basepoints`` in every lane, from the structure's rows."""
    return [tuple(map(lanes.pair_sum, both)) for both in structure.z2_pairs]


def _z2_at(lanes, v, z2):
    return [tuple(_signed(lanes, v, *column) for column in both) for both in z2]


def test_structure_values_match_library_on_census():
    # every lane evaluator against the library, on every sign vector of the census
    diagrams = enumerate_all_diagrams(4)
    checked = 0
    moduli = (0, 2, 3, 5)
    for word, vectors in enumerate_structures(4):
        structure = CensusStructure(word)
        lanes = SignLanes(vectors, len(structure.chords))
        numberable = structure.numberable(lanes, moduli)
        z2 = _z2_lanes(structure, lanes)
        table = structure.table(lanes)
        smoothed = structure.smoothed_tables(lanes)
        assert all(found >> lanes.width * len(vectors) == 0 for found in numberable), word
        for v, signs in enumerate(vectors):
            G = next(diagrams)
            assert structure.diagram(signs) == G
            code = str(G)
            rebuilt, rebuilt_signs = CensusStructure.from_diagram(G)
            assert (rebuilt.word, rebuilt_signs) == (word, signs), code
            colorable = is_mod_p_numberable(G, 2)
            assert structure.colorable == colorable, code
            for p, found in zip(moduli, numberable):
                assert _lane(lanes, found, v) == is_mod_p_numberable(G, p), (code, p)
            if colorable:
                assert structure.determinant == determinant(G), code
            assert structure.c2_parity == conway_pairing(G, 2, "ascending") % 2, code
            assert structure.warping_degree == warping_degree(G), code
            assert _z2_at(lanes, v, z2) == z2_pairings_at_basepoints(G), code
            assert _table_at(lanes, v, table) == conway_pairing_table(G), code
            assert [_table_at(lanes, v, t) for t in smoothed] == [
                conway_pairing_table(smooth(G, alpha)) for alpha in _smoothing_candidates(G.circles, G.chord_ids())
            ], code
            checked += 1
    assert next(diagrams, None) is None
    assert checked == 27893
    # past the census: a seeded 7-chord sample of the z^2 values
    rng = random.Random(7)
    for _ in range(500):
        G = random_knot_diagram(7, rng)
        structure, signs = CensusStructure.from_diagram(G)
        lanes = SignLanes([signs], 7)
        assert structure.c2_parity == conway_pairing(G, 2, "ascending") % 2, str(G)
        assert _z2_at(lanes, 0, _z2_lanes(structure, lanes)) == z2_pairings_at_basepoints(G), str(G)


NUMBERING_MODULI = (0, 2, 3, 5, 7)


def test_prefix_numberability_matches_numbering_walk_on_census():
    # The prefix sums along the word against the labeling walk, on every structure of the <= 5
    # census: in every lane up to 4 chords, and in four seeded lanes of each 5-chord structure
    # (every lane of the <= 5 census is 995,573 diagrams, about 50 s of walks).
    rng = random.Random(5)
    checked = 0
    for word, vectors in enumerate_structures(5):
        structure = CensusStructure(word)
        lanes = SignLanes(vectors, len(structure.chords))
        numberable = structure.numberable(lanes, NUMBERING_MODULI)
        assert all(found >> lanes.width * len(vectors) == 0 for found in numberable), word
        for v in range(len(vectors)) if len(vectors) < 32 else rng.sample(range(32), 4):
            G = structure.diagram(vectors[v])
            want = [alexander_numbering(G, p) is not None for p in NUMBERING_MODULI]
            assert [_lane(lanes, found, v) for found in numberable] == want, str(G)
            checked += 1
    assert checked == 27893 + 4 * 30240


def test_twice_congruent_matches_arithmetic_in_every_lane():
    rng = random.Random(16)
    for k in (0, 1, 3, 5, 7, 9, 25):
        vectors = [tuple(rng.choice((1, -1)) for _ in range(k)) for _ in range(40)]
        lanes = SignLanes(vectors, k)
        limit = 2 * math.comb(k, k // 2)  # a lane holds two counts of k chords
        for _ in range(60):
            bound = rng.randint(0, limit)
            values = [rng.randint(0, bound) for _ in vectors]
            x = sum(value << v * lanes.width for v, value in enumerate(values))
            c = rng.randint(-2 * limit, 2 * limit)
            for p in range(12):
                got = lanes.twice_congruent(x, c, p, bound)
                want = [_congruent(2 * value, c, p) for value in values]
                assert [_lane(lanes, got, v) for v in range(len(vectors))] == want, (k, values, c, p)
            got = lanes.equal(x, values[0])
            assert [_lane(lanes, got, v) for v in range(len(vectors))] == [w == values[0] for w in values]


def test_colorable_reads_index_parity_on_census_structures():
    checked = 0
    for word, _ in enumerate_structures(5):
        structure = CensusStructure(word)
        assert structure.colorable == is_mod_p_numberable(structure.diagram([1] * len(structure.chords)), 2), word
        checked += 1
    assert checked == 32055


def _warping_degree_reference(diagram):
    """The chords whose head lies before their tail, compared position by position."""
    return sum(diagram.head(chord)[1] < diagram.tail(chord)[1] for chord in diagram.chord_ids())


def test_warping_degree_matches_reference():
    diagrams = enumerate_all_diagrams(4)
    checked = 0
    for word, vectors in enumerate_structures(4):
        structure = CensusStructure(word)
        for signs in vectors:
            G = next(diagrams)
            want = _warping_degree_reference(G)
            assert warping_degree(G) == structure.warping_degree == want, str(G)
            checked += 1
    assert next(diagrams, None) is None
    assert checked == 27893
    rng = random.Random(40)
    sizes = set()
    for _ in range(300):
        G = random_knot_diagram(rng.randint(0, 40), rng)
        structure, _ = CensusStructure.from_diagram(G)
        assert warping_degree(G) == structure.warping_degree == _warping_degree_reference(G), str(G)
        sizes.add(G.num_chords)
    assert min(sizes) < 3 and max(sizes) == 40


def test_from_diagram_relabels_chords_by_first_occurrence():
    structure, signs = CensusStructure.from_diagram(parse_gauss_code("O7-U3+O3+U7-"))
    assert structure.word == ((1, False), (2, True), (2, False), (1, True))
    assert signs == (-1, 1)
    assert serialize_gauss_code(structure.diagram(signs)) == "O1-U2+O2+U1-"


@pytest.mark.parametrize("name", CENSUS_CHECKS)
@pytest.mark.parametrize(
    "config",
    [
        SweepConfig(),
        SweepConfig(max_chords=3, moduli=(3, 5)),
        SweepConfig(max_chords=3, moduli=(0,)),
    ],
    ids=["default", "moduli-3-5", "moduli-0"],
)
def test_reports_match_per_diagram_path(name, config):
    engine = run_check(name, config)
    assert _fields(engine) == _reference_fields(name, *REFERENCE[name], config)
    assert engine.population > 0


@pytest.mark.parametrize("name", ["main-theorem", "warp-smooth"])
def test_cli_modulus_zero_compares_exactly(capsys, name):
    # p = 0 asks for an integer numbering; its congruence is equality
    assert main(["verify", name, "-p", "0", "--max-chords", "3", "--json"]) == 0
    (report,) = json.loads(capsys.readouterr().out)
    assert report["population"] > 0 and report["failures"] == 0


@pytest.mark.parametrize(
    "name, workers",
    [pytest.param(name, workers, id=name if workers == 2 else "%s-%d-workers" % (name, workers))
     for workers in (0, 2, 3) for name in [*CENSUS_CHECKS, "skein"]],
)
def test_workers_match_serial(name, workers):
    config = SweepConfig(max_chords=3, samples=200)
    serial = run_check(name, config)
    parallel = run_check(name, SweepConfig(max_chords=3, samples=200, workers=workers))
    assert _fields(parallel) == _fields(serial)


def _bad_check():
    """A deliberately failing check in both forms, ``(census check, per-diagram verdict)``:
    colorable diagrams fail when their sign product is -1 or their warping degree is odd."""

    def verdict(diagram, config):
        return math.prod(s for _, s in diagram.signs) > 0 and warping_degree(diagram) % 2 == 0

    def census(structure, lanes, config):
        if not structure.colorable:
            return 0, 0
        if structure.warping_degree % 2:
            return lanes.ones, lanes.ones
        # the sign product is -1 in the lanes of the XOR of all planes
        return lanes.ones, functools.reduce(operator.xor, lanes.planes, 0)

    return (_Census(), census), verdict


def test_failing_structure_verdict_reports_per_diagram_order(monkeypatch):
    check, verdict = _bad_check()
    config = SweepConfig(max_chords=3)
    monkeypatch.setitem(CHECKS, "bad", check)
    engine = run_check("bad", config)
    assert engine.failures > 0 and engine.passes > 0
    assert _fields(engine) == _reference_fields("bad", _population_colorable, verdict, config)
    for code in engine.counterexamples:
        assert recheck("bad", code, config) is False


def test_cli_verify_exits_3_on_counterexamples(monkeypatch, capsys):
    check, _ = _bad_check()
    monkeypatch.setitem(CHECKS, "bad", check)
    assert main(["verify", "bad", "--max-chords", "2", "--json"]) == 3
    (report,) = json.loads(capsys.readouterr().out)
    assert report["failures"] == len(report["counterexamples"]) == 27
    assert main(["verify", "cor-det", "bad", "--max-chords", "2"]) == 3
    assert "failures: 27" in capsys.readouterr().out
    assert main(["verify", "cor-det", "--max-chords", "2"]) == 0


class Hung(Exception):
    """Not an OSError, which a wait for a child process would swallow."""


@contextlib.contextmanager
def _deadline(seconds):
    """Raise :class:`Hung` in this process if the block runs longer than ``seconds``."""

    def expire(signum, frame):
        raise Hung("still running after %d s" % seconds)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@FORKED_CHILDREN
@pytest.mark.parametrize("workers", [2, 3])
def test_failing_check_in_parallel_matches_serial(monkeypatch, workers):
    # At <= 4 chords a shard's 1,600-2,500 counterexamples outgrow a pipe's buffer.
    check, _ = _bad_check()
    monkeypatch.setitem(CHECKS, "bad", check)
    serial = run_check("bad", SweepConfig(max_chords=4))
    with _deadline(60):
        parallel = run_check("bad", SweepConfig(max_chords=4, workers=workers))
    assert serial.failures > 0
    assert _fields(parallel) == _fields(serial)


# what run_check raises when a verdict fails in one shard of a 2-process sweep
SHARD_FAULTS = {
    "child-raises": (ValueError, "verdict failed"),
    "parent-raises": (ValueError, "verdict failed"),
    "child-exits": (RuntimeError, "shard 1 of the cor-det check exited with code 3"),
}


@FORKED_CHILDREN
@pytest.mark.parametrize("fault", SHARD_FAULTS)
def test_failing_shard_raises_and_leaves_no_child(monkeypatch, fault):
    error, message = SHARD_FAULTS[fault]
    population, census = CHECKS["cor-det"]
    parent = os.getpid()

    def faulty(structure, lanes, config):
        in_child = os.getpid() != parent
        if in_child and fault == "child-exits":
            os._exit(3)
        if fault == ("child-raises" if in_child else "parent-raises"):
            raise ValueError("verdict failed")
        return census(structure, lanes, config)

    monkeypatch.setitem(CHECKS, "cor-det", (population, faulty))
    with _deadline(60), pytest.raises(error, match=message) as raised:
        run_check("cor-det", SweepConfig(max_chords=3, workers=2))
    assert multiprocessing.active_children() == []
    if fault == "child-raises":
        # the child's traceback comes along as a note
        (note,) = raised.value.__notes__
        assert note.startswith("raised in shard 1:") and "in faulty" in note


def _chord_one_check():
    """cor-det's census check broken on the sign vectors whose chord at the basepoint is negative,
    and the per-diagram verdict that fails the same diagrams, chord 1 of a census code,
    ``(census check, per-diagram verdict)``."""
    population, census = CHECKS["cor-det"]

    def broken(structure, lanes, config):
        population, failing = census(structure, lanes, config)
        first = lanes.planes[structure.rotation[0][0] - 1] if structure.rotation else 0
        return population, failing | population & first

    def verdict(diagram, config):
        return corollary_verdict(diagram, config) and dict(diagram.signs).get(1, 1) > 0

    return (population, broken), verdict


def test_recheck_runs_the_structure_form(monkeypatch):
    # Break cor-det's structure form on the sign vectors whose first chord
    # is negative; the per-diagram reference still passes those diagrams,
    # so only a recheck through the structure form reproduces the failures.
    check, _ = _chord_one_check()
    config = SweepConfig(max_chords=3)
    monkeypatch.setitem(CHECKS, "cor-det", check)
    report = run_check("cor-det", config)
    assert report.failures > 0 and report.passes > 0
    for code in report.counterexamples:
        assert corollary_verdict(parse_gauss_code(code), config) is True
        assert recheck("cor-det", code, config) is False


@FORKED_CHILDREN
@pytest.mark.parametrize("make_check", [_bad_check, _chord_one_check], ids=["bad", "chord-one"])
def test_counterexamples_keep_census_order_and_numbering_across_shards(monkeypatch, make_check):
    # Each orbit member keeps its representative's chord labels, and a failing one must map its
    # lanes to the census numbering: the chord-one check fails the lanes where the chord at the
    # member's basepoint is negative, chord 1 of the census code.  Orbit shards interleave the
    # census order, which the merged report must restore.
    check, verdict = make_check()
    monkeypatch.setitem(CHECKS, "failing", check)
    want = _reference_fields("failing", _population_colorable, verdict, SweepConfig(max_chords=4))
    assert want["failures"] > 0 and want["passes"] > 0
    for workers in (1, 2, 3):
        with _deadline(60):
            report = run_check("failing", SweepConfig(max_chords=4, workers=workers))
        assert _fields(report) == want, workers


@FORKED_CHILDREN
@pytest.mark.parametrize("workers", [1, 2])
def test_raising_verdict_keeps_the_structure_code(monkeypatch, workers):
    # A rotation of the 14th colorable orbit, so with 2 workers the child's shard meets it.
    representative = [word for k in range(4) for word, _ in _rotation_orbits(k, colorable=True)][13]
    word = _rotated_structures(representative)[1].word
    assert word != representative
    population, census = CHECKS["cor-det"]

    def raising(structure, lanes, config):
        if structure.word == word:
            raise ValueError("verdict failed")
        return census(structure, lanes, config)

    monkeypatch.setitem(CHECKS, "raising", (population, raising))
    with _deadline(60), pytest.raises(ValueError, match="verdict failed") as raised:
        run_check("raising", SweepConfig(max_chords=3, workers=workers))
    assert multiprocessing.active_children() == []
    code = serialize_gauss_code(make_diagram([word], {chord: 1 for chord in range(1, 4)}))
    (note,) = raised.value.__notes__
    assert "raised by the raising check on the structure of %s" % code in note
    if workers == 2:
        assert note.startswith("raised in shard 1:") and "in raising" in note


@FORKED_CHILDREN
@pytest.mark.parametrize("workers", [1, 2])
def test_raising_skein_verdict_keeps_the_sample_code(monkeypatch, workers):
    # Sample 7 is odd, so with 2 workers the child's shard meets it.
    config = SweepConfig(samples=20, seed=3, workers=workers)
    samples = list(verify._population_random_skein(config))
    target = samples[7]
    assert samples.count(target) == 1
    population, skein = CHECKS["skein"]

    def raising(circles, signs, config):
        if (circles, signs) == target:
            raise ValueError("verdict failed")
        return skein(circles, signs, config)

    monkeypatch.setitem(CHECKS, "raising", (population, raising))
    with _deadline(60), pytest.raises(ValueError, match="verdict failed") as raised:
        run_check("raising", config)
    assert multiprocessing.active_children() == []
    code = serialize_gauss_code(make_diagram(*target))
    (note,) = raised.value.__notes__
    assert "raised by the raising check on sample 7, %s" % code in note
    if workers == 2:
        assert note.startswith("raised in shard 1:") and "in raising" in note


def _rotated_structures(word):
    """The structure at each rotation of ``word``, its chords renumbered by first occurrence."""
    structures = []
    for rotated in _rotations(word):
        label = _first_occurrence(c for c, _ in rotated)
        structures.append(CensusStructure(tuple((label[c] + 1, is_head) for c, is_head in rotated)))
    return structures


def _renumbered_lanes(lanes, rotation):
    """``[w for each lane v]``: the lane ``w`` whose sign vector on ``rotation`` renumbered by first
    occurrence is lane ``v``'s on ``rotation`` in its own chord labels."""
    label = _first_occurrence(c for c, _ in rotation)
    lane_of = []
    for signs in lanes.vectors:
        renumbered = [0] * len(signs)
        for chord, sign in enumerate(signs, 1):
            renumbered[label[chord]] = sign
        lane_of.append(lanes.vectors.index(tuple(renumbered)))
    return lane_of


def _renumbered_verdict(verdict, member, lanes, config):
    """``verdict``'s ``(population, failing)`` on ``member``, moved to the lanes of its renumbered rotation."""
    lane_of = _renumbered_lanes(lanes, member.rotation)
    return tuple(sum([_lane(lanes, mask, v) << w * lanes.width for v, w in enumerate(lane_of)])
                 for mask in verdict(member, lanes, config))


def test_orbit_values_hold_on_every_rotation():
    # What the sweep reads once per rotation orbit, on every structure with <= 4 chords: the
    # determinant and main-theorem's lane counts are those of every rotation, and each member
    # the structure hands out is its rotation in the structure's chord labels, whose lanes,
    # mapped to the rotation's own numbering, give main-theorem's and cor-det's verdicts there.
    moduli_sets = [(2, 3), (0,), (3, 5)]
    for word, vectors in enumerate_structures(4):
        structure, lanes = CensusStructure(word), SignLanes(vectors, len(word) // 2)
        rotations = _rotated_structures(word)
        members = structure.members(len(rotations))
        assert [member.rotation for member in members] == _rotations(word), word
        assert [member.word for member in members] == [rotated.word for rotated in rotations], word
        for moduli in moduli_sets:
            config = SweepConfig(moduli=moduli)
            want = [mask.bit_count() for mask in _main_theorem_census(structure, lanes, config)]
            for rotated, member in zip(rotations, members):
                assert [mask.bit_count() for mask in _main_theorem_census(rotated, lanes, config)] == want, word
                mapped = _renumbered_verdict(_main_theorem_census, member, lanes, config)
                assert mapped == _main_theorem_census(rotated, lanes, config), (word, member.rotation)
        if not structure.colorable:
            continue
        for member, rotated in zip(members, rotations):
            assert member.c2_parity == rotated.c2_parity, word
            assert member.determinant == rotated.determinant == structure.determinant, word
            population, failing = _corollary_census(rotated, lanes, SweepConfig())
            assert population == lanes.ones
            assert _renumbered_verdict(_corollary_census, member, lanes, SweepConfig()) == (population, failing), word


def _lane_values(structure, lanes):
    """Every value a census verdict reads, per lane; the smoothed tables as a multiset, as their
    order follows the chord labels."""
    scalars = (structure.colorable, structure.colorable and structure.determinant, structure.warping_degree,
               structure.c2_parity)
    numberable = structure.numberable(lanes, (0, 2, 3, 4, 5))
    z2, table, smoothed = _z2_lanes(structure, lanes), structure.table(lanes), structure.smoothed_tables(lanes)
    return [(scalars, [_lane(lanes, found, v) for found in numberable], _z2_at(lanes, v, z2),
             _table_at(lanes, v, table), sorted(sorted(_table_at(lanes, v, t).items()) for t in smoothed))
            for v in range(len(lanes.vectors))]


def test_members_match_their_renumbered_rotations_on_census():
    # Each census structure with <= 4 chords, reached as a member of its rotation orbit, against
    # its rotation renumbered by first occurrence, the form the sweep ran before members kept
    # their representative's labels: every value a verdict reads, lane by lane through the
    # renumbering, and every census verdict's lanes, moved through it.
    seen = []
    for k in range(5):
        lanes = SignLanes(list(itertools.product((1, -1), repeat=k)), k)
        for word, stabilizer in _rotation_orbits(k):
            for member in CensusStructure(word).members(max(1, 2 * k) // len(stabilizer)):
                renumbered = CensusStructure(_renumbered(member.rotation)[0])
                seen.append(renumbered.word)
                values = _lane_values(renumbered, lanes)
                assert _lane_values(member, lanes) == [values[w] for w in _renumbered_lanes(lanes, member.rotation)]
                for moduli in [(2, 3), (0,), (3, 5)]:
                    config = SweepConfig(moduli=moduli)
                    for name in CENSUS_CHECKS:
                        want = CHECKS[name][1](renumbered, lanes, config)
                        got = _renumbered_verdict(CHECKS[name][1], member, lanes, config)
                        assert got == want, (name, member.rotation, moduli)
    assert sorted(seen) == sorted(word for word, _ in enumerate_structures(4)) and len(seen) == 1815


def _basepoint_chord_check():
    """warp-smooth's census check broken on the structures whose rotation orbit has more than one
    member, in the lanes where the chord at the basepoint is negative, and the per-diagram
    verdict that fails the same diagrams, ``(census check, per-diagram verdict)``."""
    population, census = CHECKS["warp-smooth"]

    def several_members(word):
        return len({_renumbered(rotated)[0] for rotated in _rotations(word)}) > 1

    def broken(structure, lanes, config):
        population, failing = census(structure, lanes, config)
        if several_members(structure.rotation):
            failing |= lanes.planes[structure.rotation[0][0] - 1]
        return population, failing

    def verdict(diagram, config):
        (word,) = diagram.circles
        broken_here = several_members(word) and diagram.sign(word[0][0]) < 0
        return warp_and_smoothing_verdict(diagram, config) and not broken_here

    return (population, broken), verdict


@FORKED_CHILDREN
def test_basepoint_dependent_failure_on_multi_member_orbits(monkeypatch):
    # The broken lanes depend on the basepoint, so each member of an orbit fails other sign
    # vectors; each must be mapped to the census numbering of its own rotation.
    check, verdict = _basepoint_chord_check()
    monkeypatch.setitem(CHECKS, "basepoint", check)
    config = SweepConfig(max_chords=4)
    want = _reference_fields("basepoint", _population_all, verdict, config)
    assert want["failures"] > 0 and want["passes"] > 0
    for workers in (1, 2, 3):
        with _deadline(60):
            report = run_check("basepoint", SweepConfig(max_chords=4, workers=workers))
        assert _fields(report) == want, workers
    for code in want["counterexamples"]:
        assert recheck("basepoint", code, config) is False


def test_sweep_computes_numberability_once_per_orbit(monkeypatch):
    # warp-smooth reads numberability on every member; the orbit computes it once.  A sweep
    # with no failing lane renumbers no member.
    counts = {"_interleavings": 0, "_renumbered": 0}

    def counted(name):
        original = getattr(verify, name)

        def count(*args):
            counts[name] += 1
            return original(*args)

        return count

    for name in counts:
        monkeypatch.setattr(verify, name, counted(name))
    orbits = sum(1 for k in range(5) for _ in _rotation_orbits(k))
    report = run_check("warp-smooth", SweepConfig(max_chords=4))
    assert (orbits, report.population, report.failures) == (246, 27893, 0)
    assert 0 < counts["_interleavings"] <= orbits
    for name in CENSUS_CHECKS:
        assert run_check(name, SweepConfig(max_chords=4)).failures == 0
    assert counts["_renumbered"] == 0


def _least_rotation(word):
    return min((rotated.word for rotated in _rotated_structures(word)), key=_census_key)


@FORKED_CHILDREN
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_failing_orbit_reruns_every_shard_per_structure(monkeypatch, workers):
    # The determinant shifted by 4 on the rotation class of one 4-chord word fails cor-det on
    # each of its 8 structures and only there: one orbit fails, in one orbit shard, while its
    # structures lie in several shards of the census order.  The report must still be the
    # per-diagram one, counterexamples in census order.
    chosen = [word for word, _ in _rotation_orbits(4, colorable=True)][20]
    census_words = [word for k in range(5) for word in _words(k, colorable=True)]
    failing_at = [i for i, word in enumerate(census_words) if _least_rotation(word) == chosen]
    assert len(failing_at) == 8 and all(len({i % n for i in failing_at}) > 1 for n in (2, 3))
    determinant = verify._word_determinant

    def shifted(circles, chords):
        det = determinant(circles, chords)
        return det + 4 if _least_rotation(circles[0]) == chosen else det

    def reference(diagram, config):
        return corollary_verdict(diagram, config) is (_least_rotation(diagram.circles[0]) != chosen)

    monkeypatch.setattr(verify, "_word_determinant", shifted)
    config = SweepConfig(max_chords=4, workers=workers)
    with _deadline(60):
        report = run_check("cor-det", config)
    assert report.failures == len(report.counterexamples) == 8 * 16
    for code in report.counterexamples:
        assert recheck("cor-det", code, config) is False
    assert _fields(report) == _reference_fields("cor-det", _population_colorable, reference, config)


def test_recheck_past_one_byte_lanes_matches_reference():
    # 25 crossings of a 2-strand braid closure, random signs: a z^2 basepoint row set
    # holds about 78 pairs and a count can reach C(25, 12), so a lane is wider than a byte.
    # Reversing one chord but keeping its sign (a virtual crossing change) moves the indices
    # of the chords it interleaves by 2, so the closure's numberability mod p > 2 can fail.
    rng, chord_rng = random.Random(25), random.Random(26)
    config = SweepConfig(moduli=NUMBERING_MODULI)
    outcomes = set()
    for _ in range(8):
        closure = parse_gauss_code(braid_closure_gauss_code([rng.choice((1, -1)) for _ in range(25)], 2))
        reversed_chord = make_diagram(crossing_change(closure, chord_rng.choice(closure.chord_ids())).circles, closure.signs)
        for G in (closure, reversed_chord):
            structure, signs = CensusStructure.from_diagram(G)
            lanes = SignLanes([signs], 25)
            assert lanes.width > 8
            want = [alexander_numbering(G, p) is not None for p in config.moduli]
            assert structure.numberable(lanes, config.moduli) == want, str(G)
            assert want == [is_mod_p_numberable(G, p) for p in config.moduli], str(G)
            outcomes.add(tuple(want))
            assert _z2_at(lanes, 0, _z2_lanes(structure, lanes)) == z2_pairings_at_basepoints(G), str(G)
            for name in ("cor-det", "main-theorem"):
                _, verdict = REFERENCE[name]
                assert recheck(name, str(G), config) is verdict(G, config), (name, str(G))
    assert len(outcomes) > 1
