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
from vknot.diagram import (
    _congruent,
    _require_knot,
    alexander_numbering,
    crossing_change,
    is_mod_p_numberable,
    make_diagram,
    parse_gauss_code,
    serialize_gauss_code,
    smooth,
    warping_degree,
)
from vknot.enumeration import enumerate_all_diagrams, enumerate_structures, random_knot_diagram
from vknot.verify import (
    CHECKS,
    CensusStructure,
    SignLanes,
    SweepConfig,
    _Census,
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


def test_recheck_runs_the_structure_form(monkeypatch):
    # Break cor-det's structure form on the sign vectors whose first chord
    # is negative; the per-diagram reference still passes those diagrams,
    # so only a recheck through the structure form reproduces the failures.
    population, census = CHECKS["cor-det"]

    def broken(structure, lanes, config):
        population, failing = census(structure, lanes, config)
        return population, failing | population & sum(lanes.planes[:1])

    config = SweepConfig(max_chords=3)
    monkeypatch.setitem(CHECKS, "cor-det", (population, broken))
    report = run_check("cor-det", config)
    assert report.failures > 0 and report.passes > 0
    for code in report.counterexamples:
        assert corollary_verdict(parse_gauss_code(code), config) is True
        assert recheck("cor-det", code, config) is False


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
