"""Differential tests of the census engine.

Each exhaustive check classifies every unsigned chord structure once and
evaluates all of its sign vectors from that.  Its reference is the library
evaluated on each materialized diagram, and the per-diagram verdicts below
with their population filters: the checks as they read before the structure
forms became their only implementation.  A sweep of a reference verdict
over its population must report exactly what ``run_check`` reports.
"""

import json
import math
import random

import pytest

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
    is_mod_p_numberable,
    parse_gauss_code,
    serialize_gauss_code,
    smooth,
    warping_degree,
)
from vknot.enumeration import enumerate_all_diagrams, enumerate_structures, random_knot_diagram
from vknot.verify import (
    CHECKS,
    CensusStructure,
    SweepConfig,
    _all_congruent,
    _Census,
    _smoothing_candidates,
    recheck,
    run_check,
)

CENSUS_CHECKS = ["cor-det", "det-asc", "main-theorem", "warp-smooth"]


# -- the per-diagram reference -------------------------------------------------


def _population_colorable(config):
    for diagram in enumerate_all_diagrams(config.max_chords, config.canonical):
        if is_mod_p_numberable(diagram, 2):
            yield diagram


def _population_numberable_any(config):
    for diagram in enumerate_all_diagrams(config.max_chords, config.canonical):
        if any(is_mod_p_numberable(diagram, p) for p in config.moduli):
            yield diagram


def _population_all(config):
    yield from enumerate_all_diagrams(config.max_chords, config.canonical)


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
        for alpha in _smoothing_candidates(diagram):
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


def test_structure_values_match_library_on_census():
    diagrams = enumerate_all_diagrams(4)
    checked = 0
    for word, vectors in enumerate_structures(4):
        structure = CensusStructure(word)
        for signs in vectors:
            G = next(diagrams)
            assert structure.diagram(signs) == G
            code = str(G)
            rebuilt, rebuilt_signs = CensusStructure.from_diagram(G)
            assert (rebuilt.word, rebuilt_signs) == (word, signs), code
            colorable = is_mod_p_numberable(G, 2)
            assert structure.colorable == colorable, code
            for p in (0, 2, 3, 5):
                assert structure.numberable(signs, p) == is_mod_p_numberable(G, p), (code, p)
            if colorable:
                assert structure.determinant == determinant(G), code
            assert structure.c2_parity == conway_pairing(G, 2, "ascending") % 2, code
            assert structure.warping_degree == warping_degree(G), code
            assert structure.z2_at_basepoints(signs) == z2_pairings_at_basepoints(G), code
            assert structure.table(signs) == conway_pairing_table(G), code
            assert structure.smoothed_tables(signs) == [
                conway_pairing_table(smooth(G, alpha)) for alpha in _smoothing_candidates(G)
            ], code
            checked += 1
    assert next(diagrams, None) is None
    assert checked == 27893
    # past the census: a seeded 7-chord sample of the z^2 values
    rng = random.Random(7)
    for _ in range(500):
        G = random_knot_diagram(7, rng)
        structure, signs = CensusStructure.from_diagram(G)
        assert structure.c2_parity == conway_pairing(G, 2, "ascending") % 2, str(G)
        assert structure.z2_at_basepoints(signs) == z2_pairings_at_basepoints(G), str(G)


def test_colorable_reads_index_parity_on_census_structures():
    checked = 0
    for word, _ in enumerate_structures(5):
        structure = CensusStructure(word)
        assert structure.colorable == is_mod_p_numberable(structure.template, 2), word
        checked += 1
    assert checked == 32055


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
        SweepConfig(max_chords=3, canonical=True),
        SweepConfig(max_chords=3, moduli=(3, 5)),
        SweepConfig(max_chords=3, moduli=(0,)),
    ],
    ids=["default", "canonical", "moduli-3-5", "moduli-0"],
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


@pytest.mark.parametrize("name", CENSUS_CHECKS)
def test_workers_match_serial(name):
    serial = run_check(name, SweepConfig(max_chords=3))
    parallel = run_check(name, SweepConfig(max_chords=3, workers=2))
    assert _fields(parallel) == _fields(serial)


def test_failing_structure_verdict_reports_per_diagram_order(monkeypatch):
    # A deliberately failing check in both forms: colorable diagrams fail
    # when their sign product is -1 or their warping degree is odd.
    def verdict(diagram, config):
        return math.prod(s for _, s in diagram.signs) > 0 and warping_degree(diagram) % 2 == 0

    def census(structure, signs, config):
        if not structure.colorable:
            return None
        return math.prod(signs) > 0 and structure.warping_degree % 2 == 0

    config = SweepConfig(max_chords=3)
    monkeypatch.setitem(CHECKS, "bad", (_Census(), census))
    engine = run_check("bad", config)
    assert engine.failures > 0 and engine.passes > 0
    assert _fields(engine) == _reference_fields("bad", _population_colorable, verdict, config)
    for code in engine.counterexamples:
        assert recheck("bad", code, config) is False


def test_recheck_runs_the_structure_form(monkeypatch):
    # Break cor-det's structure form on the sign vectors whose first chord
    # is negative; the per-diagram reference still passes those diagrams,
    # so only a recheck through the structure form reproduces the failures.
    population, census = CHECKS["cor-det"]

    def broken(structure, signs, config):
        verdict = census(structure, signs, config)
        return verdict if verdict is None else verdict and signs[:1] != (-1,)

    config = SweepConfig(max_chords=3)
    monkeypatch.setitem(CHECKS, "cor-det", (population, broken))
    report = run_check("cor-det", config)
    assert report.failures > 0 and report.passes > 0
    for code in report.counterexamples:
        assert corollary_verdict(parse_gauss_code(code), config) is True
        assert recheck("cor-det", code, config) is False
