"""Differential tests of the structure-first census engine.

The engine classifies each unsigned chord structure once and evaluates all
of its sign vectors from that.  Its reference is the library evaluated on
each materialized diagram, and the per-diagram ``(population, verdict)``
pairs of ``CHECKS``, which sweeps use for any check without a structure
form (deleting a check from ``STRUCTURE_CHECKS`` switches its sweep to the
per-diagram path).
"""

import json
import math

import pytest

from vknot.arrows import conway_pairing_table, z2_pairings_at_basepoints
from vknot.cli import main
from vknot.determinant import determinant
from vknot.diagram import is_mod_p_numberable, smooth, warping_degree
from vknot.enumeration import enumerate_all_diagrams, enumerate_structures
from vknot.verify import (
    CHECKS,
    STRUCTURE_CHECKS,
    CensusStructure,
    SweepConfig,
    _population_colorable,
    _smoothing_candidates,
    recheck,
    run_check,
)

CENSUS_CHECKS = sorted(STRUCTURE_CHECKS)


def _fields(report):
    data = report.to_dict()
    data.pop("elapsed_ms")
    return data


def _per_diagram_report(monkeypatch, name, config):
    with monkeypatch.context() as patch:
        patch.delitem(STRUCTURE_CHECKS, name)
        return run_check(name, config)


def test_structure_values_match_library_on_census():
    diagrams = enumerate_all_diagrams(4)
    checked = 0
    for word, vectors in enumerate_structures(4):
        structure = CensusStructure(word)
        for signs in vectors:
            G = next(diagrams)
            assert structure.diagram(signs) == G
            code = str(G)
            colorable = is_mod_p_numberable(G, 2)
            assert structure.colorable == colorable, code
            for p in (0, 2, 3, 5):
                assert structure.numberable(signs, p) == is_mod_p_numberable(G, p), (code, p)
            if colorable:
                assert structure.determinant == determinant(G), code
            assert structure.warping_degree == warping_degree(G), code
            assert structure.z2_at_basepoints(signs) == z2_pairings_at_basepoints(G), code
            assert structure.table(signs) == conway_pairing_table(G), code
            assert structure.smoothed_tables(signs) == [
                conway_pairing_table(smooth(G, alpha)) for alpha in _smoothing_candidates(G)
            ], code
            checked += 1
    assert next(diagrams, None) is None
    assert checked == 27893


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
def test_reports_match_per_diagram_path(monkeypatch, name, config):
    engine = run_check(name, config)
    reference = _per_diagram_report(monkeypatch, name, config)
    assert _fields(engine) == _fields(reference)
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
    # A deliberately failing check with both forms: colorable diagrams fail
    # when their sign product is -1 or their warping degree is odd.
    def verdict(diagram, config):
        return math.prod(s for _, s in diagram.signs) > 0 and warping_degree(diagram) % 2 == 0

    def census(structure, signs, config):
        if not structure.colorable:
            return None
        return math.prod(signs) > 0 and structure.warping_degree % 2 == 0

    config = SweepConfig(max_chords=3)
    monkeypatch.setitem(CHECKS, "bad", (_population_colorable, verdict))
    monkeypatch.setitem(STRUCTURE_CHECKS, "bad", census)
    engine = run_check("bad", config)
    reference = _per_diagram_report(monkeypatch, "bad", config)
    assert engine.failures > 0 and engine.passes > 0
    assert _fields(engine) == _fields(reference)
    for code in engine.counterexamples:
        assert recheck("bad", code, config) is False

