import json
import multiprocessing

import pytest

from vknot import verify
from vknot.errors import PreconditionError, UnknownCheckError
from vknot.verify import (
    CHECKS,
    CheckReport,
    _Census,
    SweepConfig,
    recheck,
    reports_to_json,
    run_check,
    run_checks,
)

SMALL = SweepConfig(max_chords=3, samples=40, random_max_chords=6, seed=5)


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_registered_checks_pass_on_small_sweeps(name):
    report = run_check(name, SMALL)
    assert report.failures == 0
    assert report.counterexamples == ()
    assert report.population == report.passes
    assert report.population > 0


def test_unknown_check_rejected():
    with pytest.raises(KeyError):
        run_check("nope", SMALL)
    # one check of the name serves every entry point
    for call in (lambda: recheck("nope", "O1+U1+"), lambda: run_checks(SMALL, ["cor-det", "nope"])):
        with pytest.raises(UnknownCheckError, match="unknown check 'nope'; available: cor-det, det-asc"):
            call()


def test_named_wrapper():
    report = run_check("main-theorem", SMALL)
    assert report.check == "main-theorem" and report.failures == 0


def test_reports_are_deterministic():
    a = run_check("main-theorem", SMALL)
    b = run_check("main-theorem", SMALL)
    assert (a.population, a.passes, a.failures, a.counterexamples, a.seed) == (
        b.population,
        b.passes,
        b.failures,
        b.counterexamples,
        b.seed,
    )


def test_json_schema():
    reports = run_checks(SMALL, ["cor-det"])
    data = json.loads(reports_to_json(reports))
    assert isinstance(data, list) and len(data) == 1
    assert set(data[0]) == {
        "check",
        "population",
        "passes",
        "failures",
        "counterexamples",
        "seed",
        "elapsed_ms",
    }


def test_text_rendering_lists_counterexamples():
    report = CheckReport("demo", 3, 2, 1, ("O1+U1+",), 0, 12)
    text = report.to_text()
    assert "failures: 1" in text
    assert "counterexample: O1+U1+" in text


def test_counterexamples_round_trip(monkeypatch):
    # wire in a deliberately failing census check and confirm its
    # counterexamples reproduce the failure when re-parsed
    def verdict(structure, lanes, config):
        # every one-chord diagram fails; the others are outside the population
        one_chord = lanes.ones if len(structure.chords) == 1 else 0
        return one_chord, one_chord

    monkeypatch.setitem(CHECKS, "always-bad", (_Census(), verdict))
    report = run_check("always-bad", SMALL)
    assert report.failures == 4 and report.passes == 0
    for code in report.counterexamples:
        assert recheck("always-bad", code, SMALL) is False
    assert recheck("cor-det", "O1+U2+O3+U1+O2+U3+") is True


@pytest.mark.parametrize("name", ["cor-det", "det-asc", "main-theorem", "warp-smooth"])
def test_knot_checks_refuse_links(name):
    with pytest.raises(PreconditionError):
        recheck(name, "O1+U2+;O2+U1+")


@pytest.mark.parametrize("name", ["cor-det", "det-asc", "main-theorem"])
def test_recheck_refuses_knots_outside_the_population(name):
    # numberable for no modulus, so neither colorable nor numberable mod 3
    with pytest.raises(PreconditionError):
        recheck(name, "O1+O2+U1+U2+")
    assert recheck("warp-smooth", "O1+O2+U1+U2+") is True


def test_workers_match_serial():
    serial = run_check("warp-smooth", SweepConfig(max_chords=2))
    parallel = run_check("warp-smooth", SweepConfig(max_chords=2, workers=2))
    assert (serial.population, serial.passes, serial.failures) == (
        parallel.population,
        parallel.passes,
        parallel.failures,
    )



BAD_CONFIGS = {
    "max_chords": {"max_chords": -1},
    "samples": {"samples": -1},
    "workers": {"workers": -1},
    "moduli": {"moduli": (2, -3)},
    "random_max_chords": {"random_max_chords": 0},
}


@pytest.mark.parametrize("field", sorted(BAD_CONFIGS))
def test_config_refuses_out_of_range_values(monkeypatch, field):
    # Refused where the config is built, so no sweep starts and no check is blamed for it.
    started = []
    monkeypatch.setattr(verify, "_run_shards", lambda *args: started.append(args))
    for name in ("main-theorem", "skein"):
        with pytest.raises(PreconditionError, match=field):
            run_check(name, SweepConfig(**BAD_CONFIGS[field]))
    assert started == [] and multiprocessing.active_children() == []


def test_config_accepts_the_smallest_values():
    config = SweepConfig(max_chords=0, moduli=(0,), samples=4, random_max_chords=1, workers=0)
    for name in sorted(CHECKS):
        report = run_check(name, config)
        assert report.population > 0 and report.failures == 0, name
