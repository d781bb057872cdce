"""The four benchmark workloads and their correctness gates.

Each workload has ``setup(seed, mods)``, which builds its inputs, and
``run_pass(state, fits=None)``, which makes the timed calls once over all of
them, or over those before the first item ``k`` for which ``fits(k)`` is
false, and returns a :class:`Pass`.  Calls go through module attributes
looked up at call time (``mods.verify.run_check``), so the traced run sees
the wrappers that :func:`spans.instrument` installs.  Gates run in :meth:`Pass.check`,
outside the timed calls and outside the traced region.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import time
from dataclasses import dataclass, field

import inputs
import reference

CENSUS_CHECKS = ("cor-det", "det-asc", "main-theorem", "skein", "warp-smooth")
POOL_CHECKS = ("cor-det", "main-theorem", "warp-smooth")
# Populations of the exhaustive checks at the default bound of <= 4 chords;
# skein's population is its sample count.
CENSUS_POPULATIONS = {
    "cor-det": 6565,
    "det-asc": 6565,
    "main-theorem": 6693,
    "warp-smooth": 27893,
}
INVARIANTS_ARGS = ("--json", "-p", "2", "-p", "3", "-p", "0")


def cpu_count():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


@dataclass
class Item:
    """One timed call: a ``run_check`` or one knot's invariants."""

    name: str
    seconds: float
    diagrams: int
    result: object
    gate: object
    problems: list = field(default_factory=list)


@dataclass
class Pass:
    """The items of one pass; ``wall`` is the sum of their times.

    ``refs`` holds the reference kernel's times, taken before the first
    item and after each one.
    """

    wall: float
    items: list
    refs: list

    def check(self):
        """Gate every result; an exception from a call or a gate is a failure."""
        for item in self.items:
            try:
                if isinstance(item.result, Exception):
                    raise item.result
                item.problems = item.gate(item.result)
            except Exception as exc:
                item.problems = ["%s: %s" % (type(exc).__name__, exc)]
        return self


def _run_items(calls, fits=None):
    """Time each ``(name, call, diagrams, gate)``; gating is left to ``check``.

    Results and gates hold no vknot objects, so a pass that waits for its
    check keeps no import of vknot alive.  The reference kernel is timed
    before the first call and after each one.
    """
    items = []
    refs = [reference.seconds()]
    for k, (name, call, diagrams, gate) in enumerate(calls):
        if fits is not None and not fits(k):
            break
        t0 = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # counted as a failed item, never fatal
            result = exc
        items.append(Item(name, time.perf_counter() - t0, diagrams, result, gate))
        refs.append(reference.seconds())
    return Pass(sum(item.seconds for item in items), items, refs)


# -- census and census-pool ---------------------------------------------------


def _expected_report(name, config):
    """The serial report's fields, which every report must equal."""
    population = CENSUS_POPULATIONS.get(name, config.samples)
    return {
        "check": name,
        "population": population,
        "passes": population,
        "failures": 0,
        "counterexamples": [],
        "seed": config.seed,
    }


def _report_gate(name, config):
    want = _expected_report(name, config)

    def gate(report):
        got = dict(report)
        got.pop("elapsed_ms")
        return [
            "%s: %s is %.80r, expected %r" % (name, key, got.get(key), value)
            for key, value in want.items()
            if got.get(key) != value
        ]

    return gate


def _sweep_setup(seed, mods, checks, workers):
    # The census is exhaustive apart from skein's samples, and skein's cost
    # swings by a tenth from one sample seed to the next, so every --seed
    # runs the default config: the same inputs each time.
    config = mods.verify.SweepConfig(workers=workers)
    return {"mods": mods, "config": config, "checks": checks}


def _sweep_pass(state, fits=None):
    mods, config = state["mods"], state["config"]
    return _run_items(
        ((name, lambda name=name: mods.verify.run_check(name, config).to_dict(),
          _expected_report(name, config)["population"], _report_gate(name, config))
         for name in state["checks"]),
        fits,
    )


def census_setup(seed, mods):
    return _sweep_setup(seed, mods, CENSUS_CHECKS, 1)


def pool_workers():
    """Two workers, never more than the CPUs this process may use."""
    return max(1, min(2, cpu_count()))


def pool_setup(seed, mods):
    return _sweep_setup(seed, mods, POOL_CHECKS, pool_workers())


# -- table ----------------------------------------------------------------------


def _invariants(mods, knot):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = mods.cli.main(["invariants", knot, *INVARIANTS_ARGS])
    return status, out.getvalue()


def _invariants_gate(expect_catalog=None, oracle=None):
    """Gate on one ``invariants --json`` result.

    ``oracle`` returns the skein Conway polynomial of a classical knot; it
    is only called here, after the timed calls.  A refused determinant
    (exit 2) is correct only on a knot that is not checkerboard colorable.
    """

    def gate(result):
        status, text = result
        try:
            out = json.loads(text)
        except ValueError:
            return ["exit %d, output is not JSON" % status]
        problems = []
        colorable = out["colorable"]["2"]
        if out["determinant"] is None:
            if status != 2 or colorable:
                problems.append("determinant refused (exit %d), colorable=%s" % (status, colorable))
        else:
            if status != 0:
                problems.append("exit %d with a determinant" % status)
            if out.get("mod8_consistent") is not True:
                problems.append("det %d not +-(1 + 4 v2) mod 8" % out["determinant"])
        if expect_catalog is not None:
            actual = {
                "det": out["determinant"],
                "c2": out.get("c2"),
                "v2_mod2": None if out.get("c2") is None else out["c2"] % 2,
                "colorable_p0": out["colorable"]["0"],
                "colorable_p2": out["colorable"]["2"],
                "colorable_p3": out["colorable"]["3"],
            }
            for key, value in actual.items():
                want = expect_catalog.get(key)
                if want is not None and want != value:
                    problems.append("%s is %r, catalog says %r" % (key, value, want))
        if oracle is not None:
            want = [list(term) for term in oracle()]
            for key in ("ascending", "descending"):
                if out.get(key) != want:
                    problems.append("%s %r != Conway %r" % (key, out.get(key), want))
        return problems

    return gate


def table_setup(seed, mods):
    entries = mods.catalog.builtin_catalog()
    braids, virtuals = inputs.table_inputs(seed)
    return {"mods": mods, "entries": entries, "braids": braids, "virtuals": virtuals}


# Skein Conway polynomial per classical code, kept across passes: it is the
# untimed oracle, so caching it here speeds up no timed call.
_ORACLE = {}


def _oracle(code):
    """Skein Conway polynomial of a classical code, computed once per run
    with the vknot imported when the gates run."""
    if code not in _ORACLE:
        oracle = importlib.import_module("vknot.oracle")
        diagram = importlib.import_module("vknot.diagram")
        _ORACLE[code] = oracle.conway_polynomial(diagram.parse_gauss_code(code)).coeffs
    return _ORACLE[code]


def table_pass(state, fits=None):
    mods = state["mods"]
    calls = [
        ("catalog:" + entry.name, lambda knot=entry.name: _invariants(mods, knot), 1,
         _invariants_gate(expect_catalog=dict(entry.expected)))
        for entry in state["entries"]
    ]
    calls += [
        ("braid", lambda knot=code: _invariants(mods, knot), 1,
         _invariants_gate(oracle=lambda code=code: _oracle(code)))
        for code in state["braids"]
    ]
    calls += [
        ("virtual", lambda knot=code: _invariants(mods, knot), 1, _invariants_gate())
        for code in state["virtuals"]
    ]
    return _run_items(calls, fits)


# -- large ----------------------------------------------------------------------


def large_setup(seed, mods):
    return {"mods": mods, "codes": inputs.large_inputs(seed)}


def _large_knot(mods, code):
    diagram = mods.diagram.parse_gauss_code(code)
    colorable = mods.diagram.is_mod_p_numberable(diagram, 2)
    det = mods.determinant.determinant(diagram)
    return colorable, det, mods.arrows.v2(diagram, 2)


def _large_gate(result):
    colorable, det, v2 = result
    problems = []
    if not colorable:
        problems.append("classical knot reported not 2-colorable")
    if det % 8 not in ({1, 7} if v2 == 0 else {3, 5}):
        problems.append("det %d, v2 %d: not +-(1 + 4 v2) mod 8" % (det, v2))
    return problems


def large_pass(state, fits=None):
    mods = state["mods"]
    return _run_items(
        (("knot", lambda code=code: _large_knot(mods, code), 1, _large_gate)
         for code in state["codes"]),
        fits,
    )


WORKLOADS = {
    "census": (census_setup, _sweep_pass),
    "census-pool": (pool_setup, _sweep_pass),
    "table": (table_setup, table_pass),
    "large": (large_setup, large_pass),
}
