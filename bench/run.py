"""Benchmark of vknot's public API on seeded workloads.

Run from the repository root:

    python3 bench/run.py --workload census --seed 1 --seconds 30 --trace 0

``--trace 0`` times passes over the workload's inputs, untraced, for about
``--seconds`` and prints the end-to-end metrics.  ``--trace 1`` runs
one untraced and one traced pass and prints the per-layer metrics.  Every
metric is printed as a ``metric`` line; the last line is one JSON object
with the metrics that ``BENCHMARK.json`` lists for the mode.
``--workload all`` runs every workload in turn.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import glob
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import types

import reference
import spans
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
MODULES = ("arrows", "catalog", "cli", "determinant", "diagram", "enumeration", "oracle", "verify")
# Set-ups per run, all made before the timed passes; the fastest (scaled by
# the reference kernel, as every timed call is) is reported.
SETUP_REPS = 60
SWEEPS = ("census", "census-pool")
WORKLOAD_NAMES = tuple(workloads.WORKLOADS)


def tail(samples):
    """(value, percentile, count) of the highest percentile with at least
    ten samples beyond it, or None when there are fewer than eleven."""
    n = len(samples)
    if n < 11:
        return None
    return sorted(samples)[n - 11], 100.0 * (n - 10) / n, n


def peak_rss_mb(workload):
    """Peak resident set in MB of this process and, on census-pool, of its
    largest reaped pool worker (None elsewhere: no children are started)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if workload != "census-pool":
        return own, None
    return own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def import_vknot(src):
    """Fresh import of vknot's modules from ``src``."""
    for name in [m for m in sys.modules if m == "vknot" or m.startswith("vknot.")]:
        del sys.modules[name]
    mods = types.SimpleNamespace(
        **{m: importlib.import_module("vknot." + m) for m in MODULES}
    )
    if not os.path.abspath(mods.verify.__file__).startswith(src + os.sep):
        raise RuntimeError("vknot imported from %s, not %s" % (mods.verify.__file__, src))
    return mods


def fresh_state(workload, seed, src):
    """The workload's inputs, built on a fresh import of vknot.

    Each pass gets its own, so no module-level cache that an earlier pass
    filled can make a later one faster.
    """
    return workloads.WORKLOADS[workload][0](seed, import_vknot(src))


def setup_times(workload, seed, src, reps):
    """Wall time of each of ``reps`` set-ups (import, input generation and
    catalog load), and the reference kernel's time before the first and
    after each one."""
    times, refs = [], [reference.seconds()]
    for _ in range(reps):
        gc.collect()
        start = time.perf_counter()
        fresh_state(workload, seed, src)
        times.append(time.perf_counter() - start)
        refs.append(reference.seconds())
    return times, refs


def timed_passes(run_pass, new_state, seconds):
    """Passes over the inputs, each on ``new_state()``, for ``seconds``.

    The first pass is whole.  After it, an item starts only while its
    typical time so far still fits, so the last pass can stop part way.
    """
    passes = []
    deadline = time.perf_counter() + seconds

    def fits(k):
        typical = statistics.median(p.items[k].seconds for p in passes if k < len(p.items))
        return time.perf_counter() + typical <= deadline

    while True:
        gc.collect()
        p = run_pass(new_state(), fits if passes else None)
        if p.items:
            passes.append(p)
        if len(p.items) < len(passes[0].items):
            return passes


def best_times(passes):
    """Each item's fastest time over the passes that reached it (items match
    by position).

    Interference from other processes only ever slows a call down, so the
    fastest of repeated calls is the steadiest estimate of its cost.  Every
    pass runs on a fresh import, so a repeat is never served from a cache
    that an earlier pass warmed.
    """
    return [
        min(p.items[k].seconds for p in passes if k < len(p.items))
        for k in range(len(passes[0].items))
    ]


def end_to_end_metrics(workload, passes, setup, rss_mb):
    """Every end-to-end metric as name -> (value, unit, note).

    Times are scaled to the nominal machine of :mod:`reference`; the
    ``*.raw`` figures are unscaled, for comparison only.
    """
    items = [item for p in passes for item in p.items]
    setups, setup_refs = setup
    # The set-ups' kernel runs count for the passes too.  They run before
    # any pool exists; on census-pool, the runs between checks read up to
    # half slower than census's do.
    refs = setup_refs + [r for p in passes for r in p.refs]
    scale = reference.scale(refs)
    best = [t * scale for t in best_times(passes)]
    note = "best of %d passes, the last may be partial" % len(passes)
    setup_note = "fastest of %d set-ups" % len(setups)
    out = {"setup_s": (min(setups) * reference.scale(setup_refs), "s", setup_note + ", scaled")}
    out["setup_s.raw"] = (min(setups), "s", setup_note)
    diagrams = sum(i.diagrams for i in passes[0].items)
    rate = diagrams / sum(best)
    out["diagrams_per_s"] = (rate, "1/s", note + ", scaled")
    out["diagrams_per_s.raw"] = (rate * scale, "1/s", note)
    out["reference_ms"] = (
        1000.0 * min(refs), "ms",
        "fastest of %d kernel runs; %g on the nominal machine" % (len(refs), 1000.0 * reference.NOMINAL_S))
    if workload in SWEEPS:
        for item, seconds in zip(passes[0].items, best):
            out["check_s." + item.name] = (seconds, "s", note)
    else:
        out["knots_per_s"] = (rate, "1/s", note)
        # Whole passes only, so a partial last pass does not skew the mix.
        ms = [i.seconds * scale * 1000.0 for p in passes for i in p.items
              if len(p.items) == len(passes[0].items)]
        out["knot_ms.p50"] = (statistics.median(ms), "ms", "%d samples, scaled" % len(ms))
        t = tail(ms)
        if t is not None:
            out["knot_ms.tail"] = (t[0], "ms", "p%.1f of %d samples" % (t[1], t[2]))
    failed = sum(1 for i in items if i.problems)
    out["failed_frac"] = (failed / len(items), "ratio", "%d of %d items" % (failed, len(items)))
    own, worker = rss_mb
    if worker is None:
        out["peak_rss_mb"] = (own, "MB", "this process")
    else:
        out["peak_rss_mb"] = (max(own, worker), "MB", "this process %.1f, largest worker %.1f" % (own, worker))
    return out


def per_layer_metrics(recorder, traced, untraced):
    """Every per-layer metric of a traced pass as name -> (value, unit, note)."""
    times = spans.self_times(
        recorder.span_names(), recorder.parents, recorder.starts, recorder.ends
    )
    counters = recorder.counters
    out = {}
    for name in ("%s.%s" % layer for layer in spans.LAYERS):
        calls, self_s = times.get(name, (0, 0.0))
        if name in spans.GENERATORS:
            out[name + ".yielded"] = (counters[name + ".yielded"], "count", "")
        else:
            out[name + ".calls"] = (calls, "count", "")
        out[name + ".self_s"] = (self_s, "s", "")
    out["determinant.int_det.ops"] = (counters["determinant.int_det.ops"], "count", "computed")
    populations = {i.name: i.diagrams for i in traced.items}
    for check in workloads.CENSUS_POPULATIONS:
        enumerated = counters["enumeration.enumerate_all_diagrams.yielded@" + check]
        value = populations[check] / enumerated if enumerated else 0.0
        out["verify.population_yield." + check] = (value, "ratio", "%d enumerated" % enumerated)
    out["trace.overhead_frac"] = (traced.wall / untraced.wall - 1.0, "ratio", "%d spans" % len(recorder))
    return out


def traced_run(workload, run_pass, new_state):
    """One untraced pass, then one traced pass of the same inputs, each on a
    fresh import."""
    untraced = run_pass(new_state()).check()
    recorder = spans.SpanRecorder()
    # Pool workers would record spans nobody collects, so census-pool traces
    # only the parent side.
    layers = (("verify", "run_check"),) if workload == "census-pool" else spans.LAYERS
    state = new_state()
    with spans.instrument(recorder, layers):
        traced = run_pass(state)
    traced.check()
    recorder.write(os.path.join(BENCH_DIR, "out", "trace-%s.tsv.gz" % workload))
    return [untraced, traced], per_layer_metrics(recorder, traced, untraced)


def src_lines(src):
    total = 0
    for path in glob.glob(os.path.join(src, "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as handle:
            total += sum(1 for _ in handle)
    return total


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "vknot", "__init__.py")):
        print("bench: no vknot source at %s; run from the repository root" % src, file=sys.stderr)
        return 2
    if args.workload == "all":
        for workload in WORKLOAD_NAMES:
            subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                check=True,
            )
        return 0
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    sys.path.insert(0, src)

    def new_state():
        return fresh_state(args.workload, args.seed, src)

    run_pass = workloads.WORKLOADS[args.workload][1]
    if args.trace:
        passes, metrics = traced_run(args.workload, run_pass, new_state)
        wanted = spec["per_layer"]
    else:
        times = setup_times(args.workload, args.seed, src, SETUP_REPS)
        passes = timed_passes(run_pass, new_state, args.seconds)
        # Read before the gates run, so the untimed oracle's memory is not counted.
        rss_mb = peak_rss_mb(args.workload)
        for p in passes:
            p.check()
        metrics = end_to_end_metrics(args.workload, passes, times, rss_mb)
        wanted = spec["end_to_end"]

    items = [item for p in passes for item in p.items]
    failed = [item for item in items if item.problems]
    for item in failed[:20]:
        print("FAILED %s: %s" % (item.name, "; ".join(item.problems)), file=sys.stderr)
    print("workload %s seed %d trace %d passes %d" % (args.workload, args.seed, args.trace, len(passes)))
    print("meta nproc %d python %s src_lines %d pool_workers %d" % (
        workloads.cpu_count(), platform.python_version(), src_lines(src), workloads.pool_workers()))
    for name, (value, unit, note) in metrics.items():
        print("metric %s %r %s%s" % (name, value, unit, "  (%s)" % note if note else ""))
    result = {}
    for entry in wanted:
        value, unit, _ = metrics[entry["name"]]
        if unit != entry["unit"]:
            raise RuntimeError("%s is measured in %s, BENCHMARK.json says %s" % (entry["name"], unit, entry["unit"]))
        result[entry["name"]] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": not failed,
        "attempted": len(items),
        "failed": len(failed),
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
