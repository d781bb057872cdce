"""Span recording for the traced benchmark run.

The benchmark traces vknot from outside: :func:`instrument` rebinds the
public functions of vknot's modules to wrappers that open a span around
each call, and restores the originals afterwards.  Every module attribute
holding the function is rebound, including names copied by
``from .x import f``, so calls between modules (``determinant ->
coloring_matrix -> int_det``) nest as child spans.  The library source is
never touched.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import os
import sys
import time
from array import array
from collections import Counter


class SpanRecorder:
    """Spans kept in memory as parallel arrays, in the order they opened."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_ids = array("l")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.current = -1
        self.counters = Counter()
        # Name of the check whose run_check call is in progress.
        self.check = None

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid):
        i = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self.current)
        self.ends.append(0.0)
        self.current = i
        self.starts.append(time.perf_counter())
        return i

    def close(self, i):
        self.ends[i] = time.perf_counter()
        self.current = self.parents[i]

    def __len__(self):
        return len(self.starts)

    def span_names(self):
        return [self.names[nid] for nid in self.name_ids]

    def write(self, path):
        """Write every span as ``name parent start end`` lines (gzip)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        t0 = self.starts[0] if self.starts else 0.0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("# span\tname\tparent\tstart_s\tend_s\n")
            for i, (nid, parent, start, end) in enumerate(
                zip(self.name_ids, self.parents, self.starts, self.ends)
            ):
                out.write(
                    "%d\t%s\t%d\t%.7f\t%.7f\n"
                    % (i, self.names[nid], parent, start - t0, end - t0)
                )


def self_times(names, parents, starts, ends):
    """Per span name: [calls, self seconds].

    A span's self time is its duration minus the durations of its child
    spans.  :class:`SpanRecorder` opens and closes spans strictly last in,
    first out, so children never overlap each other or outlive their parent.
    """
    n = len(starts)
    covered = array("d", [0.0]) * n
    for i in range(n):
        p = parents[i]
        if p >= 0:
            covered[p] += ends[i] - starts[i]
    out = {}
    for i in range(n):
        entry = out.setdefault(names[i], [0, 0.0])
        entry[0] += 1
        entry[1] += ends[i] - starts[i] - covered[i]
    return out


def bareiss_ops(n):
    """Cell updates of Bareiss elimination on an n x n matrix: sum (n-1-k)^2."""
    return (n - 1) * n * (2 * n - 1) // 6 if n > 1 else 0


def _run_check_started(recorder, args):
    recorder.check = args[0]


def _int_det_ops(recorder, args):
    matrix = args[0]
    n = matrix.nrows if hasattr(matrix, "nrows") else len(matrix)
    recorder.counters["determinant.int_det.ops"] += bareiss_ops(n)


# Public functions wrapped in the traced run, as (module, function).
LAYERS = (
    ("enumeration", "enumerate_all_diagrams"),
    ("diagram", "parse_gauss_code"),
    ("diagram", "is_mod_p_numberable"),
    ("diagram", "basepoint_positions"),
    ("diagram", "smooth"),
    ("diagram", "crossing_change"),
    ("determinant", "determinant"),
    ("determinant", "coloring_matrix"),
    ("determinant", "int_det"),
    ("arrows", "conway_pairing"),
    ("arrows", "conway_pairing_table"),
    ("arrows", "ascending_polynomial"),
    ("arrows", "descending_polynomial"),
    ("arrows", "v2"),
    ("verify", "run_check"),
    ("cli", "main"),
    ("catalog", "builtin_catalog"),
)
GENERATORS = {"enumeration.enumerate_all_diagrams"}
ON_CALL = {
    "determinant.int_det": _int_det_ops,
    "verify.run_check": _run_check_started,
}


def wrap(func, name, recorder):
    """``func`` with a span named ``name`` around every call."""
    nid = recorder.name_id(name)
    on_call = ON_CALL.get(name)

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        if on_call is not None:
            on_call(recorder, args)
        i = recorder.open(nid)
        try:
            return func(*args, **kwargs)
        finally:
            recorder.close(i)

    return wrapper


def wrap_generator(func, name, recorder):
    """``func`` returning a generator; each ``next()`` is one span.

    Yields are counted in total and per check (``<name>.yielded@<check>``).
    """
    nid = recorder.name_id(name)
    yielded = name + ".yielded"

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        inner = func(*args, **kwargs)
        while True:
            i = recorder.open(nid)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                recorder.close(i)
            recorder.counters[yielded] += 1
            recorder.counters["%s@%s" % (yielded, recorder.check)] += 1
            yield item

    return wrapper


@contextlib.contextmanager
def instrument(recorder, layers=LAYERS, package="vknot"):
    """Rebind the given layers' functions to traced wrappers while active."""
    replaced = {}
    for module, func_name in layers:
        original = getattr(sys.modules["%s.%s" % (package, module)], func_name)
        name = "%s.%s" % (module, func_name)
        make = wrap_generator if name in GENERATORS else wrap
        replaced[id(original)] = (original, make(original, name, recorder))
    undo = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or (mod_name != package and not mod_name.startswith(package + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
                undo.append((mod, attr, value))
    try:
        yield recorder
    finally:
        for mod, attr, value in undo:
            setattr(mod, attr, value)
