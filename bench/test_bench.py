"""Tests of the benchmark's own helpers.

Run from the repository root with ``python3 -m pytest bench``.
"""

import os
import random
import subprocess
import sys
import types

import pytest

import inputs
import reference
import run
import spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from vknot import parse_gauss_code  # noqa: E402


# -- tail percentile --------------------------------------------------------------


def test_tail_needs_eleven_samples():
    assert run.tail(list(range(10))) is None
    value, percentile, count = run.tail(list(range(11)))
    assert (value, count) == (0, 11)
    assert percentile == pytest.approx(100.0 / 11)


def test_tail_leaves_exactly_ten_samples_beyond():
    samples = [float(x) for x in range(100)]
    random.Random(0).shuffle(samples)
    value, percentile, count = run.tail(samples)
    assert value == 89.0 and percentile == 90.0 and count == 100
    assert sum(1 for s in samples if s > value) == 10


# -- self time ---------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] has children a [1, 4], b [4.5, 6] and c [9, 9.5];
    # a has child a1 [2, 3], which counts against a, not root.
    names = ["root", "a", "a1", "b", "c"]
    parents = [-1, 0, 1, 0, 0]
    starts = [0.0, 1.0, 2.0, 4.5, 9.0]
    ends = [10.0, 4.0, 3.0, 6.0, 9.5]
    times = spans.self_times(names, parents, starts, ends)
    assert times["root"] == [1, pytest.approx(10 - (3 + 1.5 + 0.5))]
    assert times["a"] == [1, pytest.approx(3 - 1)]
    assert times["a1"] == [1, pytest.approx(1)]
    assert times["b"] == [1, pytest.approx(1.5)]
    assert times["c"] == [1, pytest.approx(0.5)]


def test_self_time_sums_calls_of_one_name():
    times = spans.self_times(
        ["f", "g", "f", "g"], [-1, 0, -1, 2], [0.0, 0.5, 2.0, 2.0], [1.0, 1.0, 3.0, 2.25]
    )
    assert times["f"] == [2, pytest.approx(0.5 + 0.75)]
    assert times["g"] == [2, pytest.approx(0.75)]


def test_bareiss_ops():
    assert [spans.bareiss_ops(n) for n in (0, 1, 2, 3)] == [0, 0, 1, 5]
    assert spans.bareiss_ops(10) == sum((10 - 1 - k) ** 2 for k in range(9))


# -- passes and scaling ------------------------------------------------------------


def test_timed_passes_stop_part_way_when_an_item_no_longer_fits(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(run.time, "perf_counter", lambda: clock[0])
    costs = [4.0, 3.0, 2.0]

    def run_pass(state, fits=None):
        items = []
        for k, cost in enumerate(costs):
            if fits is not None and not fits(k):
                break
            clock[0] += cost
            items.append(types.SimpleNamespace(seconds=cost))
        return types.SimpleNamespace(items=items)

    # The first pass ends at 9 s; 9 + 4 and 13 + 3 fit in 16 s, 16 + 2 does not.
    passes = run.timed_passes(run_pass, lambda: None, 16.0)
    assert [len(p.items) for p in passes] == [3, 2]


def test_best_times_skip_items_a_partial_pass_did_not_reach():
    def a_pass(*seconds):
        return types.SimpleNamespace(items=[types.SimpleNamespace(seconds=t) for t in seconds])

    assert run.best_times([a_pass(3.0, 2.0, 5.0), a_pass(2.5)]) == [2.5, 2.0, 5.0]


def test_scale_uses_the_fastest_kernel_run():
    assert reference.scale([0.02, 0.005, 0.03]) == pytest.approx(reference.NOMINAL_S / 0.005)


def test_reference_kernel_is_unchanged():
    # Every scaled figure is relative to this kernel, so it must never change.
    assert reference.kernel() == 935193523215853213624083267824716056085519939450852534276123588208870


# -- instrumentation --------------------------------------------------------------


@pytest.fixture
def fake_package(monkeypatch):
    """``pkg.low`` defines ``leaf`` and ``stream``; ``pkg.high`` imports them."""
    pkg = types.ModuleType("pkg")
    low = types.ModuleType("pkg.low")
    high = types.ModuleType("pkg.high")

    def leaf(x):
        return x + 1

    def stream(n):
        yield from range(n)

    low.leaf, low.stream = leaf, stream
    high.leaf, high.stream = leaf, stream
    exec("def top(x):\n    return leaf(x) * 2\n", high.__dict__)
    for name, mod in (("pkg", pkg), ("pkg.low", low), ("pkg.high", high)):
        monkeypatch.setitem(sys.modules, name, mod)
    monkeypatch.setattr(spans, "GENERATORS", {"low.stream"})
    return low, high


def test_instrument_nests_calls_through_copied_names_and_restores(fake_package):
    low, high = fake_package
    original_leaf = low.leaf
    recorder = spans.SpanRecorder()
    layers = (("high", "top"), ("low", "leaf"), ("low", "stream"))
    with spans.instrument(recorder, layers, package="pkg"):
        assert high.leaf is not original_leaf and low.leaf is high.leaf
        assert high.top(1) == 4
        assert list(high.stream(3)) == [0, 1, 2]
    assert low.leaf is original_leaf and high.leaf is original_leaf
    assert recorder.span_names() == ["high.top", "low.leaf"] + ["low.stream"] * 4
    assert list(recorder.parents) == [-1, 0, -1, -1, -1, -1]
    assert recorder.counters["low.stream.yielded"] == 3


# -- inputs ------------------------------------------------------------------------


def test_inputs_are_byte_identical_for_a_seed_across_processes():
    script = (
        "import sys; sys.path.insert(0, %r); import inputs; "
        "print(repr((inputs.table_inputs(5), inputs.large_inputs(5))))" % os.path.dirname(inputs.__file__)
    )
    outs = [
        subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONHASHSEED=hashseed),
            capture_output=True, check=True, timeout=60,
        ).stdout
        for hashseed in ("1", "2")
    ]
    assert outs[0] == outs[1]
    assert outs[0].decode().strip() == repr((inputs.table_inputs(5), inputs.large_inputs(5)))
    assert inputs.table_inputs(5) != inputs.table_inputs(6)
    assert inputs.large_inputs(5) != inputs.large_inputs(6)


def test_braid_closure_matches_known_codes():
    assert inputs.braid_closure_code([1, 1, 1], 2) == "O1+U2+O3+U1+O2+U3+"
    assert inputs.braid_closure_code([1, -2, 1, -2], 3) is not None
    assert inputs.braid_closure_code([1, -1], 2) is None
    assert inputs.braid_closure_code([1, 1], 3) is None  # right parity, three components


def test_wrong_parity_braid_is_refused_not_retried():
    with pytest.raises(ValueError):
        inputs.knot_braid_generators(random.Random(0), 11, 3)
    with pytest.raises(ValueError):
        inputs.knot_braid_generators(random.Random(0), 10, 4)
    assert inputs.strands_for(11, 3) == 4 and inputs.strands_for(10, 3) == 3


def test_seeds_share_the_chord_layout_of_each_size():
    def layouts(codes):
        return [[label for label, _ in parse_gauss_code(c).circles[0]] for c in codes]

    for pick in (lambda s: sum(inputs.table_inputs(s), []), inputs.large_inputs):
        assert pick(3) != pick(4)
        assert layouts(pick(3)) == layouts(pick(4))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generated_braids_are_knots_of_the_requested_size(seed):
    braids, virtuals = inputs.table_inputs(seed)
    large = inputs.large_inputs(seed)
    expected = list(inputs.TABLE_BRAID_CROSSINGS) + list(inputs.LARGE_CROSSINGS)
    for code, crossings in zip(braids + large, expected):
        diagram = parse_gauss_code(code)
        assert diagram.num_circles == 1
        assert diagram.num_chords == crossings
    for code, chords in zip(virtuals, inputs.TABLE_VIRTUAL_CHORDS):
        diagram = parse_gauss_code(code)
        assert (diagram.num_circles, diagram.num_chords) == (1, chords)
