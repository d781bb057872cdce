"""Differential tests of the coloring-row builder and the minimum-degree
Bareiss kernel of ``vknot.determinant``.

``detref`` holds the dense-row coloring matrix and the column-order
``int_det`` they replaced; cofactor expansion and sympy are independent
oracles for ``int_det``'s sign and value.
"""

import functools
import heapq
import importlib
import random
import runpy
from pathlib import Path
from types import SimpleNamespace

import detref
import pytest

from vknot.arrows import v2
from vknot.determinant import coloring_matrix, determinant, int_det, long_arcs
from vknot.diagram import make_diagram, parse_gauss_code
from vknot.enumeration import enumerate_all_diagrams, random_knot_diagram
from vknot.errors import NotCheckerboardColorable, UnderPassageFreeComponent

det_module = importlib.import_module("vknot.determinant")

# run as a script, not imported, so that no bytecode is written under bench/
BENCH_INPUTS = runpy.run_path(str(Path(__file__).resolve().parent.parent / "bench" / "inputs.py"))


def _outcome(function, *args):
    """The value of ``function(*args)``, or the type of what it raised."""
    try:
        return function(*args)
    except Exception as exc:  # the reference's error type is part of the answer
        return type(exc)


def test_census_matches_reference():
    counts = {}
    for k in range(5):
        for G in enumerate_all_diagrams(k):
            want = _outcome(detref.determinant, G)
            assert _outcome(determinant, G) == want, str(G)
            entries = _outcome(detref.coloring_matrix, G)
            if isinstance(entries, type):
                assert _outcome(coloring_matrix, G) == entries, str(G)
            else:
                matrix = coloring_matrix(G)
                assert matrix.entries == entries, str(G)
                assert matrix.row_chords == G.chord_ids()
                assert matrix.col_arcs == tuple(long_arcs(G))
            counts[want if isinstance(want, type) else int] = counts.get(want, 0) + 1
    assert set(counts) == {int, NotCheckerboardColorable}


def _seeded_diagrams(count, seed):
    """Knots and 2- and 3-circle links with 1 to 9 chords: a random knot's
    word cut into one, two or three circles."""
    rng = random.Random(seed)
    for i in range(count):
        knot = random_knot_diagram(rng.randint(1, 9), rng)
        (word,) = knot.circles
        cuts = sorted(rng.randint(0, len(word)) for _ in range(i % 3))
        yield make_diagram([word[a:b] for a, b in zip([0, *cuts], [*cuts, len(word)])], knot.signs)


def test_seeded_links_match_reference():
    seen = set()
    for G in _seeded_diagrams(3000, 12):
        want = _outcome(detref.determinant, G)
        assert _outcome(determinant, G) == want, str(G)
        if not isinstance(want, type):
            assert coloring_matrix(G).entries == detref.coloring_matrix(G), str(G)
        seen.add(want if isinstance(want, type) else (G.num_circles, want > 0))
    assert NotCheckerboardColorable in seen and UnderPassageFreeComponent in seen
    # nonzero and zero determinants, on knots and on links
    assert {(1, True), (2, True), (2, False), (3, True), (3, False)} <= seen


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_large_closures_match_reference(seed):
    for code in BENCH_INPUTS["large_inputs"](seed):
        G = parse_gauss_code(code)
        assert determinant(G) == detref.determinant(G), code


def _cofactor_det(rows):
    """Laplace expansion along the first row, memoized on the columns left."""
    n = len(rows)

    @functools.cache
    def minor(i, cols):
        if i == n:
            return 1
        total, sign = 0, 1
        for j in range(n):
            if cols >> j & 1:
                if rows[i][j]:
                    total += sign * rows[i][j] * minor(i + 1, cols & ~(1 << j))
                sign = -sign
        return total

    return minor(0, (1 << n) - 1)


def _random_matrix(rng, n):
    """A random n x n matrix, sparse or dense, forced singular half of the time."""
    density = rng.choice((0.3, 0.5, 0.8, 1.0))
    rows = [[rng.randint(-3, 3) if rng.random() < density else 0 for _ in range(n)] for _ in range(n)]
    shape = rng.randrange(6)
    if shape == 1 and n > 2:
        # one row a combination of two others
        i, j, k = rng.sample(range(n), 3)
        c = rng.randint(-2, 2)
        rows[i] = [x + c * y for x, y in zip(rows[j], rows[k])]
    elif shape == 2 and n > 1:
        # two equal columns
        a, b = rng.sample(range(n), 2)
        for row in rows:
            row[b] = row[a]
    elif shape == 3 and n:
        # a zero row
        rows[rng.randrange(n)] = [0] * n
    return rows


def test_int_det_matches_cofactor_expansion():
    rng = random.Random(17)
    singular = negative = 0
    for _ in range(3000):
        rows = _random_matrix(rng, rng.randint(0, 7))
        want = _cofactor_det(rows)
        assert int_det(rows) == want, rows
        assert detref.int_det(rows) == want
        singular += want == 0
        negative += want < 0
    assert singular > 1000 and negative > 300


def test_int_det_matches_reference_on_sparse_matrices():
    # larger sparse matrices, where the pivot order fills in and cancels entries
    rng = random.Random(23)
    for _ in range(300):
        n = rng.randint(8, 30)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in rng.sample(range(n), rng.randint(1, 4)):
                rows[i][j] = rng.choice((-2, -1, 1, 2))
        assert int_det(rows) == detref.int_det(rows), rows


def test_int_det_matches_sympy_on_40x40():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(40)
    dense = [[rng.randint(-9, 9) for _ in range(40)] for _ in range(40)]
    sparse = [[rng.choice((-2, -1, 1, 2)) if rng.random() < 0.08 else 0 for _ in range(40)] for _ in range(40)]
    singular = [row[:] for row in dense]
    singular[7] = [a - 3 * b for a, b in zip(dense[3], dense[29])]
    values = []
    for rows in (dense, sparse, singular):
        values.append(int_det(rows))
        assert values[-1] == sympy.Matrix(rows).det()
    assert values[0] != 0 and values[2] == 0


# -- the contraction (unit) phase of _bareiss -----------------------------------


class _Row(dict):
    """A sparse row that counts the entries the kernel writes into it in place,
    and how many of those it did not hold (fill-in)."""

    writes = fills = 0

    def __setitem__(self, key, value):
        self.writes += 1
        self.fills += key not in self
        super().__setitem__(key, value)


def _kernel_run(dense, monkeypatch):
    """``(det, in-place writes, rows left for the Bareiss phase)`` of ``_bareiss`` on ``dense``.

    Each phase builds its heap with one ``heapify``: the contraction over every
    column, then the Bareiss phase over the live ones, one per row it is left.
    """
    heaps = []

    def heapify(heap):
        heaps.append(len(heap))
        heapq.heapify(heap)

    rows = [_Row({j: v for j, v in enumerate(row) if v}) for row in dense]
    with monkeypatch.context() as patch:
        patch.setattr(det_module, "heapq", SimpleNamespace(
            heapify=heapify, heappop=heapq.heappop, heappush=heapq.heappush))
        det = det_module._bareiss(list(rows), len(dense))
    assert len(heaps) == 2 and heaps[0] == len(dense), heaps
    return det, sum(row.writes for row in rows), heaps[1]


def _shuffled(rows, rng):
    """``rows`` with their rows and their columns each in a random order."""
    n = len(rows)
    order, cols = rng.sample(range(n), n), rng.sample(range(n), n)
    return [[rows[i][j] for j in cols] for i in order]


def _signed_permutation(rng, n):
    perm = rng.sample(range(n), n)
    return [[rng.choice((1, -1)) if j == perm[i] else 0 for j in range(n)] for i in range(n)]


def _unit_triangular(rng, n):
    """A shuffled triangular matrix with ±1 on its diagonal and entries in [-3, 3] above it."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = rng.choice((1, -1))
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                rows[i][j] = rng.randint(-3, 3)
    return _shuffled(rows, rng)


def _assert_det(rows, monkeypatch, *, contracted=None):
    want = detref.int_det(rows)
    if len(rows) <= 9:
        assert _cofactor_det(rows) == want
    det, writes, residual = _kernel_run(rows, monkeypatch)
    assert det == int_det(rows) == want, rows
    if contracted is not None:
        assert (residual == 0) == contracted, (rows, residual)
    return det, writes


def test_contraction_eliminates_signed_permutations(monkeypatch):
    rng = random.Random(61)
    negative = 0
    for _ in range(300):
        rows = _signed_permutation(rng, rng.randint(1, 40))
        det, writes = _assert_det(rows, monkeypatch, contracted=True)
        assert writes == 0
        negative += det < 0
    assert 100 < negative < 200


def test_contraction_eliminates_unit_triangular_matrices(monkeypatch):
    rng = random.Random(62)
    dets = set()
    for _ in range(300):
        det, _ = _assert_det(_unit_triangular(rng, rng.randint(1, 40)), monkeypatch, contracted=True)
        dets.add(det)
    assert dets == {1, -1}


def test_contraction_leaves_even_matrices_to_bareiss(monkeypatch):
    rng = random.Random(63)
    nonzero = 0
    for _ in range(200):
        n = rng.randint(1, 12)
        rows = [[2 * rng.randint(-2, 2) if rng.random() < 0.5 else 0 for _ in range(n)] for _ in range(n)]
        det, writes = _assert_det(rows, monkeypatch)
        assert writes == 0
        if det:
            assert _kernel_run(rows, monkeypatch)[2] == n
            nonzero += 1
    assert nonzero > 50


def test_column_emptied_by_contraction_gives_zero(monkeypatch):
    # rows 0 and 1 differ by e_2: the unit steps cancel row 1 against row 0
    # and leave one column with no holder
    rows = [[1, 1, 0], [1, 1, 1], [0, 0, 1]]
    assert _assert_det(rows, monkeypatch)[0] == 0
    assert _kernel_run(rows, monkeypatch)[2] == 1
    rng = random.Random(64)
    for _ in range(200):
        rows = _unit_triangular(rng, rng.randint(2, 30))
        a, b = rng.sample(range(len(rows)), 2)
        rows[b] = list(rows[a])
        assert _assert_det(rows, monkeypatch)[0] == 0


def _crowded_units(rng, n):
    """A random n x n matrix whose every column has at least three holders,
    with entries in {-1, 1, -2, 2, 3}."""
    rows = [[0] * n for _ in range(n)]
    for j in range(n):
        for i in rng.sample(range(n), rng.randint(3, n)):
            rows[i][j] = rng.choice((-1, 1, -2, 2, 3))
    return rows


def test_contraction_takes_units_in_columns_of_three_or_more_holders(monkeypatch):
    # every ±1 sits in a column that three or more rows hold, so a contraction
    # restricted to columns of at most two holders would leave all n rows
    rng = random.Random(67)
    both = negative = 0
    for _ in range(400):
        n = rng.randint(3, 20)
        rows = _crowded_units(rng, n)
        det, _ = _assert_det(rows, monkeypatch)
        residual = _kernel_run(rows, monkeypatch)[2]
        if any(v in (1, -1) for row in rows for v in row):
            assert residual < n, rows
        both += 0 < residual < n
        negative += det < 0
    assert both > 300 and negative > 100


def test_contraction_pivots_on_the_shorter_unit_row(monkeypatch):
    # column 0 is held by rows 0 and 1, both with a unit there, and every
    # other column by at least three rows with even entries only: the one
    # unit step pivots on row 0 and subtracts it from row 1, whose entry in
    # column 1 cancels, so nothing is written; pivoting on row 1 would
    # write three entries into row 0
    rows = [
        [1, 2, 0, 0, 0],
        [1, 2, 2, 2, 2],
        [0, 2, 4, 2, 0],
        [0, 2, 0, 4, 2],
        [0, 0, 2, 0, 4],
    ]
    det, writes = _assert_det(rows, monkeypatch)
    assert det and writes == 0 and _kernel_run(rows, monkeypatch)[2] == 4
    rows[0], rows[1] = rows[1], rows[0]
    det, writes = _assert_det(rows, monkeypatch)
    assert det and writes == 0


def test_contraction_mixes_with_bareiss_on_random_matrices(monkeypatch):
    # unit-rich sparse matrices: both phases run, with cancellations
    rng = random.Random(65)
    both = 0
    for _ in range(1500):
        n = rng.randint(2, 9)
        rows = [[rng.choice((-1, 1, 1, -2, 2, 3)) if rng.random() < 0.35 else 0 for _ in range(n)]
                for _ in range(n)]
        want = _cofactor_det(rows)
        det, _, residual = _kernel_run(rows, monkeypatch)
        assert det == want, rows
        both += want != 0 and 0 < residual < n
    assert both > 100


def test_contraction_on_large_closures():
    for crossings in (1000, 2000):
        G = parse_gauss_code(BENCH_INPUTS["seeded_braid_knot"](random.Random("ci:%d" % crossings), crossings, 5))
        det = determinant(G)
        assert det == detref.determinant(G), crossings
        assert det % 8 in ({1, 7} if v2(G, 2) == 0 else {3, 5}), crossings


def test_contraction_on_seed1_large_minors(monkeypatch):
    # the rows the Bareiss phase starts with on the 79-249-row minors of the
    # seed-1 `large` knots; pivots in columns of at most two holders only left
    # it 22, 49, 64, 78 and 114
    left = []
    for code in BENCH_INPUTS["large_inputs"](1):
        G = parse_gauss_code(code)
        minor = [list(row[:-1]) for row in coloring_matrix(G).entries[:-1]]
        det, _, residual = _kernel_run(minor, monkeypatch)
        assert det == detref.int_det(minor) and abs(det) == determinant(G), code
        left.append(residual)
    assert left == [4, 5, 6, 11, 14]


def _colorable_virtual_knot(rng, chords):
    """A random knot whose every chord joins an even endpoint slot to an odd
    one, so it is checkerboard colorable, with random directions and signs."""
    odd = list(range(1, 2 * chords, 2))
    rng.shuffle(odd)
    slots = [None] * (2 * chords)
    signs = {}
    for chord, (a, b) in enumerate(zip(range(0, 2 * chords, 2), odd), 1):
        head_at_a = rng.random() < 0.5
        slots[a], slots[b] = (chord, head_at_a), (chord, not head_at_a)
        signs[chord] = rng.choice((1, -1))
    return make_diagram([slots], signs)


def test_colorable_virtual_knots_match_reference():
    # unlike the braid closures, these minors fill in during the contraction:
    # its steps write entries that the rows did not hold
    rng = random.Random(68)
    residues = set()
    filled = 0
    for _ in range(40):
        G = _colorable_virtual_knot(rng, rng.randint(60, 200))
        det = determinant(G)
        assert det == detref.determinant(G), str(G)
        assert det % 8 in ({1, 7} if v2(G, 2) == 0 else {3, 5}), str(G)
        residues.add(det % 8)
        minor = [_Row({j: v for j, v in enumerate(row[:-1]) if v}) for row in coloring_matrix(G).entries[:-1]]
        assert abs(det_module._bareiss(list(minor), len(minor))) == det
        filled += any(row.fills for row in minor)
    assert residues == {1, 3, 5, 7} and filled == 40
