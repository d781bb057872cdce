"""Differential tests of the coloring-row builder and the minimum-degree
Bareiss kernel of ``vknot.determinant``.

``detref`` holds the dense-row coloring matrix and the column-order
``int_det`` they replaced; cofactor expansion and sympy are independent
oracles for ``int_det``'s sign and value.
"""

import functools
import random
import runpy
from pathlib import Path

import detref
import pytest

from vknot.determinant import coloring_matrix, determinant, int_det, long_arcs
from vknot.diagram import make_diagram, parse_gauss_code
from vknot.enumeration import enumerate_all_diagrams, random_knot_diagram
from vknot.errors import NotCheckerboardColorable, UnderPassageFreeComponent

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
