import itertools
import random

import pytest
from braidutil import braid_closure_gauss_code

from vknot.catalog import find_entry
from vknot.determinant import (
    IntMatrix,
    coloring_matrix,
    corank1_minors,
    determinant,
    format_int_matrix,
    int_det,
    long_arcs,
    minor_independence_check,
    mock_det,
    parse_int_matrix,
    skein_block_check,
)
from vknot.diagram import is_mod_p_numberable, parse_gauss_code
from vknot.enumeration import enumerate_all_diagrams, enumerate_structures, random_link_diagram
from vknot.errors import (
    NotCheckerboardColorable,
    PreconditionError,
    UnderPassageFreeComponent,
)
from vknot.verify import CensusStructure

TREFOIL = parse_gauss_code("O1+U2+O3+U1+O2+U3+")

# the published coloring matrix of 4.90, up to row/column permutation
MATRIX_490 = [(1, -1, 0, 0), (1, 0, 0, -1), (2, 0, -1, -1), (2, -1, -1, 0)]


def test_long_arcs():
    assert len(long_arcs(TREFOIL)) == 3
    assert long_arcs(parse_gauss_code("")) == [(0, 0)]
    assert len(long_arcs(parse_gauss_code("O1+O2+U1+U2+"))) == 2
    assert long_arcs(parse_gauss_code("O1+U2+;O2+U1+")) == [(0, 0), (1, 0)]


def test_kink_coloring_matrix_is_zero():
    B = coloring_matrix(parse_gauss_code("O1+U1+"))
    assert B.entries == ((0,),)
    assert determinant(parse_gauss_code("O1+U1+")) == 1


def test_row_sums_vanish():
    for G in enumerate_all_diagrams(3):
        if not is_mod_p_numberable(G, 2):
            continue
        B = coloring_matrix(G)
        for row in B.entries:
            assert sum(row) == 0
            assert all(-2 <= entry <= 2 for entry in row)
        # consequently the full square matrix is singular
        if B.nrows == B.ncols and B.nrows > 0:
            assert int_det(B.entries) == 0


def matches_up_to_permutation(entries, target):
    n = len(entries)
    target_rows = sorted(target)
    for perm in itertools.permutations(range(n)):
        if sorted(tuple(r[j] for j in perm) for r in entries) == target_rows:
            return True
    return False


def test_490_matrix_and_determinant():
    G = find_entry("4.90").diagram()
    B = coloring_matrix(G)
    assert matches_up_to_permutation(B.entries, MATRIX_490)
    assert determinant(G) == 1
    assert minor_independence_check(G)


def test_classical_determinants():
    assert determinant(TREFOIL) == 3
    assert determinant(parse_gauss_code("O1+U2-O3-U1+O4+U3-O2-U4+")) == 5
    assert determinant(parse_gauss_code("")) == 1
    assert minor_independence_check(TREFOIL)


def _conway_determinant(G):
    """|Alexander polynomial at -1| from the skein oracle, no coloring matrix."""
    from vknot.oracle import conway_polynomial

    poly = conway_polynomial(G)
    assert all(d % 2 == 0 for d, _ in poly.coeffs)
    return abs(sum(c * (-4) ** (d // 2) for d, c in poly.coeffs))


CLASSICAL_ENTRIES = (
    "unknot", "kink", "trefoil", "trefoil-left", "figure-eight",
    "cinquefoil", "7_1", "granny", "square-knot",
)


def test_determinant_matches_conway_oracle_on_classical_knots():
    for name in CLASSICAL_ENTRIES:
        G = find_entry(name).diagram()
        assert determinant(G) == _conway_determinant(G), name


def test_exact_conway_determinant_relation_fails_beyond_classical():
    # 6.87548 is almost classical but not classical: the exact relation
    # breaks (1 vs 9) while the two values still agree mod 8
    G = find_entry("6.87548").diagram()
    det = determinant(G)
    oracle = _conway_determinant(G)
    assert det == 1 and oracle == 9
    assert (det - oracle) % 8 == 0


def test_determinant_preconditions():
    with pytest.raises(NotCheckerboardColorable):
        determinant(parse_gauss_code("O1+O2+U1+U2+"))
    # numberable two-circle diagram whose second component never goes under
    G = parse_gauss_code("O1+U1+U2+U3+;O2+O3+")
    assert is_mod_p_numberable(G, 2)
    with pytest.raises(UnderPassageFreeComponent):
        coloring_matrix(G)


@pytest.mark.parametrize("code", ["", "O1+U1+", "U1-O1-"])
def test_minor_independence_with_at_most_one_crossing(code):
    G = parse_gauss_code(code)
    assert determinant(G) == 1
    assert minor_independence_check(G) is True


def test_coloring_matrix_is_square_wherever_determinant_reads_it():
    # determinant eliminates the matrix without checking its shape once it has two or more rows;
    # the crossingless knot's 0x1 matrix is answered before the shape matters
    empty = coloring_matrix(parse_gauss_code(""))
    assert (empty.nrows, empty.ncols) == (0, 1)
    knots = 0
    for G in enumerate_all_diagrams(4):
        if G.num_chords and is_mod_p_numberable(G, 2):
            matrix = coloring_matrix(G)
            assert matrix.nrows == matrix.ncols, str(G)
            knots += 1
    assert knots == 6564
    rng = random.Random(15)
    links = 0
    while links < 500:
        G = random_link_diagram(rng.randint(1, 8), rng)
        if is_mod_p_numberable(G, 2) and all(any(h for _, h in circle) for circle in G.circles):
            matrix = coloring_matrix(G)
            assert matrix.nrows == matrix.ncols, str(G)
            determinant(G)
            links += 1


def test_coloring_matrix_export():
    text = coloring_matrix(TREFOIL).to_text()
    lines = text.splitlines()
    assert lines[0].startswith("# rows: chords")
    assert lines[1].startswith("# cols: long arcs")
    assert parse_int_matrix(text).rows == coloring_matrix(TREFOIL).entries


def test_int_det_basics():
    assert int_det([[1, 0], [0, 1]]) == 1
    assert int_det([[0, 0], [3, 1]]) == 0
    assert int_det([]) == 1
    with pytest.raises(PreconditionError):
        int_det([[1, 2, 3], [4, 5, 6]])


def test_mock_seifert_matrix_example():
    S = parse_int_matrix("-2 -1 0 0\n-1 2 1 0\n0 -1 0 1\n0 0 1 2")
    assert mock_det(S) == 1
    assert int_det(S) == 1


def _laplace_det(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * _laplace_det(minor)
    return total


def test_int_det_against_cofactor_expansion():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(0, 5)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert int_det(rows) == _laplace_det(rows)


def _dense_bareiss(rows):
    """Dense Bareiss elimination, the reference the sparse int_det replaced."""
    a = [list(r) for r in rows]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def _coloring_minor(G):
    entries = coloring_matrix(G).entries
    n = len(entries)
    return [list(row[: n - 1]) for row in entries[: n - 1]]


def _braid_knot(rng, crossings, strands):
    while True:
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(crossings)]
        code = braid_closure_gauss_code(word, strands)
        if code is not None:
            return parse_gauss_code(code)


def test_int_det_matches_dense_bareiss_on_random_matrices():
    rng = random.Random(11)
    singular = 0
    for _ in range(4000):
        n = rng.randint(0, 9)
        density = rng.choice((0.15, 0.3, 0.6, 1.0))
        rows = [
            [rng.randint(-4, 4) if rng.random() < density else 0 for _ in range(n)]
            for _ in range(n)
        ]
        shape = rng.randrange(4)
        if shape == 1 and n:
            # zero diagonal entries force pivot searches and row swaps
            for i in range(rng.randint(1, n)):
                rows[i][i] = 0
        elif shape == 2 and n > 2:
            # one row a combination of two others: singular
            i, j, k = rng.sample(range(n), 3)
            c = rng.randint(-2, 2)
            rows[i] = [x + c * y for x, y in zip(rows[j], rows[k])]
        elif shape == 3 and n:
            # a column of zeros: singular
            j = rng.randrange(n)
            for row in rows:
                row[j] = 0
        expected = _dense_bareiss(rows)
        singular += expected == 0
        assert int_det(rows) == expected, rows
    assert singular > 500


def test_int_det_matches_dense_bareiss_on_census_coloring_minors():
    checked = 0
    for word, _ in enumerate_structures(4):
        G = CensusStructure(word).diagram([1] * (len(word) // 2))
        if not is_mod_p_numberable(G, 2):
            continue
        full = [list(row) for row in coloring_matrix(G).entries]
        minor = _coloring_minor(G)
        assert int_det(minor) == _dense_bareiss(minor), str(G)
        assert int_det(full) == _dense_bareiss(full), str(G)
        checked += 1
    assert checked > 100


def test_int_det_matches_dense_bareiss_on_braid_closures():
    rng = random.Random(16)
    for crossings in range(10, 17):
        for strands in (3, 4):
            if crossings % 2 != (strands - 1) % 2:
                continue
            minor = _coloring_minor(_braid_knot(rng, crossings, strands))
            assert int_det(minor) == _dense_bareiss(minor), (crossings, strands)


def test_int_det_matches_sympy_on_large_closures():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(80)
    for crossings in (80, 120):
        minor = _coloring_minor(_braid_knot(rng, crossings, 5))
        # Matrix.det()'s default method takes seconds here; the exact
        # domain determinant of the same Matrix takes milliseconds
        assert int_det(minor) == sympy.Matrix(minor).to_DM().det(), crossings


def test_skein_block_examples():
    assert skein_block_check([[2]], [0], [0], 0)
    assert skein_block_check([], [], [], 5)  # empty block: a - (a-2) = 2
    with pytest.raises(PreconditionError):
        skein_block_check([[1]], [0, 0], [0], 1)


def test_skein_block_random():
    rng = random.Random(9)
    for _ in range(200):
        n = rng.randint(0, 6)
        s0 = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        x = [rng.randint(-9, 9) for _ in range(n)]
        y = [rng.randint(-9, 9) for _ in range(n)]
        assert skein_block_check(s0, x, y, rng.randint(-9, 9))


def test_corank1_minors_degenerate():
    assert set(corank1_minors([[0, 0], [0, 0]])) == {0}
    assert set(corank1_minors([[1, -1], [1, -1]])) == {1}


def test_int_matrix_validation():
    with pytest.raises(PreconditionError):
        IntMatrix(((1, 2), (3,)))
    with pytest.raises(PreconditionError):
        IntMatrix(((1.5,),))


def test_format_parse_round_trip():
    M = IntMatrix(((1, -2), (0, 7)))
    assert parse_int_matrix(format_int_matrix(M)).rows == M.rows


def test_mock_det_matches_table_entry_determinant():
    S = parse_int_matrix("-2 -1 0 0\n-1 2 1 0\n0 -1 0 1\n0 0 1 2")
    G = find_entry("6.87548").diagram()
    assert mock_det(S) == determinant(G) == 1


def _component_one_over_two(G):
    inter = [
        c for c, _ in G.signs if G.tail(c)[0] != G.head(c)[0]
    ]
    if not inter:
        return False
    if any(G.tail(c)[0] != 0 for c in inter):
        return False
    # component one needs a self-crossing for the block argument to apply
    return any(G.tail(c)[0] == G.head(c)[0] == 0 for c, _ in G.signs)


def test_two_component_over_stack_has_determinant_zero():
    # hand-built: circle one crosses itself once and passes over circle two twice
    G = parse_gauss_code("O1+U1+O2+O3+;U2+U3+")
    assert _component_one_over_two(G)
    assert is_mod_p_numberable(G, 2)
    assert determinant(G) == 0
    rng = random.Random(21)
    found = 0
    while found < 25:
        H = random_link_diagram(rng.randint(2, 5), rng)
        if not _component_one_over_two(H):
            continue
        if not is_mod_p_numberable(H, 2):
            continue
        try:
            det = determinant(H)
        except UnderPassageFreeComponent:
            continue
        assert det == 0, str(H)
        found += 1
