"""Coloring matrices and exact integer determinants.

The coloring matrix of a checkerboard colorable diagram has one row per
crossing and one column per long arc (arc between consecutive
under-passages).  The over arc at a crossing contributes +2 to its column
and each under-arc incidence contributes -1, accumulated; an arc that is
both over and under at the same crossing therefore lands on 1, and a kink's
single arc on 0.  Every determinant here is computed by fraction-free
elimination over the integers: residue classes mod 8 are meaningless under
floating point rounding.

A coloring matrix has at most three nonzeros per row, so :func:`int_det`
eliminates over sparse rows: the pivot is the shortest row reaching the
current column, rows that do not reach it are left alone, and the Bareiss
scaling they skip is applied at their next update, where it telescopes
into a single exact division.  Its work follows the fill-in, not n^3.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from .diagram import is_mod_p_numberable
from .errors import (
    NotCheckerboardColorable,
    PreconditionError,
    UnderPassageFreeComponent,
)


# -- exact integer matrices -------------------------------------------------


@dataclass(frozen=True)
class IntMatrix:
    """Rectangular integer matrix; mock Seifert matrices are stored as these."""

    rows: tuple

    def __post_init__(self):
        widths = {len(r) for r in self.rows}
        if len(widths) > 1:
            raise PreconditionError("ragged matrix")
        for row in self.rows:
            for entry in row:
                if not isinstance(entry, int):
                    raise PreconditionError("matrix entries must be exact integers")

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0]) if self.rows else 0


def _rows(matrix):
    if isinstance(matrix, IntMatrix):
        return [list(r) for r in matrix.rows]
    return [list(r) for r in matrix]


def int_det(matrix):
    """Exact signed determinant of a square integer matrix.

    Sparse Bareiss elimination.  Each row is a ``{column: value}`` dict of
    its nonzeros.  Step k takes as pivot, among the rows not yet used, the
    one with the fewest nonzeros that has an entry in column k; each row
    transposition this implies flips the sign.  Only rows with an entry in
    column k are updated.  Dense Bareiss would scale every other row by
    ``p_k / p_(k-1)``; those factors telescope, so a row is left as it was
    and remembers the pivot ``d`` it was last updated under.  Its next
    update, under pivot ``p`` with pivot row ``a_k``, is
    ``(a_ij * p - a_ik * a_kj) // d``, and the pivot row itself is first
    brought up to date by ``* p_(k-1) // d``.  Every value computed this
    way is a true Bareiss entry, a minor of the input, so each division is
    exact.  The work follows the fill-in, not n^3.
    """
    dense = _rows(matrix)
    n = len(dense)
    if any(len(r) != n for r in dense):
        raise PreconditionError("determinant of a non-square matrix")
    rows = [{j: v for j, v in enumerate(r) if v} for r in dense]
    # rows[i] holds its entries as of the pivot scale[i]
    scale = [1] * n
    sign = 1
    prev = 1
    for k in range(n):
        best = None
        for i in range(k, n):
            if k in rows[i] and (best is None or len(rows[i]) < len(rows[best])):
                best = i
        if best is None:
            return 0
        if best != k:
            rows[k], rows[best] = rows[best], rows[k]
            scale[k], scale[best] = scale[best], scale[k]
            sign = -sign
        pivot_row = rows[k]
        if scale[k] != prev:
            d = scale[k]
            pivot_row = {j: v * prev // d for j, v in pivot_row.items()}
        pivot = pivot_row.pop(k)
        pivot_get = pivot_row.get
        pivot_cols = pivot_row.keys()
        for i in range(k + 1, n):
            row = rows[i]
            f = row.pop(k, 0)
            if not f:
                continue
            get = row.get
            d = scale[i]
            rows[i] = {
                j: v
                for j in row.keys() | pivot_cols
                if (v := (get(j, 0) * pivot - f * pivot_get(j, 0)) // d)
            }
            scale[i] = pivot
        prev = pivot
    return sign * prev


def mock_det(matrix):
    """|det S| for a user-supplied mock Seifert matrix."""
    return abs(int_det(matrix))


def skein_block_check(s0, x, y, a):
    """Verify det S+ - det S- = 2 det S0 for the bordered matrices.

    ``S+`` extends ``s0`` by column ``x``, row ``y`` and corner ``a``;
    ``S-`` is identical except the corner is ``a - 2``.  The identity is a
    theorem, so a False return flags a determinant bug, not new mathematics.
    """
    base = _rows(s0)
    n = len(base)
    if any(len(r) != n for r in base) or len(x) != n or len(y) != n:
        raise PreconditionError("block dimensions do not match")
    plus = [row + [xi] for row, xi in zip(base, x)] + [list(y) + [a]]
    minus = [row + [xi] for row, xi in zip(base, x)] + [list(y) + [a - 2]]
    return int_det(plus) - int_det(minus) == 2 * int_det(base)


def parse_int_matrix(text):
    """Read a matrix from text: one row per line, ``#`` comments ignored."""
    rows = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        rows.append(tuple(int(tok) for tok in line.split()))
    return IntMatrix(tuple(rows))


def format_int_matrix(matrix, header=None):
    lines = []
    if header:
        lines.extend("# " + h for h in header)
    for row in _rows(matrix):
        lines.append(" ".join(str(e) for e in row))
    return "\n".join(lines) + "\n"


# -- long arcs and the coloring matrix ---------------------------------------


def long_arcs(diagram):
    """Ordered long-arc ids ``(circle, k)``; arc k starts at the k-th head.

    A circle without under-passages yields a single closed arc ``(ci, 0)``.
    """
    out = []
    for ci, circle in enumerate(diagram.circles):
        heads = sum(1 for _, is_head in circle if is_head)
        out.extend((ci, k) for k in range(max(1, heads)))
    return out


def _head_positions(diagram):
    return [
        [pos for pos, (_, is_head) in enumerate(circle) if is_head]
        for circle in diagram.circles
    ]


def _arc_containing(head_positions, pos):
    """Index of the long arc strictly containing position ``pos``."""
    if not head_positions:
        return 0
    return (bisect_right(head_positions, pos) - 1) % len(head_positions)


@dataclass(frozen=True)
class ColoringMatrix:
    """Crossing-by-long-arc integer matrix with provenance."""

    entries: tuple
    row_chords: tuple
    col_arcs: tuple

    @property
    def nrows(self):
        return len(self.entries)

    @property
    def ncols(self):
        return len(self.col_arcs)

    def to_text(self):
        header = [
            "rows: chords %s" % (list(self.row_chords),),
            "cols: long arcs %s" % (list(self.col_arcs),),
        ]
        return format_int_matrix(self.entries, header=header)


def coloring_matrix(diagram):
    """Coloring matrix of a checkerboard colorable diagram.

    Rows follow chord ids in sorted order; columns follow
    :func:`long_arcs`.  Raises if the diagram is not mod 2 numberable, or if
    a link component carries no under-passage.
    """
    if not is_mod_p_numberable(diagram, 2):
        raise NotCheckerboardColorable(
            "diagram %s is not checkerboard colorable" % diagram
        )
    if diagram.num_circles > 1:
        for ci, circle in enumerate(diagram.circles):
            if not any(is_head for _, is_head in circle):
                raise UnderPassageFreeComponent(
                    "component %d has no under-passage" % ci
                )
    arcs = long_arcs(diagram)
    col = {arc: j for j, arc in enumerate(arcs)}
    heads = _head_positions(diagram)
    rows = []
    chords = diagram.chord_ids()
    for chord in chords:
        row = [0] * len(arcs)
        ci, tp = diagram.tail(chord)
        row[col[(ci, _arc_containing(heads[ci], tp))]] += 2
        cj, hp = diagram.head(chord)
        k = heads[cj].index(hp)
        h = len(heads[cj])
        row[col[(cj, (k - 1) % h)]] -= 1
        row[col[(cj, k)]] -= 1
        rows.append(tuple(row))
    return ColoringMatrix(tuple(rows), chords, tuple(arcs))


def determinant(diagram):
    """|det| of the coloring matrix with last row and column deleted.

    Diagrams with at most one crossing return 1.  The choice of minor is
    validated empirically by :func:`minor_independence_check`.
    """
    matrix = coloring_matrix(diagram)
    n = matrix.nrows
    if n <= 1:
        return 1
    if n != matrix.ncols:
        raise UnderPassageFreeComponent(
            "coloring matrix is %dx%d, expected square" % (n, matrix.ncols)
        )
    minor = [row[: n - 1] for row in matrix.entries[: n - 1]]
    return abs(int_det(minor))


def corank1_minors(matrix):
    """|det| of every (n-1)x(n-1) minor of a square matrix."""
    rows = _rows(matrix)
    n = len(rows)
    out = []
    for i in range(n):
        for j in range(n):
            minor = [
                [rows[r][c] for c in range(n) if c != j] for r in range(n) if r != i
            ]
            out.append(abs(int_det(minor)))
    return out


def minor_independence_check(diagram):
    """True iff all corank-1 minors of the coloring matrix agree in |det|."""
    matrix = coloring_matrix(diagram)
    if matrix.nrows != matrix.ncols:
        raise UnderPassageFreeComponent("coloring matrix is not square")
    if matrix.nrows <= 1:
        return True
    values = set(corank1_minors(matrix.entries))
    return len(values) == 1
