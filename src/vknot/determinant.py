"""Coloring matrices and exact integer determinants.

The coloring matrix of a checkerboard colorable diagram has one row per
crossing and one column per long arc (arc between consecutive
under-passages).  The over arc at a crossing contributes +2 to its column
and each under-arc incidence contributes -1, accumulated; an arc that is
both over and under at the same crossing therefore lands on 1, and a kink's
single arc on 0.  Every determinant here is computed by fraction-free
elimination over the integers: residue classes mod 8 are meaningless under
floating point rounding.

A coloring matrix has at most three nonzeros per row.  :func:`determinant`
builds its rows as ``{column: value}`` dicts in one pass over each circle
and eliminates them in two phases: ±1 pivots in columns held by at most two
rows, which need no division and only merge two rows, then a sparse Bareiss
kernel that pivots on the column with the fewest nonzeros, so its work
follows the fill-in, not n^3.
"""

from __future__ import annotations

import heapq
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
    """Exact signed determinant of a square integer matrix, by :func:`_bareiss` over its nonzeros."""
    dense = _rows(matrix)
    n = len(dense)
    if any(len(r) != n for r in dense):
        raise PreconditionError("determinant of a non-square matrix")
    return _bareiss([{j: v for j, v in enumerate(r) if v} for r in dense], n)


def _parity(perm):
    """1 if ``perm``, a permutation of range(len(perm)), is odd, else 0."""
    perm = list(perm)
    odd = 0
    for i in range(len(perm)):
        while perm[i] != i:
            j = perm[i]
            perm[i], perm[j] = perm[j], j
            odd ^= 1
    return odd


def _bareiss(rows, n):
    """Signed determinant of ``n`` sparse rows: ``{column: nonzero value}`` over range(n).

    The rows are consumed.  ``holders[j]`` is the set of live rows with an
    entry in column ``j``, so a step touches only the rows holding its pivot
    column, and only the pivot row's columns can gain or lose a holder.  The
    elimination runs in two phases, and the sign is the parity of the map
    from each pivot row to its pivot column across both: the parity of the
    row order times that of the column order.

    Contraction: while a live column has at most two holders and one of
    them holds a ±1 ``u`` there, pivot on the shorter row holding such a
    unit and subtract the multiple of it that clears the column, in place,
    from the other holder, if any.  No division is needed, the determinant
    is ``u`` times that of what is left, and the step only merges two rows,
    so the count of nonzeros never grows.  A column becomes a candidate
    again whenever a step changes it.

    Then fraction-free (Bareiss) elimination of what is left, in a
    fill-reducing order.  The pivot column is the live column with the
    fewest holders, from a heap whose stale entries (a retired column, or an
    old count) are skipped when popped; the pivot row is the shortest row
    holding it.  Dense Bareiss would scale every row the step leaves alone by
    ``p_k / p_(k-1)``; those factors telescope, so such a row is left as it
    was and remembers the pivot ``d`` it was last updated under.  Its next
    update, under pivot ``p`` with pivot row ``a_k``, is
    ``(a_ij * p - a_ik * a_kj) // d``, and the pivot row itself is first
    brought up to date by ``* p_(k-1) // d``.  Every value computed this way
    is a true Bareiss entry, a minor of the matrix left by the contraction,
    so each division is exact.
    """
    holders = [set() for _ in range(n)]
    for i, row in enumerate(rows):
        for j in row:
            holders[j].add(i)
    pivot_col = [None] * n
    units = 1
    candidates = [j for j, h in enumerate(holders) if len(h) <= 2]
    while candidates:
        col = candidates.pop()
        held = holders[col]
        if held is None or len(held) > 2:
            continue
        r = None
        for i in held:
            if rows[i][col] in (1, -1) and (r is None or len(rows[i]) < len(rows[r])):
                r = i
        if r is None:
            continue
        holders[col] = None
        held.discard(r)
        pivot_col[r] = col
        pivot_row = rows[r]
        rows[r] = None
        u = pivot_row.pop(col)
        units *= u
        for j in pivot_row:
            holders[j].discard(r)
        for i in held:
            row = rows[i]
            f = row.pop(col) * u
            for j, v in pivot_row.items():
                if new := row.get(j, 0) - f * v:
                    if j not in row:
                        holders[j].add(i)
                    row[j] = new
                else:
                    del row[j]
                    holders[j].discard(i)
        candidates.extend(j for j in pivot_row if len(holders[j]) <= 2)
    heap = [(len(h), j) for j, h in enumerate(holders) if h is not None]
    heapq.heapify(heap)
    # rows[i] holds its entries as of the pivot scale[i]
    scale = [1] * n
    prev = 1
    for _ in range(len(heap)):
        while True:
            count, col = heapq.heappop(heap)
            held = holders[col]
            if held is not None and count == len(held):
                break
        if not count:
            return 0
        holders[col] = None
        r = min(held, key=lambda i: (len(rows[i]), i))
        held.discard(r)
        pivot_col[r] = col
        pivot_row = rows[r]
        rows[r] = None
        if scale[r] != prev:
            d = scale[r]
            pivot_row = {j: v * prev // d for j, v in pivot_row.items()}
        p = pivot_row.pop(col)
        pivot_get = pivot_row.get
        pivot_cols = pivot_row.keys()
        for j in pivot_cols:
            holders[j].discard(r)
        for i in held:
            row = rows[i]
            f = row.pop(col)
            get = row.get
            d = scale[i]
            new = rows[i] = {
                j: v
                for j in row.keys() | pivot_cols
                if (v := (get(j, 0) * p - f * pivot_get(j, 0)) // d)
            }
            scale[i] = p
            if new.keys() != row.keys():
                for j in new.keys() - row.keys():
                    holders[j].add(i)
                for j in row.keys() - new.keys():
                    holders[j].discard(i)
        for j in pivot_cols:
            heapq.heappush(heap, (len(holders[j]), j))
        prev = p
    det = units * prev
    return -det if _parity(pivot_col) else det


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


def _require_colorable(diagram):
    """Raise unless the diagram is mod 2 numberable (on a knot, the parity test of
    :func:`is_mod_p_numberable`) with an under-passage on every link component."""
    if not is_mod_p_numberable(diagram, 2):
        raise NotCheckerboardColorable("diagram %s is not checkerboard colorable" % diagram)
    if diagram.num_circles > 1:
        for ci, circle in enumerate(diagram.circles):
            if not any(is_head for _, is_head in circle):
                raise UnderPassageFreeComponent(
                    "component %d has no under-passage" % ci
                )


def _coloring_rows(circles, chords):
    """The coloring matrix of the endpoint words ``circles`` as one ``{column: value}`` dict per
    chord of ``chords``, and its column count.

    Rows follow ``chords`` and columns follow :func:`long_arcs`; an entry
    that accumulates to 0 stays in its dict.  One pass over each circle
    keeps the column of the arc it is on: a head ends that arc and starts
    the next.  Endpoints before a circle's first head lie on its last arc,
    which is known once the pass ends.  Colorability is not checked.
    """
    rows = {chord: {} for chord in chords}
    base = 0
    for circle in circles:
        arc = base - 1
        wrapped = []
        for chord, is_head in circle:
            row = rows[chord]
            value = -1 if is_head else 2
            if arc < base:
                wrapped.append((row, value))
            else:
                row[arc] = row.get(arc, 0) + value
            if is_head:
                arc += 1
                row[arc] = row.get(arc, 0) - 1
        last = max(arc, base)
        for row, value in wrapped:
            row[last] = row.get(last, 0) + value
        base = last + 1
    return [rows[chord] for chord in chords], base


def _word_determinant(circles, chords):
    """:func:`determinant` of the colorable diagram with endpoint words ``circles``."""
    rows, _ = _coloring_rows(circles, chords)
    n = len(rows)
    if n <= 1:
        return 1
    last = n - 1
    minor = [{j: v for j, v in row.items() if v and j != last} for row in rows[:last]]
    return abs(_bareiss(minor, last))


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
    _require_colorable(diagram)
    rows, ncols = _coloring_rows(diagram.circles, diagram.chord_ids())
    entries = []
    for row in rows:
        dense = [0] * ncols
        for j, v in row.items():
            dense[j] = v
        entries.append(tuple(dense))
    return ColoringMatrix(tuple(entries), diagram.chord_ids(), tuple(long_arcs(diagram)))


def determinant(diagram):
    """|det| of the coloring matrix with last row and column deleted.

    Diagrams with at most one crossing return 1.  The choice of minor is
    validated empirically by :func:`minor_independence_check`.
    """
    _require_colorable(diagram)
    return _word_determinant(diagram.circles, diagram.chord_ids())


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
    if matrix.nrows <= 1:
        return True
    values = set(corank1_minors(matrix.entries))
    return len(values) == 1
