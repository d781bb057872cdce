"""The coloring matrix and ``int_det`` that came before the sparse row builder
and the minimum-degree kernel in ``vknot.determinant``.

``coloring_matrix`` builds each dense row by locating the chord's head with
``list.index`` and its tail by bisection; ``int_det`` turns the dense rows
into dicts and, at step k, scans the unused rows for the shortest one with
an entry in column k.  They are kept here as the reference that
``determinant``, ``coloring_matrix`` and ``int_det`` must agree with,
unchanged apart from returning the entries alone and from calling the
labeling walk ``alexander_numbering`` directly, which is what
``is_mod_p_numberable`` ran on every diagram when they were written.
"""

from bisect import bisect_right

from vknot.determinant import long_arcs
from vknot.diagram import alexander_numbering
from vknot.errors import (
    NotCheckerboardColorable,
    PreconditionError,
    UnderPassageFreeComponent,
)


def int_det(matrix):
    dense = [list(r) for r in matrix]
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


def coloring_matrix(diagram):
    """The entries of the coloring matrix, rows by sorted chord id."""
    if alexander_numbering(diagram, 2) is None:
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
    return tuple(rows)


def determinant(diagram):
    """|det| of the coloring matrix with last row and column deleted."""
    entries = coloring_matrix(diagram)
    n = len(entries)
    if n <= 1:
        return 1
    if n != len(long_arcs(diagram)):
        raise UnderPassageFreeComponent(
            "coloring matrix is %dx%d, expected square" % (n, len(long_arcs(diagram)))
        )
    minor = [row[: n - 1] for row in entries[: n - 1]]
    return abs(int_det(minor))
