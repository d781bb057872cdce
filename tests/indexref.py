"""Per-chord interleaving tests, the reference for ``index``, ``indices`` and
``verify._smoothing_candidates``.

Each reads a chord's endpoints through ``tail``/``head`` and compares cyclic
open arcs, one chord at a time.
"""


def _in_open_arc(pos, start, end, m):
    """True if ``pos`` lies strictly between ``start`` and ``end`` cyclically."""
    return (pos - start) % m < (end - start) % m and pos != start


def _index_terms(diagram, chord):
    """``(other, coefficient)`` of every chord interleaved with ``chord``.

    The coefficient is +1 when the other chord's tail lies on the arc from
    the head of ``chord`` to its tail, else -1; :func:`index` is
    ``sign(chord) * sum(coefficient * sign(other))``.  Signs are not read.
    """
    _, t = diagram.tail(chord)
    _, h = diagram.head(chord)
    m = len(diagram.circles[0])
    for other, _ in diagram.signs:
        if other == chord:
            continue
        _, td = diagram.tail(other)
        _, hd = diagram.head(other)
        if _in_open_arc(td, t, h, m) != _in_open_arc(hd, t, h, m):
            yield other, 1 if _in_open_arc(td, h, t, m) else -1


def index(diagram, chord):
    total = sum(coef * diagram.sign(other) for other, coef in _index_terms(diagram, chord))
    return diagram.sign(chord) * total


def _smoothing_candidates(diagram):
    """Chords whose interleaving chords all have tails on the basepoint arc."""
    m = 2 * diagram.num_chords
    if diagram.num_circles != 1 or m == 0:
        return
    for alpha in diagram.chord_ids():
        _, t = diagram.tail(alpha)
        _, h = diagram.head(alpha)
        gap_in_th = _in_open_arc(0, t, h, m) or h == 0
        ok = True
        for other in diagram.chord_ids():
            if other == alpha:
                continue
            tail_in = _in_open_arc(diagram.tail(other)[1], t, h, m)
            if tail_in != _in_open_arc(diagram.head(other)[1], t, h, m) and tail_in != gap_in_th:
                ok = False
                break
        if ok:
            yield alpha
