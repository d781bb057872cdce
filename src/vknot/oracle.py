"""Classical Conway polynomial by skein recursion.

This is the reference implementation used to cross-check the ascending and
descending polynomials: it never looks at arrow patterns.  Walking the
diagram from the basepoint (components in order), the first crossing met on
its under side is switched, spawning the smoothed diagram times z as the
skein correction; descending diagrams terminate the recursion (unknot for
one component, split trivial link for several).  The result is the Conway
polynomial whenever the input code is planar-realizable; on non-classical
codes the recursion still terminates but computes nothing meaningful.
"""

from __future__ import annotations

from .arrows import ONE, ZERO
from .diagram import crossing_change, smooth


def _first_ascending_violation(diagram):
    """First chord whose first passage in traversal order is an under-passage."""
    seen = set()
    for circle in diagram.circles:
        for chord, is_head in circle:
            if chord in seen:
                continue
            seen.add(chord)
            if is_head:
                return chord
    return None


def conway_polynomial(diagram):
    """Conway polynomial of a classical (planar-realizable) Gauss code."""
    bad = _first_ascending_violation(diagram)
    if bad is None:
        return ONE if diagram.num_circles == 1 else ZERO
    switched = conway_polynomial(crossing_change(diagram, bad))
    smoothed = conway_polynomial(smooth(diagram, bad))
    return switched + smoothed.scaled(diagram.sign(bad), shift=1)
