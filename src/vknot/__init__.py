"""Invariants of virtual knots and links from signed Gauss codes.

The package computes chord indices, mod p Alexander numberings, warping
degrees, ascending/descending polynomials via arrow-diagram pairings, and
exact coloring-matrix determinants, together with a sweep harness that
verifies the relations between them (most prominently
``det == +-(1 + 4 v2) mod 8`` on checkerboard colorable knots).
"""

from .arrows import (
    ArrowDiagram,
    ConwaySet,
    IntPolynomial,
    ascending_polynomial,
    conway_pairing,
    conway_pairing_table,
    conway_set,
    descending_polynomial,
    is_ascending,
    is_descending,
    is_one_component,
    jump_traversal,
    pairing,
    parse_arrow_code,
    serialize_arrow_code,
    subset_pattern,
    table_polynomials,
    v2,
    z2_pairings_at_basepoints,
)
from .catalog import (
    CatalogEntry,
    builtin_catalog,
    find_entry,
    load_catalog,
    loads_catalog,
    verify_entry,
)
from .determinant import (
    ColoringMatrix,
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
from .diagram import (
    BasedGaussDiagram,
    Numbering,
    alexander_numbering,
    basepoint_positions,
    crossing_change,
    index,
    indices,
    is_mod_p_numberable,
    make_diagram,
    numbering_is_valid,
    parse_gauss_code,
    serialize_gauss_code,
    shift_basepoint,
    smooth,
    warping_degree,
)
from .enumeration import (
    connecting_chords,
    enumerate_all_diagrams,
    enumerate_diagrams,
    enumerate_structures,
    random_knot_diagram,
    random_link_diagram,
    raw_diagram_count,
    rotation_canonical_key,
)
from .errors import (
    GaussCodeError,
    NotCheckerboardColorable,
    PreconditionError,
    UnderPassageFreeComponent,
    UnknownCheckError,
    UnknownChordError,
    VknotError,
)
from .moves import (
    basepoint_shifts,
    r1_deletions,
    r1_insertions,
    r2_deletions,
    r2_insertions,
    r3_slides,
    random_reidemeister_walk,
    reidemeister_moves,
)
from .oracle import conway_polynomial
from .verify import (
    CheckReport,
    CHECKS,
    CensusStructure,
    SweepConfig,
    recheck,
    reports_to_json,
    run_check,
    run_checks,
)

__version__ = "0.1.0"
