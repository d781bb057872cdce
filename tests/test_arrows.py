import random

import pytest

from vknot.arrows import (
    ArrowDiagram,
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
    v2,
)
from vknot.catalog import find_entry
from vknot.diagram import crossing_change, parse_gauss_code, smooth, warping_degree, basepoint_positions
from vknot.enumeration import (
    connecting_chords,
    enumerate_all_diagrams,
    random_knot_diagram,
    random_link_diagram,
)
from vknot.errors import GaussCodeError, PreconditionError
from vknot.oracle import conway_polynomial

TREFOIL = parse_gauss_code("O1+U2+O3+U1+O2+U3+")


def test_traversal_single_arrow_skips_enclosed_arc():
    A = parse_arrow_code("O1U1")
    reached, gaps = jump_traversal(A)
    assert reached == ((0, 0),)  # only the tail is reached by travel
    assert (0, 1) not in gaps
    assert not is_one_component(A)


def test_traversal_crossing_arrows():
    A = parse_arrow_code("U1O2O1U2")
    reached, gaps = jump_traversal(A)
    assert len(gaps) == 4
    first_two = [A.circles[0][pos] for _, pos in reached[:2]]
    assert first_two == [(1, True), (2, True)]  # heads of both arrows first
    assert is_one_component(A) and is_ascending(A) and not is_descending(A)

    B = parse_arrow_code("O1O2U1U2")
    reached, gaps = jump_traversal(B)
    assert len(gaps) == 4
    first_two = [B.circles[0][pos] for _, pos in reached[:2]]
    assert first_two == [(1, False), (2, True)]  # tail of 1, then head of 2
    assert is_one_component(B) and not is_ascending(B) and not is_descending(B)


def test_isolated_arrows_are_descending_but_split():
    A = parse_arrow_code("O1U1O2U2")
    assert is_descending(A)
    assert not is_one_component(A)


def test_descending_one_component_pattern():
    A = parse_arrow_code("O1U2U1O2")
    assert is_one_component(A) and is_descending(A) and not is_ascending(A)


def test_arrow_code_round_trip():
    for code in ("U1O2O1U2", "U1;O1", ""):
        assert serialize_arrow_code(parse_arrow_code(code)) == code
    with pytest.raises(GaussCodeError):
        parse_arrow_code("O1+U1+")


@pytest.mark.parametrize(
    "circles,message",
    [
        ((((1, True), (2, False)), ((1, True), (2, True))), "arrow 1 has two head endpoints"),
        ((((1, True),),), "arrow 1 is missing an endpoint"),
    ],
    ids=["two-heads", "missing-endpoint"],
)
def test_arrow_diagram_refusals(circles, message):
    with pytest.raises(GaussCodeError) as info:
        ArrowDiagram(circles)
    assert str(info.value) == message


def test_conway_set_structure():
    assert [str(m) for m in conway_set(2, 1, "ascending").members] == ["U1O2O1U2"]
    assert [str(m) for m in conway_set(2, 1, "descending").members] == ["O1U2U1O2"]
    assert [str(m) for m in conway_set(1, 2, "ascending").members] == ["U1;O1"]
    assert [str(m) for m in conway_set(1, 2, "descending").members] == ["O1;U1"]
    assert [str(m) for m in conway_set(0, 1, "ascending").members] == [""]
    for degree, circles in ((1, 1), (2, 2), (0, 2), (-1, 1)):
        with pytest.raises(ValueError):
            conway_set(degree, circles, "ascending")
    with pytest.raises(ValueError):
        conway_set(2, 1, "sideways")


def test_conway_set_members_satisfy_predicates():
    for degree, circles in ((2, 1), (3, 2), (4, 1)):
        for variant, predicate in (("ascending", is_ascending), ("descending", is_descending)):
            cs = conway_set(degree, circles, variant)
            assert len(cs) > 0
            keys = set()
            for member in cs.members:
                assert is_one_component(member) and predicate(member)
                keys.add(member.canonical_key())
            assert len(keys) == len(cs.members)


def test_pairing_examples():
    empty = parse_arrow_code("")
    assert pairing(empty, TREFOIL) == 1
    asc2 = conway_set(2, 1, "ascending").members[0]
    assert pairing(asc2, TREFOIL) == 1
    with pytest.raises(PreconditionError):
        pairing(parse_arrow_code("U1;O1"), TREFOIL)


def test_pairing_agrees_with_subset_classification():
    # summing member pairings must match the direct subset sweep
    rng = random.Random(5)
    diagrams = [random_knot_diagram(rng.randint(1, 6), rng) for _ in range(12)]
    diagrams += [random_link_diagram(rng.randint(2, 6), rng) for _ in range(8)]
    for G in diagrams:
        for degree in range(0, min(G.num_chords, 4) + 1):
            circles = 1 if degree % 2 == 0 else 2
            if circles != G.num_circles:
                continue
            for variant in ("ascending", "descending"):
                total = sum(pairing(A, G) for A in conway_set(degree, circles, variant).members)
                assert total == conway_pairing(G, degree, variant)


def test_subset_pattern_keeps_empty_circles():
    G = parse_gauss_code("O1+U1+;")
    P = subset_pattern(G, ())
    assert P.num_circles == 2
    assert not is_one_component(P)


def test_polynomials_on_classical_knots():
    fig8 = parse_gauss_code("O1+U2-O3-U1+O4+U3-O2-U4+")
    for G, coeffs in ((TREFOIL, ((0, 1), (2, 1))), (fig8, ((0, 1), (2, -1)))):
        assert ascending_polynomial(G).coeffs == coeffs
        assert descending_polynomial(G).coeffs == coeffs
        assert conway_polynomial(G).coeffs == coeffs
    unknot = parse_gauss_code("")
    assert ascending_polynomial(unknot).coeffs == ((0, 1),)
    with pytest.raises(PreconditionError):
        ascending_polynomial(parse_gauss_code("O1+;U1+"))


def test_polynomial_degree_bound():
    full = ascending_polynomial(TREFOIL)
    assert ascending_polynomial(TREFOIL, 1).coeffs == ((0, 1),)
    assert ascending_polynomial(TREFOIL, 2) == full


def test_v2_values():
    assert v2(TREFOIL, 2, certify=True) == 1
    assert v2(parse_gauss_code(""), 7) == 0
    entry = find_entry("6.87548")
    G = entry.diagram()
    assert conway_pairing(G, 2, "ascending") == -2
    assert v2(G, 2, certify=True) == 0
    with pytest.raises(PreconditionError):
        v2(parse_gauss_code("O1+O2+U1+U2+"), 2, certify=True)
    for p in (-1, -2, -3):
        for certify in (False, True):
            with pytest.raises(ValueError, match="modulus must be >= 0"):
                v2(TREFOIL, p, certify=certify)


def test_v2_refuses_links():
    # v2 is a coefficient of the ascending polynomial, which is defined for knots only
    hopf = parse_gauss_code("O1+U2+;O2+U1+")
    with pytest.raises(PreconditionError):
        ascending_polynomial(hopf)
    for certify in (False, True):
        with pytest.raises(PreconditionError, match="v2 is defined for one-circle diagrams only"):
            v2(hopf, 2, certify=certify)


def test_non_numberable_descending_pairing_depends_on_basepoint():
    # moving the basepoint on the two-crossing virtual knot changes the
    # degree-2 descending pairing, so the numberability assumption matters
    G = parse_gauss_code("O1+O2+U1+U2+")
    values = {conway_pairing(B, 2, "descending") for B in basepoint_positions(G)}
    assert len(values) > 1


def _skein_holds(G, chord):
    eps = G.sign(chord)
    switched = crossing_change(G, chord)
    plus, minus = (G, switched) if eps > 0 else (switched, G)
    zero = smooth(G, chord)
    t_plus = conway_pairing_table(plus, required_chord=chord)
    t_minus = conway_pairing_table(minus, required_chord=chord)
    t_zero = conway_pairing_table(zero)
    for n in set(t_plus) | set(t_minus) | {s + 1 for s in t_zero}:
        if n < 1:
            continue
        for col in (0, 1):
            lhs = t_plus.get(n, (0, 0))[col] - t_minus.get(n, (0, 0))[col]
            if lhs != t_zero.get(n - 1, (0, 0))[col]:
                return False
    return True


def test_skein_identities_random_sample():
    rng = random.Random(11)
    for trial in range(60):
        k = rng.randint(1, 6)
        if trial % 2 == 0:
            G = random_knot_diagram(k, rng)
            chords = G.chord_ids()
        else:
            G = random_link_diagram(k, rng)
            chords = connecting_chords(G)
        for c in chords:
            assert _skein_holds(G, c), str(G)


def test_descending_diagram_pairings_vanish():
    for G in enumerate_all_diagrams(3):
        if warping_degree(G) != 0:
            continue
        for degree in (2,):
            assert conway_pairing(G, degree, "ascending") == 0
            assert conway_pairing(G, degree, "descending") == 0


def test_int_polynomial_algebra():
    p = IntPolynomial.from_dict({0: 1, 2: 1})
    q = IntPolynomial.from_dict({2: 1})
    assert (p - q).coeffs == ((0, 1),)
    assert (p + q)(2) == 1 + 8
    assert p.scaled(-1, shift=1).coeffs == ((1, -1), (3, -1))
    assert p.coefficient(2) == 1 and p.coefficient(5) == 0
    assert str(p) == "1 + z^2"
    assert str(IntPolynomial.from_dict({2: -1, 0: 1})) == "1 - z^2"
    assert str(IntPolynomial(())) == "0"
    assert str(IntPolynomial.from_dict({1: -2})) == "-2 z"
