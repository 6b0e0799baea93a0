"""Tests for the codimension-one local structure of the plane scheme.

Two independent oracles back the case-table implementation:

* a combinatorial one — the ideal of degree-h monomials other than the
  admissible shifts of the offset vector, rebuilt here from scratch;
* a symbolic one — coefficient extraction from the defining binomial
  relation under the tautological plane substitution (sympy).
"""

import itertools
import json
import math
import pathlib
import random
import time
from collections import Counter

import pytest
import sympy

from toricfano import localscheme
from toricfano.localscheme import (
    HeightCoords,
    HypothesesViolated,
    MonomialSet,
    choose_w,
    height_coordinates,
    local_ring_basis,
    multiplicity,
    multiplicity_by_height,
    s_u_case,
)
from toricfano.intlinalg import lattice_basis
from toricfano.pointconfig import PointConfiguration

from test_pointconfig import QUARTIC, SQUARE

# Five lattice points whose isolated fixed line has multiplicity two.
FIVE = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 2)]
# Four lattice points whose isolated fixed line is reduced.
FOUR = [(0, 0), (1, 0), (0, 1), (2, 1)]
# Isolated fixed line but only the apex at height one.
STEEP = [(0, 0), (1, 0), (0, 1), (3, 2)]


def config(points):
    return PointConfiguration(tuple(tuple(p) for p in points))


# ---------------------------------------------------------------------------
# independent oracles


def degree_slice(n, h):
    return [g for g in itertools.product(range(h + 1), repeat=n) if sum(g) == h]


def oracle_ideal(hc, k):
    """Degree-h monomials not of the form cvec + e_i with all entries >= 0."""
    n = k + 1
    c = hc.cvec
    keep = set()
    for i in range(n):
        cand = tuple(x + (1 if t == i else 0) for t, x in enumerate(c))
        if all(x >= 0 for x in cand):
            keep.add(cand)
    return [g for g in degree_slice(n, hc.h) if g not in keep]


def divides(g, alpha):
    return all(a >= b for a, b in zip(alpha, g))


def minimal(gens):
    """The minimal elements of a set of exponent vectors, by (degree, vector)."""
    gens = set(gens)
    return sorted(
        (g for g in gens if not any(o != g and divides(o, g) for o in gens)),
        key=lambda g: (sum(g), g),
    )


def standard_monomials(n, gens):
    """Whether the ideal of ``gens`` in ``n`` variables has finitely many
    standard monomials, and its standard monomials in the box up to the top
    generator degree, which holds all of them when they are finite: a pure
    power of that degree standard stays standard in every higher degree."""
    top = max((sum(g) for g in gens), default=0)
    standard = [
        alpha
        for alpha in itertools.product(range(top + 1), repeat=n)
        if not any(divides(g, alpha) for g in gens)
    ]
    return all(max(alpha) < top for alpha in standard), standard


def s_u(hc, k):
    """The standard monomials attached to one point with these coordinates:
    the walk over the ideal that ``_degree_and_kept`` gives."""
    d, kept = localscheme._degree_and_kept(hc, k)
    return localscheme._walk(k + 1, {d: kept})


def symbolic_unmatched(hc, k):
    """Exponents forced to vanish when matching coefficients of the relation.

    Substituting the tautological plane into the binomial relation of the
    point gives (sum_i s_i x_i) * prod s_i^{c_i+} = (sum_i s_i z_i)^h *
    prod s_i^{c_i-}.  Every s-monomial on the right without a partner on
    the left forces its z-coefficient into the defining ideal.
    """
    n = k + 1
    c = hc.cvec
    cplus = [max(x, 0) for x in c]
    cminus = [max(-x, 0) for x in c]
    s = sympy.symbols(f"s0:{n}")
    z = sympy.symbols(f"z0:{n}")
    rhs = sympy.expand(
        sum(s[i] * z[i] for i in range(n)) ** hc.h
        * sympy.prod([s[i] ** cminus[i] for i in range(n)])
    )
    left_exponents = {
        tuple(cplus[t] + (1 if t == j else 0) for t in range(n)) for j in range(n)
    }
    unmatched = set()
    for monom, _ in sympy.Poly(rhs, *s, *z).terms():
        if tuple(monom[:n]) not in left_exponents:
            unmatched.add(tuple(monom[n:]))
    return unmatched


def random_height_coords(rng):
    while True:
        k = rng.randint(1, 3)
        h = rng.randint(1, 4)
        c = tuple(rng.randint(-3, 3) for _ in range(k))
        hc = HeightCoords(h=h, c=c)
        if any(hc.cvec):  # the all-zero vector marks the apex itself
            return hc, k


# ---------------------------------------------------------------------------
# MonomialSet


def test_minimal_generators_deduplicated_and_divisor_closed():
    # the walk never reaches (1, 1) or (0, 2), multiples of the generator (0, 1)
    ms = localscheme._walk(2, {1: {(1, 0)}, 2: set()})
    assert ms.ideal_part == ((0, 1), (2, 0))
    assert ms.finite_part == ((0, 0), (1, 0))


def test_zero_generator_gives_empty_set():
    ms = localscheme._walk(3, {0: set()})
    assert ms.ideal_part == ((0, 0, 0),)
    assert ms.is_finite
    assert ms.finite_part == ()
    assert ms.cardinality() == 0
    assert not ms.contains((0, 0, 0))


def test_empty_ideal_describes_whole_orthant():
    ms = localscheme._walk(2, {})
    assert not ms.is_finite
    assert ms.cardinality() is None
    assert ms.contains((7, 9))


def test_finite_part_graded_lexicographic():
    ms = localscheme._walk(2, {2: set()})
    assert ms.finite_part == ((0, 0), (0, 1), (1, 0))
    assert ms.cardinality() == 3


def test_contains_rejects_negative_and_wrong_length():
    ms = MonomialSet(2, ((1, 1),), False, ())
    assert not ms.contains((-1, 0))
    assert ms.contains((5, 0))
    with pytest.raises(ValueError):
        ms.contains((1, 1, 1))


def test_finite_membership_matches_enumeration():
    ms = localscheme._walk(2, {2: {(2, 0)}, 3: set()})
    assert ms.ideal_part == ((0, 2), (1, 1), (3, 0))
    listed = set(ms.finite_part)
    for alpha in itertools.product(range(5), repeat=2):
        assert ms.contains(alpha) == (alpha in listed)


# ---------------------------------------------------------------------------
# height coordinates


def test_height_coords_identity_fields():
    hc = HeightCoords(h=3, c=(1, -2))
    assert hc.c0 == 3 - 1 - (1 - 2)
    assert hc.cvec == (3, 1, -2)


def test_height_coords_rejects_negative_height():
    with pytest.raises(ValueError):
        HeightCoords(h=-1, c=(0,))


def test_choose_w_quartic_unique():
    a = config(QUARTIC)
    assert choose_w(a, (0, 2)) == (0, 1)


def test_choose_w_lex_tie_break():
    # Both (0, 1) and (1, 1) put every point at nonnegative integer height
    # over the bottom edge of the square; the smaller tuple wins.
    a = config(SQUARE)
    assert choose_w(a, (0, 2)) == (0, 1)


def test_choose_w_skips_non_basis_points():
    # (2, 2) spans an index-two sublattice with the bottom edge of FIVE.
    a = config(FIVE)
    assert choose_w(a, (0, 1)) == (0, 1)


def test_height_coordinates_of_apex_and_base():
    a = config(QUARTIC)
    w = choose_w(a, (0, 2))
    at_w = height_coordinates(a, (0, 2), w, w)
    assert (at_w.h, at_w.c) == (1, (0,))
    at_v0 = height_coordinates(a, (0, 2), w, (0, 0))
    assert (at_v0.h, at_v0.c) == (0, (0,))
    at_v1 = height_coordinates(a, (0, 2), w, (1, 0))
    assert (at_v1.h, at_v1.c) == (0, (-1,))
    assert at_v1.cvec == (0, -1)


def test_height_coordinates_quartic_top_point():
    a = config(QUARTIC)
    hc = height_coordinates(a, (0, 2), (0, 1), (1, 2))
    assert (hc.h, hc.c) == (2, (-1,))
    assert hc.cvec == (2, -1)


def test_height_coordinates_read_the_one_apex_search(monkeypatch):
    # asking for each point's heights one call at a time searches the apex
    # once, factoring its first candidate (0, 1), and factors nothing more
    calls = Counter()

    def counted(name, function):
        def wrapper(*args):
            calls[name] += 1
            return function(*args)

        return wrapper

    monkeypatch.setattr(
        localscheme, "_apex_search", counted("search", localscheme._apex_search)
    )
    monkeypatch.setattr(
        localscheme, "integer_solver", counted("factor", localscheme.integer_solver)
    )
    a = config(FIVE)
    heights = [height_coordinates(a, (0, 1), (0, 1), u) for u in FIVE]
    assert calls == {"search": 1, "factor": 1}
    face = a.face_from_indices((0, 1))
    assert heights == [localscheme._heights_over(face, (0, 1))(u) for u in FIVE]


def test_height_coordinates_reject_dependent_apex():
    a = config(QUARTIC)
    with pytest.raises(HypothesesViolated):
        height_coordinates(a, (0, 2), (1, 0), (1, 2))


def test_height_coordinates_reject_fractional_point():
    a = config(FIVE)
    with pytest.raises(HypothesesViolated):
        height_coordinates(a, (0, 1), (0, 2), (0, 1))


# ---------------------------------------------------------------------------
# case classification


@pytest.mark.parametrize(
    "h,c,expected",
    [
        (2, (-1,), 1),  # cvec (2, -1)
        (0, (-1,), 1),  # cvec (0, -1): base vertex pattern
        (3, (1, -1), 2),  # cvec (2, 1, -1)
        (4, (0, 0), 3),  # cvec (3, 0, 0)
        (1, (0,), 3),  # cvec (0, 0): the apex pattern
        (4, (2, 0), 4),  # cvec (1, 2, 0)
        (4, (1, 1), 5),  # cvec (1, 1, 1)
        (1, (2,), 6),  # cvec (-2, 2)
        (2, (-2,), 6),  # cvec (3, -2)
        (2, (1, -2), 6),  # cvec (2, 1, -2): entry below -1, no pattern fits
        (2, (1, -1), 2),  # cvec (1, 1, -1)
    ],
)
def test_case_classifier(h, c, expected):
    assert s_u_case(HeightCoords(h=h, c=c)) == expected


# ---------------------------------------------------------------------------
# standard monomial sets


def test_s_u_case_one_quartic():
    basis = s_u(HeightCoords(h=2, c=(-1,)), 1)
    assert basis.ideal_part == ((0, 2), (1, 1))
    assert not basis.is_finite
    for lam in range(6):
        assert basis.contains((lam, 0))
    assert basis.contains((0, 1))
    assert not basis.contains((0, 2))
    assert not basis.contains((1, 1))


def test_s_u_case_one_height_zero_keeps_axis():
    basis = s_u(HeightCoords(h=0, c=(-1,)), 1)
    assert basis.ideal_part == ((0, 1),)
    assert basis.contains((4, 0))
    assert not basis.contains((0, 1))


def test_s_u_rejects_height_zero_beyond_k_one():
    # at height 0 case 1 keeps an axis l that only k = 1 forces; the points
    # of height 0 are sigma's own vertices, which local_ring_basis leaves out
    with pytest.raises(ValueError, match="height 0"):
        s_u(HeightCoords(h=0, c=(-1, 0)), 2)
    with pytest.raises(ValueError, match="height 0"):
        s_u(HeightCoords(h=0, c=(0, 0, 1)), 3)


def test_s_u_case_six_is_truncation():
    basis = s_u(HeightCoords(h=2, c=(-2,)), 1)
    assert basis.ideal_part == ((0, 2), (1, 1), (2, 0))
    assert basis.is_finite
    assert basis.finite_part == ((0, 0), (0, 1), (1, 0))


def test_s_u_apex_pattern_keeps_tangent_line():
    # cvec identically zero: everything of offset weight at most one stays.
    basis = s_u(HeightCoords(h=1, c=(0,)), 1)
    assert basis.ideal_part == ((0, 2),)
    assert basis.contains((9, 1))
    assert not basis.contains((0, 2))


def test_s_u_rejects_wrong_offset_length():
    with pytest.raises(ValueError):
        s_u(HeightCoords(h=2, c=(0, 0)), 1)


@pytest.mark.parametrize(
    "h,c,k",
    [
        (2, (-1,), 1),  # case 1
        (3, (1, -1), 2),  # case 2
        (4, (0, 0), 2),  # case 3
        (4, (2, 0), 2),  # case 4
        (4, (1, 1), 2),  # case 5
        (2, (-2,), 1),  # case 6
        (2, (1, -1), 2),  # case 2 with mixed signs
        (2, (1, -2), 2),  # case 6 with mixed signs
    ],
)
def test_s_u_matches_both_oracles(h, c, k):
    hc = HeightCoords(h=h, c=c)
    fast = s_u(hc, k)
    combinatorial = oracle_ideal(hc, k)
    symbolic = symbolic_unmatched(hc, k)
    assert set(combinatorial) == symbolic
    assert list(fast.ideal_part) == minimal(symbolic)


def test_s_u_matches_oracle_on_random_coordinates():
    rng = random.Random(20260823)
    for _ in range(120):
        hc, k = random_height_coords(rng)
        fast = s_u(hc, k)
        gens = oracle_ideal(hc, k)
        bound = hc.h + k + 2
        for alpha in itertools.product(range(bound + 1), repeat=k + 1):
            if sum(alpha) > bound:
                continue
            expected = not any(divides(g, alpha) for g in gens)
            assert fast.contains(alpha) == expected, (hc, alpha)


def test_s_u_random_coordinates_match_symbolic_oracle():
    rng = random.Random(97)
    for _ in range(25):
        hc, k = random_height_coords(rng)
        assert set(oracle_ideal(hc, k)) == symbolic_unmatched(hc, k)


# ---------------------------------------------------------------------------
# local ring basis and multiplicity


def test_quartic_local_basis_is_axis_plus_one_point():
    a = config(QUARTIC)
    basis = local_ring_basis(a, (0, 2))
    assert basis.ideal_part == ((0, 2), (1, 1))
    assert not basis.is_finite
    # the line direction is free, the transverse direction truncated
    assert basis.contains((5, 0))
    assert basis.contains((0, 1))
    assert not basis.contains((0, 5))
    assert not basis.contains((1, 1))
    with pytest.raises(HypothesesViolated):
        multiplicity(a, (0, 2))
    with pytest.raises(HypothesesViolated):
        multiplicity_by_height(a, (0, 2))


def test_square_ruling_line_not_isolated():
    a = config(SQUARE)
    basis = local_ring_basis(a, (0, 2))
    assert basis.ideal_part == ((0, 1),)
    assert not basis.is_finite


def test_five_point_multiplicity_two_both_ways():
    a = config(FIVE)
    basis = local_ring_basis(a, (0, 1))
    assert basis.ideal_part == ((0, 1), (2, 0))
    assert basis.finite_part == ((0, 0), (1, 0))
    assert multiplicity(a, (0, 1)) == 2
    assert multiplicity_by_height(a, (0, 1)) == 2


def test_four_point_multiplicity_one_both_ways():
    a = config(FOUR)
    basis = local_ring_basis(a, (0, 1))
    assert basis.ideal_part == ((0, 1), (1, 0))
    assert basis.finite_part == ((0, 0),)
    assert multiplicity(a, (0, 1)) == 1
    assert multiplicity_by_height(a, (0, 1)) == 1


def test_simplex_alone_gives_whole_ring():
    a = config([(0, 0), (1, 0), (0, 1)])
    basis = local_ring_basis(a, (0, 1))
    assert basis.ideal_part == ()
    assert not basis.is_finite


def test_steep_point_isolated_but_no_second_height_one():
    a = config(STEEP)
    assert choose_w(a, (0, 1)) == (0, 1)
    basis = local_ring_basis(a, (0, 1))
    assert basis.is_finite
    assert multiplicity(a, (0, 1)) == 3
    with pytest.raises(HypothesesViolated):
        multiplicity_by_height(a, (0, 1))


def test_segment_point_scheme_never_isolated():
    # Zero-planes on a curve: the plane scheme is the curve itself.
    a = config([(0,), (1,), (3,)])
    assert choose_w(a, (0,)) == (1,)
    basis = local_ring_basis(a, (0,))
    assert basis.ideal_part == ()
    assert not basis.is_finite


def seeded_configuration(seed):
    """Dimension 2 to 4, at most 9 distinct points with coordinates 0..3."""
    rng = random.Random(seed)
    d = rng.randint(2, 4)
    points = {tuple(rng.randint(0, 3) for _ in range(d)) for _ in range(rng.randint(d + 1, 9))}
    return sorted(points)


FIXTURE_POINTS = [
    raw["points"]
    for path in sorted((pathlib.Path(__file__).parent / "data").glob("*.json"))
    if "points" in (raw := json.loads(path.read_text()))
]


def oracle_local_ring(a, face):
    """The facet's ideal as the minimal elements of the union of every outside
    point's ``oracle_ideal``, or None where a degree slice is too large to list."""
    w = choose_w(a, face)
    k = face.dim
    outside = [u for u in a.points if u not in set(face.points) | {w}]
    coords = [height_coordinates(a, face, w, u) for u in outside]
    if any(math.comb(hc.h + k, k) > 60 for hc in coords):
        return None
    return minimal(g for hc in coords for g in oracle_ideal(hc, k))


def test_basis_is_intersection_of_per_point_sets():
    # every smooth codimension-one facet: the walk's generators, finiteness and
    # members against the oracle's minimal generators and brute-force membership
    for points in FIXTURE_POINTS + [seeded_configuration(s) for s in range(60)]:
        a = config(points)
        for face in a.fixed_point_faces(a.dimension - 1):
            try:
                basis = local_ring_basis(a, face)
            except HypothesesViolated:
                continue
            gens = oracle_local_ring(a, face)
            if gens is None:
                continue
            assert basis.ideal_part == tuple(gens), (points, face.indices)
            finite, standard = standard_monomials(face.dim + 1, gens)
            assert all(basis.contains(alpha) for alpha in standard)
            assert basis.is_finite == finite, (points, face.indices)
            if finite:
                assert set(basis.finite_part) == set(standard)


def test_tall_basis_matches_the_oracle_in_seconds():
    # one outside point at height 80: 3,318 generators and no finite set; listing
    # its whole degree slice and filtering all pairs of generators took 18 s
    a = config([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 80)])
    face = a.face_from_indices((0, 1, 2))
    start = time.perf_counter()
    basis = local_ring_basis(a, face)
    assert time.perf_counter() - start < 5
    hc = height_coordinates(a, face, choose_w(a, face), (0, 0, 80))
    assert basis.ideal_part == tuple(sorted(oracle_ideal(hc, 2), key=lambda g: (sum(g), g)))
    assert len(basis.ideal_part) == 3318
    assert not basis.is_finite


def all_valid_apexes(a, face):
    """Re-derive the candidate apex list from its definition."""
    target = a.difference_basis
    v0 = face.points[0]
    out = []
    for w in a.points:
        if w in set(face.points):
            continue
        rows = [tuple(x - y for x, y in zip(w, v0))] + [
            tuple(x - y for x, y in zip(v, v0)) for v in face.points[1:]
        ]
        if lattice_basis(rows) != target:
            continue
        try:
            if all(
                height_coordinates(a, face, w, u).h >= 0 for u in a.points
            ):
                out.append(w)
        except HypothesesViolated:
            continue
    return out


@pytest.mark.parametrize("points,sigma", [(FIVE, (0, 1)), (FOUR, (0, 1)), (SQUARE, (0, 2))])
def test_basis_cardinality_independent_of_apex(points, sigma):
    a = config(points)
    face = a.face_from_indices(sigma)
    apexes = all_valid_apexes(a, face)
    assert choose_w(a, face) == min(apexes)
    results = []
    for w in apexes:
        gens = []
        for u in a.points:
            if u in set(face.points) | {w}:
                continue
            gens.extend(s_u(height_coordinates(a, face, w, u), face.dim).ideal_part)
        finite, standard = standard_monomials(face.dim + 1, gens)
        results.append((finite, len(standard) if finite else None))
    assert len(apexes) >= 2
    assert len(set(results)) == 1


# ---------------------------------------------------------------------------
# hypothesis violations


def test_sigma_must_be_a_face():
    a = config(QUARTIC)
    with pytest.raises(HypothesesViolated):
        choose_w(a, (0, 3))  # interior diagonal, not a face


def test_sigma_must_have_codimension_one():
    a = config(QUARTIC)
    with pytest.raises(HypothesesViolated):
        choose_w(a, (0,))


def test_sigma_must_be_smooth():
    # Heights 2 and 3 over the bottom edge generate a numerical semigroup
    # with a gap, so the chart at the edge's fixed point is singular.
    a = config([(0, 0), (1, 0), (0, 2), (0, 3)])
    with pytest.raises(HypothesesViolated, match="not smooth at sigma"):
        local_ring_basis(a, (0, 1))


def test_lattice_stretched_configuration_is_smooth():
    # The ambient embedding is irrelevant: relative to its own difference
    # lattice this triangle is the unit simplex, so the hypotheses hold and
    # the local ring is the whole power series ring.
    a = config([(0, 0), (1, 0), (0, 2)])
    assert local_ring_basis(a, (0, 1)).ideal_part == ()


def test_zero_dimensional_configuration_rejected():
    a = config([(5, 5)])
    with pytest.raises(HypothesesViolated):
        choose_w(a, (0,))
