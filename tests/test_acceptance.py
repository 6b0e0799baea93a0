"""Acceptance suite: headline counts, local structure, and property checks.

Every numeric expectation here was derived independently of the fast paths:
small cases by hand, larger ones through the brute-force and symbolic
oracles that live alongside the implementation.
"""

import json
import pathlib
import random
import sys
import time
from collections import Counter
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from toricfano import (
    HypothesesViolated,
    PointConfiguration,
    UnsupportedSizeError,
    brute_force_cayley,
    chart_generators_reduced,
    chart_is_smooth,
    chart_semigroup,
    choose_w,
    component_points,
    components,
    components_intersection,
    connectivity_graph,
    enumerate_cayley_structures,
    height_coordinates,
    is_cayley_structure,
    is_covered_by_k_planes,
    leq,
    local_ring_basis,
    maximal_cayley_structures,
    multiplicity,
    multiplicity_by_height,
    verify_cayley_plane,
    verify_chart_sample,
)
from toricfano import cli, intlinalg, localscheme, pointconfig
from toricfano.intlinalg import (
    _kernel,
    hermite_normal_form,
    identity_matrix,
    is_free_semigroup,
    rational_solve,
)
from toricfano.verify import BRUTE_FORCE_MAX_POINTS, relation_basis

from test_intlinalg import (
    affine_unimodular_equivalent,
    cone_is_pointed,
    det,
    dot,
    facet_values_by_hyperplanes,
    matrix_rank,
    saturated_by_minors,
)
from test_localscheme import FIVE, FOUR, STEEP, oracle_ideal
from test_pointconfig import QUARTIC, SQUARE, birkhoff_points
from test_verify import all_set_partitions

TRIANGLE = [(0, 0), (1, 0), (0, 1)]
SEGMENT = [(0,), (1,), (3,)]
HEXAGON_WITH_CENTER = [(0, 0), (0, 1), (0, -1), (1, 0), (1, 1), (-1, 0), (-1, -1)]


def canonical_order(s):
    return (s.face.indices, s.blocks)


def all_pairs_maximal(a):
    """Reference maximality: every structure with at least two blocks on
    every face, compared against every other one."""
    every = [
        p for face in a.faces() if face.indices for p in enumerate_cayley_structures(face, 1)
    ]
    maximal = [p for p in every if not any(p != q and leq(p, q) for q in every)]
    return sorted(maximal, key=canonical_order)


def intersection_by_definition(a, pi1, pi2, k):
    """Reference intersection: every structure with at least k+1 blocks on a
    face inside both faces, kept when below both, then the maximal ones."""
    common = set(pi1.face.indices) & set(pi2.face.indices)
    found = [
        q
        for face in a.faces()
        if face.indices and set(face.indices) <= common
        for q in enumerate_cayley_structures(face, k)
        if leq(q, pi1) and leq(q, pi2)
    ]
    maximal = [q for q in found if not any(q != r and leq(q, r) for r in found)]
    return tuple(sorted(maximal, key=canonical_order))


def free_by_subset_search(gens):
    """Reference free-semigroup test with no pruning: every subset of the
    rank's size, each generator solved over the rationals, saturation by
    the gcd of maximal minors."""
    if not gens:
        return True
    r = matrix_rank(gens)
    for subset in combinations(gens, r):
        if matrix_rank(subset) != r:
            continue
        solutions = [rational_solve(subset, g) for g in gens]
        if not all(
            x is not None and all(f.denominator == 1 and f >= 0 for f in x)
            for x in solutions
        ):
            continue
        if saturated_by_minors(subset):
            return True
    return False


def smooth_by_basis_completion(a, face):
    """Reference smoothness at an empty-simplex face: some n-k differences
    of points off the face complete its k edges to a basis of the
    difference lattice (|det| = 1 in coordinates of that lattice), and every
    other difference has nonnegative coordinates on those n-k."""
    basis = a.difference_basis
    v0 = a.points[face.indices[0]]

    def coordinates(i):
        return rational_solve(basis, tuple(p - q for p, q in zip(a.points[i], v0)))

    edges = [coordinates(i) for i in face.indices[1:]]
    others = [coordinates(i) for i in range(len(a)) if i not in face.indices]
    k = len(edges)
    for chosen in combinations(others, len(basis) - k):
        rows = edges + list(chosen)
        if abs(det(rows)) == 1 and all(
            min(rational_solve(rows, c)[k:], default=0) >= 0 for c in others
        ):
            return True
    return False


def affine_dim_of(a, indices):
    """Dimension of the affine span of the points of ``a`` at these indices."""
    if not indices:
        return -1
    p0 = a.points[indices[0]]
    return matrix_rank([tuple(x - y for x, y in zip(a.points[i], p0)) for i in indices[1:]])


def facets_by_subset_scan(a):
    """Reference facets (index set -> (witness, offset)): the hyperplanes
    through n affinely independent points with every point on one side,
    from every n-subset of the points."""
    pts, d, n = a.points, a.ambient_dim, a.dimension

    def dot(w, p):
        return sum(x * y for x, y in zip(w, p))

    facets = {}
    for subset in combinations(range(len(pts)), n):
        if n and affine_dim_of(a, subset) != n - 1:
            continue
        s0 = pts[subset[0]] if subset else pts[0]
        diffs = tuple(tuple(x - y for x, y in zip(pts[i], s0)) for i in subset[1:])
        for w in _kernel(diffs, d):
            heights = [dot(w, p) - dot(w, s0) for p in pts]
            if not any(heights) or (min(heights) < 0 < max(heights)):
                continue
            if min(heights) < 0:
                w, heights = tuple(-x for x in w), [-h for h in heights]
            facets.setdefault(tuple(i for i, h in enumerate(heights) if h == 0), (w, dot(w, s0)))
            break
    return facets


def faces_by_pairwise_closure(a):
    """Reference face lattice (index set -> (witness, offset)): the facets of
    the subset scan, then the closure under pairwise intersection of all
    faces, witnesses added."""
    faces = {tuple(range(len(a.points))): ((0,) * a.ambient_dim, 0), **facets_by_subset_scan(a)}
    work = list(faces.items())
    while work:
        next_work = []
        items = list(faces.items())
        for idx1, (w1, c1) in work:
            for idx2, (w2, c2) in items:
                common = tuple(i for i in idx1 if i in set(idx2))
                if common not in faces:
                    faces[common] = (tuple(x + y for x, y in zip(w1, w2)), c1 + c2)
                    next_work.append((common, faces[common]))
        work = next_work
    faces.setdefault((), ((0,) * a.ambient_dim, -1))
    return faces


def cuts_out(a, indices, witness, offset):
    """Whether the functional attains ``offset`` exactly on the index set
    and exceeds it at every other point."""
    values = [sum(x * y for x, y in zip(witness, p)) for p in a.points]
    on = set(indices)
    return all(v == offset if i in on else v > offset for i, v in enumerate(values))


def cayley_by_block_sums(a, face, blocks):
    """Reference Cayley test: every block sums to zero in every vector of
    the oracle's own relation basis."""
    relations = relation_basis(a, face).vectors
    position = {i: p for p, i in enumerate(face.indices)}
    return all(sum(vec[position[i]] for i in block) == 0 for vec in relations for block in blocks)


def canonical_transversal(pi):
    """Smallest index of each block, in increasing order."""
    return tuple(b[0] for b in pi.blocks)


def extended_transversal(pi, face):
    """The face's indices completed to a transversal by unmet block heads."""
    met = {pi.block_of[i] for i in face.indices}
    extras = [b[0] for j, b in enumerate(pi.blocks) if j not in met]
    return tuple(sorted(set(face.indices) | set(extras)))


# ---------------------------------------------------------------------------
# permutation-matrix configuration (three-dimensional transportation case)


def test_permutation_matrix_component_counts_within_time_budget():
    start = time.monotonic()
    a = PointConfiguration(birkhoff_points())
    assert len(maximal_cayley_structures(a, 1)) == 15
    assert len(components(a, 1)) == 15
    assert len(components(a, 2)) == 15
    assert len(components(a, 3)) == 9
    assert time.monotonic() - start < 30.0


def test_permutation_matrix_k2_dimension_split():
    a = PointConfiguration(birkhoff_points())
    dims = Counter(c.dimension for c in components(a, 2))
    assert dims == Counter({2: 6, 3: 9})


def test_permutation_matrix_projection_components_are_hexagons():
    a = PointConfiguration(birkhoff_points())
    twos = [c for c in components(a, 2) if c.dimension == 2]
    assert len(twos) == 6
    for comp in twos:
        # the six row/column groupings of the full configuration
        assert comp.pi.l == 2
        assert comp.pi.face.dim == 4
        pts = component_points(comp.pi)
        assert len(pts.points) == 7  # distinctness enforced by the constructor
        assert affine_unimodular_equivalent(pts.points, HEXAGON_WITH_CENTER)


def test_permutation_matrix_k2_intersection_pattern():
    a = PointConfiguration(birkhoff_points())
    comps = components(a, 2)
    dim3 = [c for c in comps if c.dimension == 3]
    dim2 = [c for c in comps if c.dimension == 2]
    meets = {}
    for c1, c2 in combinations(comps, 2):
        nonempty = bool(components_intersection(a, c1.pi, c2.pi, 2))
        meets[frozenset((c1.id, c2.id))] = nonempty
    for c in dim3:
        with3 = sum(1 for d in dim3 if d.id != c.id and meets[frozenset((c.id, d.id))])
        with2 = sum(1 for d in dim2 if meets[frozenset((c.id, d.id))])
        assert with3 == 4
        assert with2 == 4
    # The two-dimensional components are NOT pairwise disjoint, although a
    # published account of this example claims they are: that claim
    # contradicts the intersection criterion it is derived from.  The six
    # components pair each row grouping with each column grouping of the
    # permutation matrices; two groupings of the same type share no
    # injective triangle (the only candidates are the all-even and all-odd
    # triples, which are not faces), while a row and a column grouping are
    # both injective on exactly two mixed-parity triangle faces.  See the
    # explicit witness below and the decision log for the derivation.
    for c in dim2:
        with2 = sum(1 for d in dim2 if d.id != c.id and meets[frozenset((c.id, d.id))])
        with3 = sum(1 for d in dim3 if meets[frozenset((c.id, d.id))])
        assert with2 == 3
        assert with3 == 6
    graph = connectivity_graph(components(a, 2))
    assert graph.is_connected()
    # shared fixed points and nonempty common refinements single out the
    # same pairs of components
    edge_pairs = {frozenset(e) for e in graph.edges}
    assert edge_pairs == {pair for pair, hit in meets.items() if hit}


def test_permutation_matrix_row_column_intersection_witness():
    # Hand-checked witness for the pattern above.  Points 0..2 are the even
    # permutations (identity first), points 3..5 the odd ones.  The triple
    # {0, 4, 5} = {123, 213, 321} is cut out by the functional that sums
    # the (1,2) and (2,1) entries of the matrix: it vanishes there and is
    # positive on the other three permutations, so the triple is a face;
    # the all-even triple {0, 1, 2} supports no such functional because
    # both parity classes have the same centroid.
    a = PointConfiguration(birkhoff_points())
    face_sets = {f.indices for f in a.fixed_point_faces(2)}
    assert (0, 4, 5) in face_sets
    assert (1, 2, 3) in face_sets
    assert (0, 1, 2) not in face_sets  # evens
    assert (3, 4, 5) not in face_sets  # odds
    comps = components(a, 2)
    row1 = next(c for c in comps if c.pi.blocks == ((0, 3), (1, 4), (2, 5)))
    col1 = next(c for c in comps if c.pi.blocks == ((0, 3), (1, 5), (2, 4)))
    inter = components_intersection(a, row1.pi, col1.pi, 2)
    assert [(q.face.indices, q.blocks) for q in inter] == [
        ((0, 4, 5), ((0,), (4,), (5,))),
        ((1, 2, 3), ((1,), (2,), (3,))),
    ]
    # same-type pairs really are disjoint: grouping by the image of 0 and
    # grouping by the image of 1 share no injective triangle face
    row2 = next(c for c in comps if c.pi.blocks == ((0, 5), (1, 3), (2, 4)))
    assert components_intersection(a, row1.pi, row2.pi, 2) == ()
    col2 = next(c for c in comps if c.pi.blocks == ((0, 5), (1, 4), (2, 3)))
    assert components_intersection(a, col1.pi, col2.pi, 2) == ()


# ---------------------------------------------------------------------------
# quadrilateral surface with one long edge


def test_quartic_unique_paired_structure_and_edges():
    a = PointConfiguration(QUARTIC)
    full = a.face_from_indices((0, 1, 2, 3))
    assert is_cayley_structure(full, [(0, 1), (2, 3)])
    assert not is_cayley_structure(full, [(0, 2), (1, 3)])
    assert not is_cayley_structure(full, [(0, 3), (1, 2)])
    edges = [f for f in a.faces() if f.dim == 1]
    assert len(edges) == 4
    assert set(edges) == set(a.fixed_point_faces(1))


def test_quartic_local_ring_is_line_with_embedded_point():
    a = PointConfiguration(QUARTIC)
    sigma = (0, 2)  # the facet {(0,0), (1,0)}
    basis = local_ring_basis(a, sigma)
    assert basis.ideal_part == ((0, 2), (1, 1))
    assert not basis.is_finite
    # an affine line along the first exponent, plus the embedded point (0, 1)
    assert basis.contains((5, 0))
    assert basis.contains((0, 1))
    assert not basis.contains((0, 5))
    assert not basis.contains((1, 1))
    # Axis orientation, from first principles: the single point above the
    # facet sits at height 2 with offset -1, and eliminating the apex
    # variable from the defining binomials leaves exactly the monomials
    # outside <y^2, x*y>.  The transposed orientation (axis along the
    # second exponent) is sometimes quoted for this example; it fails the
    # oracle, as the membership assertions above record.
    w = choose_w(a, sigma)
    assert w == (0, 1)
    hc = height_coordinates(a, sigma, w, a.points[3])
    assert (hc.h, hc.c) == (2, (-1,))
    assert set(oracle_ideal(hc, 1)) == {(0, 2), (1, 1)}


# ---------------------------------------------------------------------------
# multiplicity fixtures


def test_multiplicity_two_by_both_criteria():
    a = PointConfiguration(FIVE)
    assert multiplicity(a, (0, 1)) == 2
    assert multiplicity_by_height(a, (0, 1)) == 2


def test_multiplicity_one_by_both_criteria():
    a = PointConfiguration(FOUR)
    assert multiplicity(a, (0, 1)) == 1
    assert multiplicity_by_height(a, (0, 1)) == 1


# ---------------------------------------------------------------------------
# two rulings of the quadric


def test_square_two_rulings_disconnected():
    a = PointConfiguration(SQUARE)
    comps = components(a, 1)
    assert len(comps) == 2
    assert [c.dimension for c in comps] == [1, 1]
    assert len(connectivity_graph(comps).connected_components()) == 2


# ---------------------------------------------------------------------------
# property suite over fixtures and seeded random configurations


def random_configurations(count=50, seed=104729):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = rng.randint(1, 3)
        n = rng.randint(2, 8)
        pts = sorted({tuple(rng.randint(0, 3) for _ in range(d)) for _ in range(n)})
        if len(pts) < 2:
            continue
        out.append(tuple(pts))
    return out


FIXTURES = [
    ("square", SQUARE),
    ("quartic", QUARTIC),
    ("triangle", TRIANGLE),
    ("five", FIVE),
    ("four", FOUR),
    ("steep", STEEP),
    ("segment", SEGMENT),
    ("permutation-matrices", list(birkhoff_points())),
]
CASES = FIXTURES + [
    (f"random-{i}", pts) for i, pts in enumerate(random_configurations())
]


@pytest.mark.parametrize("points", [c[1] for c in CASES], ids=[c[0] for c in CASES])
def test_fano_scheme_properties(points):
    a = PointConfiguration(points)

    # the partition-enumeration fast path agrees with brute force on every face
    for face in a.faces():
        if not face.indices or len(face.indices) > BRUTE_FORCE_MAX_POINTS:
            continue
        assert set(brute_force_cayley(a, face, 1)) == set(
            enumerate_cayley_structures(face, 1)
        )

    # the shared poset agrees with the all-pairs and by-definition references
    reference_maximal = all_pairs_maximal(a)
    for k in range(1, a.dimension + 1):
        pis = maximal_cayley_structures(a, k)
        assert list(pis) == [p for p in reference_maximal if p.l >= k]
        for pi1, pi2 in combinations(pis, 2):
            assert components_intersection(a, pi1, pi2, k) == intersection_by_definition(
                a, pi1, pi2, k
            )

    for k in range(1, a.dimension + 1):
        smooth_at = {f: a.is_smooth_at(f) for f in a.fixed_point_faces(k)}
        # the pruned search inside is_smooth_at answers as the full search
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pointconfig, "is_free_semigroup", free_by_subset_search)
            assert smooth_at == {f: a.is_smooth_at(f) for f in smooth_at}
        smooth_everywhere = all(smooth_at.values())
        for comp in components(a, k):
            pi = comp.pi
            heads = canonical_transversal(pi)
            # the family of planes lies on the variety: formal check plus
            # random specialization of the chart parametrization
            relations = relation_basis(a, pi.face)
            assert verify_cayley_plane(relations, pi)
            for size in sorted({k + 1, pi.l + 1}):
                chart = chart_semigroup(pi, heads, heads[:size])
                expected = pi.face.dim - pi.l + size * (pi.l - size + 1)
                assert matrix_rank(chart_generators_reduced(chart)) == expected
                assert verify_chart_sample(relations, pi, heads, heads[:size], trials=25, seed=0)
            # fixed-point charts are pointed, have the component's dimension,
            # and are smooth whenever the configuration is smooth at every
            # empty-simplex face
            for face in comp.fixed_points:
                st = extended_transversal(pi, face)
                chart = chart_semigroup(pi, st, face.indices)
                gens = chart_generators_reduced(chart)
                assert cone_is_pointed(gens)
                assert matrix_rank(gens) == comp.dimension
                smooth = chart_is_smooth(chart)
                assert smooth == free_by_subset_search(gens)
                if smooth_everywhere:
                    assert smooth


@pytest.mark.parametrize("points", [c[1] for c in CASES], ids=[c[0] for c in CASES])
def test_graph_edge_exactly_when_intersection_nonempty(points):
    # the graph comes from shared fixed points, the intersections from joins
    a = PointConfiguration(points)
    for k in range(1, a.dimension + 1):
        comps = components(a, k)
        edges = set(connectivity_graph(comps).edges)
        for c1, c2 in combinations(comps, 2):
            meet = components_intersection(a, c1.pi, c2.pi, k)
            assert (tuple(sorted((c1.id, c2.id))) in edges) == bool(meet), (k, c1.pi, c2.pi)


def test_face_lattice_matches_pairwise_closure_reference():
    # faces closed against facets only, with their recorded facets and the
    # faces inside each, against the closure of all faces under intersection,
    # and facets and containment by definition
    configurations = [pts for _, pts in CASES] + random_configurations(150, seed=7919)
    covered = 0
    for points in configurations:
        a = PointConfiguration(points)
        reference = faces_by_pairwise_closure(a)
        assert {f.indices for f in a.faces()} == set(reference), points
        dims = {idx: affine_dim_of(a, idx) for idx in reference}
        for f in a.faces():
            assert f.dim == dims[f.indices], (points, f)
            below = {
                g for g in reference if dims[g] == dims[f.indices] - 1 and set(g) < set(f.indices)
            }
            assert sorted(f.facets) == sorted(below), (points, f)
            inside = tuple(g for g in a.faces() if set(g.indices) <= set(f.indices))
            assert f.faces_inside == inside, (points, f)
            assert cuts_out(a, f.indices, f.witness, f.offset), (points, f)
            assert cuts_out(a, f.indices, *reference[f.indices]), (points, f)
            covered += len(below)
    assert covered >= 3000, covered


def test_facets_match_subset_scan_at_the_caps():
    # 14 points in dimension 6, the most the caps admit: the scan visits
    # all C(14, 6) = 3,003 six-point subsets
    rng = random.Random(3003)
    points = set()
    while len(points) < pointconfig.MAX_POINTS:
        points.add(tuple(rng.randint(0, 3) for _ in range(pointconfig.MAX_DIM)))
    a = PointConfiguration(sorted(points))
    assert a.dimension == pointconfig.MAX_DIM
    facets = [f for f in a.faces() if f.dim == a.dimension - 1]
    assert {f.indices for f in facets} == set(facets_by_subset_scan(a))
    assert len(facets) >= 20, len(facets)
    for f in facets:
        assert cuts_out(a, f.indices, f.witness, f.offset), f


def test_is_cayley_structure_matches_block_sums_reference():
    # every partition of every face of at most seven points
    partitions = Counter()
    for _, points in CASES:
        a = PointConfiguration(points)
        for face in a.faces():
            if not face.indices or len(face.indices) > 7:
                continue
            for part in all_set_partitions(list(face.indices)):
                expected = cayley_by_block_sums(a, face, part)
                assert is_cayley_structure(face, part) == expected, (points, face, part)
                partitions[expected] += 1
    assert partitions[True] >= 1000 and partitions[False] >= 1000, partitions


def test_is_smooth_at_matches_basis_completion_reference():
    kinds = Counter()
    configurations = [pts for _, pts in FIXTURES] + random_configurations(150, seed=7919)
    for points in configurations:
        a = PointConfiguration(points)
        for k in range(a.dimension + 1):
            for face in a.fixed_point_faces(k):
                smooth = a.is_smooth_at(face)
                assert smooth == smooth_by_basis_completion(a, face), (points, face)
                kinds[smooth] += 1
    assert kinds[True] >= 100 and kinds[False] >= 100, kinds


# vector sets of each shape the free-semigroup test must handle, with the
# answer of the subset search
FREE_SEMIGROUP_SHAPES = {
    "dependent candidates": [
        ([(1, 0), (0, 1), (1, 2), (2, 1)], True),
        ([(1, 0), (1, 1), (1, 2)], False),
    ],
    "not pointed": [
        ([(-1, 0), (0, 1), (1, 0)], False),
        # every (0, y) is a sum of two others, so the one candidate (1, 0)
        # spans less than the vectors, all with nonnegative first entries
        ([(0, -2), (0, -1), (0, 1), (0, 2), (0, 3), (1, 0)], False),
    ],
    "not saturated": [([(1, 1), (1, -1)], False), ([(2, 0, 0), (0, 1, 1)], False)],
    "lower rank": [([(1, 1, 0), (0, 1, 1), (1, 2, 1)], True), ([(2, 0, 0), (0, 1, 1)], False)],
    "candidates' cone smaller": [
        # the one candidate (-1,) spans a ray, the vectors the whole line
        ([(-1,), (1,), (2,)], False),
        # the candidates (-2, -1), (0, -1), (1, 0) span a unimodular simplicial
        # cone, the vectors the whole plane
        ([(-2, -1), (0, -1), (0, 1), (0, 2), (1, 0)], False),
    ],
    "candidates on one ray": [([(1,), (3,)], True), ([(2,), (3,)], False)],
    # a square pyramid times a line: four facets, as many as the rank
    "line with rank-many facets": [
        (
            [(1, 1, 1, 0), (1, -1, 1, 0), (-1, 1, 1, 0), (-1, -1, 1, 0), (0, 0, 0, 1), (0, 0, 0, -1)],
            False,
        ),
    ],
}


def candidates_of(vectors):
    sums = {tuple(a + b for a, b in zip(g, h)) for g in vectors for h in vectors}
    return [g for g in vectors if g not in sums]


SHAPE_OF = {
    "dependent candidates": lambda vs: len(candidates_of(vs)) > matrix_rank(vs),
    "not pointed": lambda vs: not cone_is_pointed(vs),
    "not saturated": lambda vs: not saturated_by_minors(vs),
    "lower rank": lambda vs: matrix_rank(vs) < len(vs[0]),
    "candidates' cone smaller": lambda vs: not cone_is_pointed(vs)
    and cone_is_pointed(candidates_of(vs)),
    "candidates on one ray": lambda vs: any(
        matrix_rank([g, h]) == 1 and dot(g, h) > 0 for g, h in combinations(candidates_of(vs), 2)
    ),
    "line with rank-many facets": lambda vs: not cone_is_pointed(vs)
    and len(facet_values_by_hyperplanes(vs)) == matrix_rank(vs),
}


@pytest.mark.parametrize("shape", sorted(FREE_SEMIGROUP_SHAPES))
def test_free_semigroup_shapes(shape):
    for vectors, free in FREE_SEMIGROUP_SHAPES[shape]:
        assert SHAPE_OF[shape](vectors), vectors
        assert free_by_subset_search(vectors) == free, vectors
        assert is_free_semigroup(vectors) == free, vectors


@st.composite
def semigroup_vectors(draw):
    """Distinct nonzero combinations, with coefficients in -1..2 or 0..2, of
    r <= n random vectors of Z^n (n <= 4), and half the time those vectors
    themselves: free sets on a saturated basis, cones with lines, lattices
    that are not saturated, lower ranks and dependent candidates."""
    n = draw(st.integers(1, 4))
    r = draw(st.integers(1, n))
    entries = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    basis = draw(st.lists(entries, min_size=r, max_size=r))
    low = draw(st.sampled_from((-1, 0)))
    weights = st.lists(st.integers(low, 2), min_size=r, max_size=r)
    coefficients = draw(st.lists(weights, min_size=1, max_size=6))
    if draw(st.booleans()):
        coefficients += [[int(i == j) for j in range(r)] for i in range(r)]
    vectors = {
        tuple(sum(c * b[j] for c, b in zip(cs, basis)) for j in range(n))
        for cs in coefficients
    }
    return sorted(vectors - {(0,) * n})


@settings(max_examples=300, deadline=None)
@given(semigroup_vectors())
def test_is_free_semigroup_matches_subset_search(vectors):
    assert is_free_semigroup(vectors) == free_by_subset_search(vectors)


def birkhoff_charts():
    """Every fixed-point chart of B_3 over all k, as the analyze report lists them."""
    a = PointConfiguration(birkhoff_points())
    return [
        chart_semigroup(comp.pi, extended_transversal(comp.pi, face), face.indices)
        for k in range(1, a.dimension + 1)
        for comp in components(a, k)
        for face in comp.fixed_points
    ]


def test_is_free_semigroup_matches_subset_search_on_every_b3_chart():
    keys = {chart_generators_reduced(chart) for chart in birkhoff_charts()}
    dependent = [gens for gens in keys if len(candidates_of(gens)) > matrix_rank(gens)]
    assert (len(keys), len(dependent)) == (111, 72)
    for gens in keys:
        assert is_free_semigroup(gens) == free_by_subset_search(gens), gens


def test_is_free_semigroup_on_every_b3_chart_is_invariant():
    # shuffled, and moved by a unimodular matrix: lattice coordinates, not
    # the vectors' own, decide freeness
    rng = random.Random(0)
    keys = {chart_generators_reduced(chart) for chart in birkhoff_charts()}
    assert len(keys) == 111
    for gens in sorted(keys - {()}):
        n = len(gens[0])
        m = [list(row) for row in identity_matrix(n)]
        for _ in range(3 * n):
            i, j = rng.sample(range(n), 2)
            c = rng.choice((-2, -1, 1, 2))
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
        assert abs(det(m)) == 1
        moved = [tuple(dot(row, g) for row in m) for g in gens]
        rng.shuffle(moved)
        assert is_free_semigroup(moved) == is_free_semigroup(gens), gens


def test_free_semigroup_takes_one_factorization(monkeypatch):
    # the form of all the vectors, however many r-subsets the candidates
    # have and whether or not they are independent
    factored = []

    def counted(m):
        factored.append(m)
        return hermite_normal_form(m)

    monkeypatch.setattr(intlinalg, "hermite_normal_form", counted)
    e = [tuple(int(i == j) for j in range(4)) for i in range(4)]
    for last, free in [(e[3], True), (tuple(2 * x for x in e[3]), False)]:
        basis = e[:3] + [last]
        # the basis and its triple sums: no two of them add up to a third
        vectors = basis + [tuple(map(sum, zip(*t))) for t in combinations(basis, 3)]
        assert comb(len(candidates_of(vectors)), matrix_rank(vectors)) == comb(8, 4) > 50
        assert free_by_subset_search(vectors) == free
        factored.clear()
        assert is_free_semigroup(vectors) == free
        assert len(factored) == 1, vectors
    # independent candidates, dependent vectors
    vectors = e + [tuple(map(sum, zip(e[0], e[1])))]
    assert (len(candidates_of(vectors)), matrix_rank(vectors), len(vectors)) == (4, 4, 5)
    assert free_by_subset_search(vectors)
    factored.clear()
    assert is_free_semigroup(vectors)
    assert len(factored) == 1, vectors


def test_chart_is_smooth_decides_each_generator_set_once(monkeypatch):
    components_module = sys.modules["toricfano.components"]
    decided = Counter()

    def counted(gens):
        decided[gens] += 1
        return is_free_semigroup(gens)

    monkeypatch.setattr(components_module, "is_free_semigroup", counted)
    charts = birkhoff_charts()
    answers = [chart_is_smooth(chart) for chart in charts]
    keys = [chart_generators_reduced(chart) for chart in charts]
    assert (len(charts), len(set(keys))) == (207, 111)
    assert decided == Counter(set(keys))
    assert answers == [is_free_semigroup(gens) for gens in keys]


def test_apex_exists_exactly_at_smooth_codimension_one_facets():
    # the apex search of the local scheme is the smoothness test at a facet
    kinds = Counter()
    configurations = [pts for _, pts in CASES] + random_configurations(150, seed=7919)
    for points in configurations:
        a = PointConfiguration(points)
        if a.dimension < 1:
            continue
        for face in a.fixed_point_faces(a.dimension - 1):
            try:
                choose_w(a, face)
                found = True
            except HypothesesViolated:
                found = False
            assert found == a.is_smooth_at(face), (points, face)
            kinds[found] += 1
    assert kinds[True] >= 200 and kinds[False] >= 200, kinds


# Every public function that takes a face or its indices, called on (a, sigma).
FACE_TAKERS = {
    "relation_basis": relation_basis,
    "brute_force_cayley": brute_force_cayley,
    "is_smooth_at": PointConfiguration.is_smooth_at,
    "choose_w": choose_w,
    "height_coordinates": lambda a, sigma: height_coordinates(a, sigma, a.points[-1], a.points[0]),
    "local_ring_basis": local_ring_basis,
    "multiplicity": multiplicity,
    "multiplicity_by_height": multiplicity_by_height,
}
SIMPLEX_7 = [(0,) * 7] + [tuple(int(i == j) for j in range(7)) for i in range(7)]


@pytest.mark.parametrize("name", sorted(FACE_TAKERS))
def test_face_arguments_are_resolved_alike(name):
    call = FACE_TAKERS[name]
    a = PointConfiguration(FIVE)
    assert call(a, a.face_from_indices((0, 1))) == call(a, (1, 0))
    # the same indices name a face of FOUR too, but it is not a's
    with pytest.raises(ValueError, match="different configuration"):
        call(a, PointConfiguration(FOUR).face_from_indices((0, 1)))
    with pytest.raises(ValueError, match="do not form a face"):
        call(a, (0, 3))  # the diagonal through (1, 1) to (2, 2)
    with pytest.raises(UnsupportedSizeError, match="dimension at most") as caught:
        call(PointConfiguration(SIMPLEX_7), tuple(range(7)))
    assert not isinstance(caught.value, HypothesesViolated)


@pytest.mark.parametrize(
    "points", [QUARTIC, FIVE, list(birkhoff_points())], ids=["quartic", "five", "birkhoff"]
)
def test_equal_configurations_give_equal_results(points, monkeypatch):
    first, second = PointConfiguration(points), PointConfiguration(points)
    assert first == second and first is not second
    assert first.cayley_poset is not second.cayley_poset
    # each keeps its own apex searches, one per facet, on its own faces
    searches = Counter()
    search = localscheme._apex_search

    def counted(face):
        searches["first" if face.config is first else "second"] += 1
        return search(face)

    monkeypatch.setattr(localscheme, "_apex_search", counted)
    facets = first.fixed_point_faces(first.dimension - 1)
    for sigma in facets:
        answers = []
        for a in (first, second, first, second):
            try:
                answers.append(local_ring_basis(a, sigma.indices))
            except HypothesesViolated as exc:
                answers.append(str(exc))
        assert answers == answers[:1] * 4
    assert searches == Counter(first=len(facets), second=len(facets))
    for k in range(1, first.dimension + 2):
        assert components(first, k) == components(second, k)
        assert connectivity_graph(components(first, k)) == connectivity_graph(
            components(second, k)
        )
        assert is_covered_by_k_planes(first, k) == is_covered_by_k_planes(second, k)
        pis = maximal_cayley_structures(first, k)
        assert pis == maximal_cayley_structures(second, k)
        for pi1, pi2 in combinations(pis, 2):
            # structures of one instance are accepted by the other
            assert components_intersection(first, pi1, pi2, k) == components_intersection(
                second, pi1, pi2, k
            )


FIXTURES_DATA = {
    path.stem: raw
    for path in sorted((pathlib.Path(__file__).parent / "data").glob("*.json"))
    if "points" in (raw := json.loads(path.read_text()))
}


def moved(points, seed):
    """The points under a seeded unimodular map and translation, relabelled."""
    rng = random.Random(seed)
    d = len(points[0])
    m = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(3 * d if d > 1 else 0):  # elementary row operations, small entries
        i, j = rng.sample(range(d), 2)
        row = [x + rng.choice((-1, 1)) * y for x, y in zip(m[i], m[j])]
        if max(map(abs, row)) <= 2:
            m[i] = row
    shift = [rng.randint(-3, 3) for _ in range(d)]
    image = [[sum(r * x for r, x in zip(row, p)) + t for row, t in zip(m, shift)] for p in points]
    rng.shuffle(image)
    return image


def local_invariants(a):
    """Sorted over the empty-simplex facets (``k = dim - 1``): whether each
    fixed point is isolated and its multiplicity, or that the hypotheses of
    the local scheme fail there."""
    entries = []
    for face in a.fixed_point_faces(a.dimension - 1) if a.dimension >= 2 else ():
        try:
            choose_w(a, face)
        except HypothesesViolated:
            entries.append(("hypotheses violated",))
            continue
        basis = local_ring_basis(a, face)
        entries.append(("local", basis.is_finite, basis.cardinality()))
    return sorted(entries)


def invariants(points, expect):
    """Per k: component count, sorted dimensions, nonempty intersections,
    graph pieces and coverage; the local scheme at every facet; and whether
    ``verify`` passes."""
    a = PointConfiguration(points)
    per_k = []
    for k in range(1, a.dimension + 2):
        comps = components(a, k)
        per_k.append(
            (
                len(comps),
                sorted(c.dimension for c in comps),
                sum(
                    bool(components_intersection(a, c1.pi, c2.pi, k))
                    for c1, c2 in combinations(comps, 2)
                ),
                len(connectivity_graph(comps).connected_components()),
                is_covered_by_k_planes(a, k),
            )
        )
    passed = cli.verify_report(a, None, expect, seed=0, trials=2)["passed"]
    return per_k, local_invariants(a), passed


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", sorted(FIXTURES_DATA))
def test_fixture_invariants_survive_unimodular_moves_and_relabelling(name, seed):
    # each fixture as given, and embedded as p -> (p, 0) before the move in
    # one more dimension
    raw = FIXTURES_DATA[name]
    expect = raw.get("expect", {})
    expected = invariants(raw["points"], expect)
    for points in (raw["points"], [list(p) + [0] for p in raw["points"]]):
        image = moved(points, seed)
        assert image != points
        assert invariants(image, expect) == expected


# ---------------------------------------------------------------------------
# classical families with closed-form answers


def simplex_vertices(n):
    """The origin and the unit vectors of Z^n."""
    return [tuple(int(i == j) for i in range(n)) for j in range(-1, n)]


@pytest.mark.parametrize("m, n", [(1, 1), (1, 2), (1, 3), (2, 2)])
def test_segre_components_are_the_disjoint_fibre_families(m, n):
    # Delta_m x Delta_n gives the Segre embedding of P^m x P^n: every k-plane
    # lies in a fibre, so the components are P^m x G(k, n) for k <= n and
    # G(k, m) x P^n for k <= m, and no two of them meet
    a = PointConfiguration([p + q for p in simplex_vertices(m) for q in simplex_vertices(n)])
    assert a.dimension == m + n
    for k in range(1, m + n + 1):
        dims = []
        if k <= n:
            dims.append(m + (k + 1) * (n - k))
        if k <= m:
            dims.append(n + (k + 1) * (m - k))
        comps = components(a, k)
        assert len(comps) == len(dims), k
        assert sorted(c.dimension for c in comps) == sorted(dims), k
        for c1, c2 in combinations(comps, 2):
            assert components_intersection(a, c1.pi, c2.pi, k) == (), k
        assert len(connectivity_graph(comps).connected_components()) == len(comps), k


@pytest.mark.parametrize("d, n", [(2, 2), (2, 3), (3, 2)])
def test_veronese_contains_no_lines(d, n):
    # the lattice points of d Delta_n, d >= 2: the Veronese variety holds no line
    a = PointConfiguration([p for p in product(range(d + 1), repeat=n) if sum(p) <= d])
    assert a.dimension == n
    for k in range(1, n + 1):
        assert components(a, k) == (), k
