import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from toricfano.intlinalg import (
    UnsupportedSizeError,
    affine_relation_lattice,
    as_matrix,
    cone_facets,
    hermite_normal_form,
    integer_kernel_basis,
    integer_solver,
    is_free_semigroup,
    is_saturated,
    lattice_basis,
    rational_solve,
    transpose,
)


EQUIVALENCE_MAX_POINTS = 12


def matrix_rank(m):
    """Rank over the rationals (= number of nonzero rows of the HNF)."""
    return len(lattice_basis(m))


def affine_unimodular_equivalent(a, b):
    """Whether two point configurations differ by an affine lattice isomorphism.

    True iff some bijection of the point sets extends to an affine map that
    restricts to an isomorphism between the affine lattices the
    configurations generate (translation composed with a unimodular map on
    the difference lattices).  The ambient dimensions may differ; the test is
    intrinsic.  Equivalent formulation, used here: some bijection makes the
    saturated affine relation lattices of the two configurations coincide.
    """
    pa = [tuple(int(x) for x in p) for p in a]
    pb = [tuple(int(x) for x in p) for p in b]
    if len(pa) != len(pb):
        return False
    if len(set(pa)) != len(pa) or len(set(pb)) != len(pb):
        raise ValueError("configurations must consist of distinct points")
    if len(pa) > EQUIVALENCE_MAX_POINTS:
        raise UnsupportedSizeError(
            f"equivalence search supports at most {EQUIVALENCE_MAX_POINTS} points"
        )
    if not pa:
        return True
    if matrix_rank([p + (1,) for p in pa]) != matrix_rank([p + (1,) for p in pb]):
        return False

    n = len(pa)
    # Backtracking over bijections pa[i] -> chosen pb point.  A partial
    # assignment survives iff the affine relation lattices of the two
    # prefixes coincide; at full length that is exactly equivalence.
    prefix_a = [affine_relation_lattice(pa[: t + 1]) for t in range(n)]
    chosen = []
    used = [False] * n

    def extend(t: int) -> bool:
        if t == n:
            return True
        for j in range(n):
            if used[j]:
                continue
            chosen.append(pb[j])
            if affine_relation_lattice(chosen) == prefix_a[t]:
                used[j] = True
                if extend(t + 1):
                    return True
                used[j] = False
            chosen.pop()
        return False

    return extend(0)


def mat_mul(a, b):
    bt = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def det(m):
    m = [list(map(Fraction, row)) for row in m]
    n = len(m)
    result = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            result = -result
        result *= m[c][c]
        inv = 1 / m[c][c]
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return result


def assert_hnf_shape(h):
    pivot_cols = []
    for row in h:
        nz = [c for c, x in enumerate(row) if x]
        if not nz:
            continue
        assert not pivot_cols or nz[0] > pivot_cols[-1]
        assert row[nz[0]] > 0
        pivot_cols.append(nz[0])
    for r, c in enumerate(pivot_cols):
        for above in range(r):
            assert 0 <= h[above][c] < h[r][c]
    # zero rows must be at the bottom
    seen_zero = False
    for row in h:
        if not any(row):
            seen_zero = True
        else:
            assert not seen_zero


def test_hnf_worked_example():
    h, u = hermite_normal_form([[2, 4], [1, 3]])
    assert h == ((1, 1), (0, 2))
    assert mat_mul(u, ((2, 4), (1, 3))) == h
    assert abs(det(u)) == 1


def test_hnf_properties_small_cases():
    cases = [
        [[0, 0], [0, 0]],
        [[5]],
        [[-3, 6], [4, -8]],
        [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
        [[2, 0], [0, 3], [1, 1]],
    ]
    for m in cases:
        h, u = hermite_normal_form(m)
        assert mat_mul(u, as_matrix(m)) == h
        assert abs(det(u)) == 1
        assert_hnf_shape(h)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=3, max_size=3),
        min_size=1,
        max_size=4,
    )
)
def test_hnf_properties_random(rows):
    h, u = hermite_normal_form(rows)
    assert mat_mul(u, as_matrix(rows)) == h
    assert abs(det(u)) == 1
    assert_hnf_shape(h)


def test_kernel_of_homogenized_quartic_surface():
    # points (0,0),(0,1),(1,0),(1,2) homogenized: single relation up to sign
    m = [[0, 0, 1, 1], [0, 1, 0, 2], [1, 1, 1, 1]]
    basis = integer_kernel_basis(m)
    assert len(basis) == 1
    assert basis[0] in ((2, -2, -1, 1), (-2, 2, 1, -1))


def test_kernel_of_homogenized_unit_square():
    m = [[0, 0, 1, 1], [0, 1, 0, 1], [1, 1, 1, 1]]
    basis = integer_kernel_basis(m)
    assert len(basis) == 1
    assert basis[0] in ((1, -1, -1, 1), (-1, 1, 1, -1))


def test_kernel_is_saturated_and_annihilates():
    m = [[2, 4, 6], [1, 2, 3], [0, 2, 4]]
    basis = integer_kernel_basis(m)
    for v in basis:
        assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in m)
    assert is_saturated(basis)
    assert len(basis) == 3 - matrix_rank(m)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=-6, max_value=6), min_size=4, max_size=4),
        min_size=1,
        max_size=3,
    )
)
def test_kernel_properties_random(rows):
    basis = integer_kernel_basis(rows)
    for v in basis:
        assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in rows)
    assert len(basis) == 4 - matrix_rank(rows)
    if basis:
        assert is_saturated(basis)


def test_matrix_rank_of_lattice_generators():
    assert matrix_rank([(1, 0), (0, 1), (1, 1)]) == 2
    assert matrix_rank([(2, 4), (1, 2)]) == 1
    assert matrix_rank([]) == 0
    assert matrix_rank([(0, 0, 0)]) == 0


def test_lattice_basis_canonical():
    b1 = lattice_basis([(2, 0), (0, 2), (1, 1)])
    b2 = lattice_basis([(1, 1), (1, -1)])
    assert b1 == b2 == ((1, 1), (0, 2))


def saturated_by_minors(vectors):
    """Reference saturation test: the gcd of the maximal minors of a basis
    of the lattice is 1 (the empty basis has the single minor 1)."""
    basis = lattice_basis(vectors)
    g = 0
    for cols in itertools.combinations(range(len(basis[0]) if basis else 0), len(basis)):
        minor = det([[row[c] for c in cols] for row in basis])
        assert minor.denominator == 1
        g = math.gcd(g, int(minor))
    return g == 1


def assert_saturation(vectors, saturated):
    """``saturated`` is the saturation of the lattice of ``vectors``: a
    saturated lattice of the same rank that contains every vector."""
    assert is_saturated(saturated)
    assert matrix_rank(saturated) == matrix_rank(vectors)
    solve = integer_solver(saturated)
    assert all(solve(v) is not None for v in vectors)


def test_saturation():
    assert_saturation([(2, 0)], ((1, 0),))
    assert_saturation([(2, 2)], ((1, 1),))
    assert is_saturated([(1, 1)])
    assert not is_saturated([(2, 2)])
    # (2,0) and (1,1) generate the index-2 sublattice {x = y mod 2}
    assert not is_saturated([(2, 0), (1, 1)])
    assert lattice_basis([(2, 0), (1, 1)]) == ((1, 1), (0, 2))
    assert_saturation([(2, 0), (1, 1)], ((1, 0), (0, 1)))
    assert is_saturated([])
    assert is_saturated([(0, 0, 0)])


def test_is_saturated_matches_gcd_of_maximal_minors():
    # products with a random square matrix make index > 1 common
    rng = random.Random(4409)
    kinds = Counter()
    for i in range(1100):
        m = rng.randint(1, 5)
        q = 0 if i % 25 == 0 else rng.randint(1, m)
        base = [tuple(rng.randint(-3, 3) for _ in range(m)) for _ in range(q)]
        if base and rng.random() < 0.6:
            scale = [tuple(rng.randint(-2, 2) for _ in range(q)) for _ in range(q)]
            base = list(mat_mul(scale, base))
        # multiples of members make the set dependent without changing it
        vectors = base + [
            tuple(rng.randint(-1, 1) * x for x in rng.choice(base))
            for _ in range(rng.randint(0, 2) if base else 0)
        ]
        expected = saturated_by_minors(vectors)
        assert is_saturated(vectors) == expected, vectors
        kinds["saturated" if expected else "not saturated"] += 1
        kinds["dependent"] += matrix_rank(vectors) < len(vectors)
        kinds["empty"] += not vectors
    assert min(kinds.values()) >= 30, kinds


def test_rational_solve_and_integer_solver():
    rows = [(1, 2, 0), (0, 1, 1)]
    x = rational_solve(rows, (1, 3, 1))
    assert x is not None
    combo = tuple(sum(f * r[i] for f, r in zip(x, rows)) for i in range(3))
    assert combo == (1, 3, 1)
    assert rational_solve(rows, (0, 0, 1)) is None
    assert integer_solver(rows)((1, 3, 1)) == (1, 1)
    assert integer_solver([(2, 0), (0, 1)])((1, 1)) is None


def _random_independent_rows(rng, q, m):
    while True:
        rows = tuple(tuple(rng.randint(-4, 4) for _ in range(m)) for _ in range(q))
        if matrix_rank(rows) == q:
            return rows


def test_integer_solver_matches_rational_solve_on_random_systems():
    # basis = scale * base, with scale a random nonsingular q x q matrix, so
    # that integer points of the span often have non-integral coordinates
    rng = random.Random(20161)
    kinds = Counter()
    for _ in range(400):
        m = rng.randint(1, 5)
        q = rng.randint(1, m)
        base = _random_independent_rows(rng, q, m)
        scale = _random_independent_rows(rng, q, q)
        basis = mat_mul(scale, base)
        solve = integer_solver(basis)
        for _ in range(4):
            y = [rng.randint(-5, 5) for _ in range(q)]
            v = rng.choice(
                [
                    mat_mul((y,), base)[0],
                    mat_mul((y,), basis)[0],
                    tuple(rng.randint(-9, 9) for _ in range(m)),
                ]
            )
            exact = rational_solve(basis, v)
            if exact is None:
                kinds["inconsistent"] += 1
                assert solve(v) is None
            elif any(f.denominator != 1 for f in exact):
                kinds["non-integral"] += 1
                assert solve(v) is None
            else:
                kinds["integral"] += 1
                assert solve(v) == tuple(int(f) for f in exact)
                assert integer_solver(basis)(v) == solve(v)
                assert (min(solve(v)) >= 0) == all(f >= 0 for f in exact)
    assert min(kinds[k] for k in ("inconsistent", "non-integral", "integral")) >= 100


def test_integer_solver_rejects_dependent_rows():
    with pytest.raises(ValueError):
        integer_solver([(1, 2), (2, 4)])
    with pytest.raises(ValueError):
        integer_solver([(0, 0, 0)])
    with pytest.raises(ValueError):
        integer_solver([(1, 0), (0, 1), (1, 1)])
    with pytest.raises(ValueError):
        integer_solver([(1, 0)])((1, 0, 0))  # wrong vector length


def test_integer_solver_empty_basis():
    solve = integer_solver([])
    assert solve((0, 0)) == ()
    assert solve(()) == ()
    assert solve((0, 1)) is None
    assert rational_solve([], (0, 1)) is None


def test_is_free_semigroup_hand_cases():
    assert is_free_semigroup([])
    assert is_free_semigroup([(1, 0), (0, 1)])
    # decomposable generators are never basis elements, yet still checked
    assert is_free_semigroup([(0, 1), (1, 0), (1, 1), (2, 0)])
    assert is_free_semigroup([(0, 1), (1, -1), (1, 0)])
    assert not is_free_semigroup([(-1, 0), (0, 1), (1, 0)])  # not pointed
    assert is_free_semigroup([(1, 1, 0)])  # direct summand of lower rank
    assert not is_free_semigroup([(2, 2, 0)])
    # decided in lattice coordinates, not in the entries on pivot columns
    assert is_free_semigroup([(2, 1)])
    assert is_free_semigroup([(2, 1), (4, 2)])
    assert not is_free_semigroup([(2, 1), (0, 1)])
    assert not is_free_semigroup([(1, 0), (1, 1), (1, 2)])


def test_affine_equivalence_identity_and_translation():
    square = [(0, 0), (0, 1), (1, 0), (1, 1)]
    shifted = [(5, 7), (5, 8), (6, 7), (6, 8)]
    assert affine_unimodular_equivalent(square, square)
    assert affine_unimodular_equivalent(square, shifted)


def test_affine_equivalence_unimodular_image():
    square = [(0, 0), (0, 1), (1, 0), (1, 1)]
    # apply [[1, 1], [1, 2]] (det 1) plus a translation
    image = [(3, 4), (4, 6), (4, 5), (5, 7)]
    assert affine_unimodular_equivalent(square, image)


def test_affine_equivalence_is_intrinsic():
    # the 2-stretched rectangle generates the difference lattice 2Z x Z and
    # x -> (x/2, y) is an affine lattice isomorphism onto the unit square
    # (both are cut out by the same single binomial)
    square = [(0, 0), (0, 1), (1, 0), (1, 1)]
    stretched = [(0, 0), (0, 1), (2, 0), (2, 1)]
    assert affine_unimodular_equivalent(square, stretched)


def test_affine_equivalence_rejects_distinct_relation_shapes():
    square = [(0, 0), (0, 1), (1, 0), (1, 1)]
    # relation coefficients (2,-1,-2,1): no bijection can match (1,-1,-1,1)
    skew = [(0, 0), (0, 1), (1, 0), (2, 1)]
    assert not affine_unimodular_equivalent(square, skew)
    triangle = [(0, 0), (1, 0), (0, 1)]
    assert not affine_unimodular_equivalent(square, triangle)


def test_affine_equivalence_intrinsic_across_ambient_dims():
    segment_plane = [(0, 0), (1, 1), (2, 2)]
    segment_line = [(0,), (1,), (2,)]
    assert affine_unimodular_equivalent(segment_plane, segment_line)
    sparse = [(0, 0), (2, 2), (4, 4)]
    assert affine_unimodular_equivalent(segment_line, sparse)
    assert not affine_unimodular_equivalent(segment_line, [(0,), (1,), (3,)])


def test_affine_equivalence_simplices_any_labeling():
    a = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    b = [(2, 3, 5), (1, 1, 1), (0, 4, 7), (9, 9, 9)]
    # both affinely independent; any bijection induces an isomorphism iff the
    # image difference vectors form a lattice basis of the image lattice,
    # which holds automatically for affinely independent quadruples
    assert affine_unimodular_equivalent(a, b)


def test_affine_equivalence_size_cap():
    big = [(i, i * i) for i in range(13)]
    with pytest.raises(UnsupportedSizeError):
        affine_unimodular_equivalent(big, big)


def test_affine_relation_lattice_prefix_pruning_data():
    pts = [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert affine_relation_lattice(pts[:2]) == ()
    full = affine_relation_lattice(pts)
    assert full == ((1, -1, -1, 1),)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(min_value=-4, max_value=4), st.integers(min_value=-4, max_value=4)),
        min_size=1,
        max_size=6,
        unique=True,
    ),
    st.permutations(range(6)),
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-3, max_value=3),
)
def test_affine_equivalence_invariant_under_relabeling_and_shear(pts, perm, b, t):
    # image under the unimodular map (x, y) -> (x + b*y, y) + (t, t), points relabeled
    order = [p for p in perm if p < len(pts)]
    image = [(pts[i][0] + b * pts[i][1] + t, pts[i][1] + t) for i in order]
    assert affine_unimodular_equivalent(pts, image)


def test_transpose_shapes():
    assert transpose(((1, 2, 3), (4, 5, 6))) == ((1, 4), (2, 5), (3, 6))
    assert transpose(()) == ()


# ---------------------------------------------------------------------------
# cone_is_pointed


def cone_is_pointed(vectors):
    """Whether the rational cone spanned by the vectors contains no line, so
    that their semigroup has no nonzero invertible element.  The cone's
    largest linear subspace is its smallest face, where every facet is tight,
    and the vectors on it span it: the cone is pointed exactly when no nonzero
    vector is tight at every facet."""
    facets = cone_facets(vectors)
    return not any(
        any(v) and not any(sum(a * b for a, b in zip(y, v)) for y in facets) for v in vectors
    )


@pytest.mark.parametrize(
    "vectors, expected",
    [
        ([], True),
        ([(0, 0)], True),
        ([(1, 0), (0, 1)], True),
        ([(1, 0), (2, 0)], True),
        ([(1, 0), (-1, 0)], False),
        ([(2, 0), (-3, 0)], False),
        ([(1, 0), (-1, 0), (0, 1)], False),
        ([(1, 0), (-1, 1), (-1, -1)], False),
        ([(1, 0), (1, 5), (1, -5)], True),
        ([(1, 2, 3), (4, 5, 6)], True),
        ([(1, 1, 0), (1, -1, 0), (-2, 0, 0)], False),
        ([(1, 1, 1), (1, -1, 1), (-2, 0, 1)], True),
    ],
)
def test_cone_is_pointed(vectors, expected):
    assert cone_is_pointed(vectors) is expected


def test_cone_pointedness_matches_nonneg_relation_search():
    # oracle: exhaustive search for a vanishing nonnegative integer
    # combination with small coefficients
    rng = random.Random(7)
    for _ in range(40):
        vs = [
            tuple(rng.randint(-2, 2) for _ in range(3))
            for _ in range(rng.randint(1, 4))
        ]
        vs = [v for v in vs if any(v)]
        found = False
        for coeffs in itertools.product(range(7), repeat=len(vs)):
            if not any(coeffs):
                continue
            total = [0, 0, 0]
            for c, v in zip(coeffs, vs):
                for i in range(3):
                    total[i] += c * v[i]
            if not any(total):
                found = True
                break
        assert cone_is_pointed(vs) is (not found), vs


# ---------------------------------------------------------------------------
# cone_facets


@pytest.mark.parametrize(
    "vectors, expected",
    [
        # simplicial cone: the coordinate hyperplanes
        ([(1, 0, 0), (0, 1, 0), (0, 0, 1)], ((0, 0, 1), (0, 1, 0), (1, 0, 0))),
        # cone over the unit square: four facets through two rays each
        (
            [(1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1)],
            ((0, 0, 1), (0, 1, 0), (1, -1, 0), (1, 0, -1)),
        ),
        # linear spaces have no facets: a line, the whole plane
        ([(1, 0), (-1, 0)], ()),
        ([(1, 0), (0, 1), (-1, -1)], ()),
        # a half-plane: one facet, its boundary line
        ([(1, 0), (-1, 0), (0, 1)], ((0, 1),)),
        # rank 2 in Z^4: normals vanish off the pivot columns 0 and 1
        ([(1, 1, 0, 0), (1, 0, 1, 0)], ((0, 1, 0, 0), (1, -1, 0, 0))),
        # a single ray, given twice; no vectors; only the zero vector
        ([(2, 0), (3, 0)], ((1, 0),)),
        ([], ()),
        ([(0, 0, 0)], ()),
    ],
)
def test_cone_facets_hand_cases(vectors, expected):
    assert cone_facets(vectors) == expected


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def primitive(values):
    g = math.gcd(*values)
    return tuple(x // g for x in values)


def facet_values_by_hyperplanes(vs):
    """Oracle: for each hyperplane through r - 1 linearly independent vectors
    with every vector on one side (r the rank), the primitive vector of the
    vectors' values on its inward normal."""
    r = matrix_rank(vs)
    found = set()
    for subset in itertools.combinations(vs, r - 1) if r else ():
        if matrix_rank(subset) != r - 1:
            continue
        # the kernel of the subset (of a zero row, for r = 1) holds a normal
        # that some vector sees
        kernel = integer_kernel_basis(subset or [[0] * len(vs[0])])
        values = next(vals for w in kernel if any(vals := [dot(w, v) for v in vs]))
        if min(values) >= 0 or max(values) <= 0:
            found.add(primitive([abs(x) for x in values]))
    return found


def random_cone_vectors(rng):
    """One to seven small integer combinations of random generators in
    dimension 1-4; a third of the time fewer generators than the dimension,
    so the vectors have lower rank."""
    d = rng.randint(1, 4)
    rank = rng.randint(1, d - 1) if d > 1 and rng.random() < 1 / 3 else d
    gens = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(rank)]
    return [
        tuple(sum(rng.randint(-1, 1) * g[j] for g in gens) for j in range(d))
        for _ in range(rng.randint(1, 7))
    ]


def test_cone_facets_match_hyperplanes_through_independent_vectors():
    rng = random.Random(1953)
    shapes = Counter()
    for _ in range(600):
        vs = random_cone_vectors(rng)
        facets = cone_facets(vs)
        pivots = {next(j for j, x in enumerate(row) if x) for row in lattice_basis(vs)}
        for y in facets:
            assert math.gcd(*y) == 1, (vs, y)
            assert all(x == 0 for j, x in enumerate(y) if j not in pivots), (vs, y)
            assert min(dot(y, v) for v in vs) >= 0, (vs, y)
        got = [primitive([dot(y, v) for v in vs]) for y in facets]
        assert len(set(got)) == len(got), vs
        assert set(got) == facet_values_by_hyperplanes(vs), vs
        shapes["lower rank"] += matrix_rank(vs) < len(vs[0])
        shapes["not pointed"] += not cone_is_pointed(vs)
        shapes["no facets"] += not facets
        shapes["three or more facets"] += len(facets) >= 3
    assert min(shapes.values()) >= 50, shapes
