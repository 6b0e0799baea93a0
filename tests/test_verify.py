"""Tests for the oracle module itself, plus the fast-vs-oracle sweeps."""

import json
import pathlib
import random
import re
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest
import sympy

from toricfano import intlinalg, verify
from toricfano.cayley import (
    CayleyStructure,
    enumerate_cayley_structures,
    is_cayley_structure,
    maximal_cayley_structures,
)
from toricfano.intlinalg import UnsupportedSizeError, is_saturated
from toricfano.pointconfig import PointConfiguration
from toricfano.verify import (
    PlaneParametrization,
    RelationBasis,
    brute_force_cayley,
    relation_basis,
    relations_vanish_on,
    verify_cayley_plane,
    verify_chart_sample,
    all_set_partitions,
    _substituted_sides,
)

from test_pointconfig import QUARTIC, SQUARE, birkhoff_points
from test_localscheme import FIVE

DATA = pathlib.Path(__file__).parent / "data"


def config(points):
    return PointConfiguration(tuple(tuple(p) for p in points))


def specialized_chart_plane(pi, sigma_tilde, sigma, torus, coefficients):
    """The plane of a chart point at given torus and coefficient values."""
    build = verify._chart_plane_builder(pi, sigma_tilde, sigma)
    coeffs = {key: Fraction(c).as_integer_ratio() for key, c in coefficients.items()}
    return build(tuple(Fraction(x).as_integer_ratio() for x in torus), coeffs)


def full_face(a):
    return a.face_from_indices(tuple(range(len(a.points))))


def full_basis(a):
    return relation_basis(a, full_face(a))


# ---------------------------------------------------------------------------
# relation bases


def test_quartic_full_relation_basis():
    a = config(QUARTIC)
    rb = relation_basis(a, full_face(a))
    assert isinstance(rb, RelationBasis)
    assert len(rb.vectors) == 1
    # twice the origin plus the top point balances the other two points
    assert rb.vectors[0] in {(2, -2, -1, 1), (-2, 2, 1, -1)}


def test_empty_simplex_face_has_no_relations():
    a = config(QUARTIC)
    rb = relation_basis(a, (0, 1))
    assert rb.vectors == ()


def test_birkhoff_relation_is_even_versus_odd():
    a = config(birkhoff_points())
    rb = relation_basis(a, full_face(a))
    assert len(rb.vectors) == 1
    assert rb.vectors[0] in {(1, 1, 1, -1, -1, -1), (-1, -1, -1, 1, 1, 1)}


def test_relation_vectors_are_relations_and_saturated():
    for pts in (QUARTIC, SQUARE, FIVE, birkhoff_points()):
        a = config(pts)
        face = full_face(a)
        rb = relation_basis(a, face)
        for vec in rb.vectors:
            assert sum(vec) == 0
            weighted = [
                sum(m * p[i] for m, p in zip(vec, face.points))
                for i in range(a.ambient_dim)
            ]
            assert not any(weighted)
        if rb.vectors:
            assert is_saturated(rb.vectors)


def test_relation_basis_rejects_foreign_face():
    a = config(QUARTIC)
    b = config(SQUARE)
    with pytest.raises(ValueError):
        relation_basis(a, full_face(b))


# ---------------------------------------------------------------------------
# block-plane membership


def test_every_enumerated_structure_passes():
    for pts in (QUARTIC, SQUARE, FIVE, birkhoff_points()):
        a = config(pts)
        for face in a.faces():
            relations = relation_basis(a, face)
            for pi in enumerate_cayley_structures(face, 1):
                assert verify_cayley_plane(relations, pi)


def test_quartic_horizontal_partition_fails():
    a = config(QUARTIC)
    horizontal = CayleyStructure(full_face(a), [(0, 2), (1, 3)])
    assert not verify_cayley_plane(relation_basis(a, full_face(a)), horizontal)


def test_quartic_vertical_partition_passes():
    a = config(QUARTIC)
    vertical = CayleyStructure(full_face(a), [(0, 1), (2, 3)])
    assert verify_cayley_plane(relation_basis(a, full_face(a)), vertical)


def test_birkhoff_row_projection_passes():
    a = config(birkhoff_points())
    pi = CayleyStructure(full_face(a), [(0, 3), (1, 4), (2, 5)])
    assert verify_cayley_plane(relation_basis(a, full_face(a)), pi)


def test_plane_check_rejects_basis_of_another_face():
    a = config(QUARTIC)
    vertical = CayleyStructure(full_face(a), [(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        verify_cayley_plane(relation_basis(a, (0, 1)), vertical)


def test_plane_check_matches_direct_criterion_exhaustively():
    # On every face with at most eight points, the formal substitution
    # check agrees with rowspan membership on every set partition.
    for pts in (QUARTIC, SQUARE, FIVE):
        a = config(pts)
        for face in a.faces():
            if not face.indices or len(face.indices) > 8:
                continue
            relations = relation_basis(a, face)
            for part in all_set_partitions(list(face.indices)):
                expected = is_cayley_structure(face, part)
                got = verify_cayley_plane(relations, CayleyStructure(face, part))
                assert got == expected, (pts, face.indices, part)


def test_side_summaries_additive_beyond_basis():
    # Checking a lattice basis suffices: random integer combinations of
    # basis relations still balance on both sides for valid structures.
    rng = random.Random(1729)
    for pts in (QUARTIC, FIVE, birkhoff_points()):
        a = config(pts)
        face = full_face(a)
        basis = relation_basis(a, face).vectors
        if not basis:
            continue
        structures = enumerate_cayley_structures(face, 1)
        for _ in range(20):
            combo = [0] * len(face.indices)
            while not any(combo):
                weights = [rng.randint(-3, 3) for _ in basis]
                combo = [
                    sum(w * vec[i] for w, vec in zip(weights, basis))
                    for i in range(len(face.indices))
                ]
            for pi in structures:
                lhs, rhs = _substituted_sides(pi, combo)
                assert lhs == rhs


# ---------------------------------------------------------------------------
# chart sampling


def quartic_vertical(a):
    return CayleyStructure(full_face(a), [(0, 1), (2, 3)])


def test_chart_sample_birkhoff_projection():
    a = config(birkhoff_points())
    pi = CayleyStructure(full_face(a), [(0, 3), (1, 4), (2, 5)])
    assert verify_chart_sample(full_basis(a), pi, (1, 2, 3), (1, 2, 3), trials=25, seed=7)


def test_chart_sample_sub_plane_chart():
    # Planes of lower dimension than the structure: coefficient parameters
    # appear and every sample must still satisfy the relation.
    a = config(birkhoff_points())
    pi = CayleyStructure(full_face(a), [(0, 3), (1, 4), (2, 5)])
    assert verify_chart_sample(full_basis(a), pi, (1, 2, 3), (1, 2), trials=10, seed=3)
    assert verify_chart_sample(full_basis(a), pi, (0, 1, 2), (0, 2), trials=10, seed=3)


def test_chart_sample_torus_translates():
    a = config(QUARTIC)
    assert verify_chart_sample(full_basis(a), quartic_vertical(a), (0, 2), (0, 2), trials=10, seed=1)
    b = config(SQUARE)
    pi = CayleyStructure(full_face(b), [(0, 1), (2, 3)])
    assert verify_chart_sample(full_basis(b), pi, (0, 2), (0, 2), trials=10, seed=1)


def test_chart_sample_deterministic_per_seed():
    a = config(QUARTIC)
    pi = quartic_vertical(a)
    first = verify_chart_sample(full_basis(a), pi, (0, 2), (0, 2), trials=5, seed=11)
    second = verify_chart_sample(full_basis(a), pi, (0, 2), (0, 2), trials=5, seed=11)
    assert first is True and second is True


def test_specialized_plane_shape_and_rank():
    a = config(QUARTIC)
    plane = specialized_chart_plane(
        quartic_vertical(a),
        (0, 2),
        (0, 2),
        torus=(Fraction(2, 3), Fraction(5, 7)),
        coefficients={},
    )
    assert len(plane.matrix) == 2
    assert all(len(row) == 4 for row in plane.matrix)
    # identity on the sigma columns, character values elsewhere on the face
    assert plane.matrix[0][0] == 1 and plane.matrix[1][2] == 1
    assert plane.matrix[0][2] == 0 and plane.matrix[1][0] == 0
    assert plane.matrix[0][1] == Fraction(5, 7)
    assert plane.matrix[1][3] == Fraction(5, 7) ** 2
    assert relations_vanish_on(relation_basis(a, full_face(a)), plane)
    with pytest.raises(ValueError):  # the basis of a proper face does not fit
        relations_vanish_on(relation_basis(a, (0, 1)), plane)


def test_corrupted_chart_detected():
    a = config(QUARTIC)
    plane = specialized_chart_plane(
        quartic_vertical(a),
        (0, 2),
        (0, 2),
        torus=(Fraction(2, 3), Fraction(5, 7)),
        coefficients={},
    )
    rows = [list(row) for row in plane.matrix]
    rows[1][3] *= 3  # perturb one character exponent's worth of value
    corrupted = PlaneParametrization(matrix=tuple(tuple(r) for r in rows))
    assert not relations_vanish_on(relation_basis(a, full_face(a)), corrupted)


def test_plane_parametrization_requires_full_rank():
    with pytest.raises(ValueError):
        PlaneParametrization(
            matrix=((Fraction(1), Fraction(2)), (Fraction(2), Fraction(4)))
        )


@pytest.mark.parametrize(
    "matrix",
    [
        # some rows are alone nonzero in a column, but not every row is
        ((1, 0, 0), (0, 1, 2), (0, 2, 4)),
        ((0, 0), (1, 1)),
    ],
)
def test_plane_parametrization_rejects_partial_certificates(matrix):
    with pytest.raises(ValueError, match="full row rank"):
        PlaneParametrization(matrix=matrix)


def test_chart_sample_respects_chart_validation():
    a = config(QUARTIC)
    with pytest.raises(ValueError):
        verify_chart_sample(full_basis(a), quartic_vertical(a), (0, 1), (0, 1), trials=1, seed=0)


def test_chart_sample_rejects_a_foreign_or_partial_basis():
    a = config(birkhoff_points())
    pi = CayleyStructure(full_face(a), [(0, 3), (1, 4), (2, 5)])
    # the same structure over B_3 with its first coordinate doubled
    doubled = config([(2 * p[0],) + tuple(p[1:]) for p in birkhoff_points()])
    with pytest.raises(ValueError, match="configuration"):
        verify_chart_sample(full_basis(doubled), pi, (1, 2, 3), (1, 2, 3), trials=1)
    with pytest.raises(ValueError, match="full configuration"):
        verify_chart_sample(relation_basis(a, (0, 1)), pi, (1, 2, 3), (1, 2, 3), trials=1)


@pytest.mark.parametrize("trials", [0, -3])
def test_chart_sample_requires_at_least_one_trial(trials):
    a = config(QUARTIC)
    with pytest.raises(ValueError, match="trials"):
        verify_chart_sample(full_basis(a), quartic_vertical(a), (0, 2), (0, 2), trials=trials)


def test_chart_sample_errors_come_before_any_draw(monkeypatch):
    def no_draw(seed):
        raise AssertionError("drew a sample before rejecting the input")

    monkeypatch.setattr(verify, "random", type("NoRandom", (), {"Random": no_draw}))
    a = config(QUARTIC)
    with pytest.raises(ValueError, match="one point from each block"):
        verify_chart_sample(full_basis(a), quartic_vertical(a), (0, 1), (0, 1), trials=3)
    with pytest.raises(ValueError, match="subset"):
        verify_chart_sample(full_basis(a), quartic_vertical(a), (0, 2), (0, 1), trials=3)
    with pytest.raises(ValueError, match="trials"):
        verify_chart_sample(full_basis(a), quartic_vertical(a), (0, 2), (0, 2), trials=0)


def test_chart_sample_planes_are_the_specialized_planes_of_the_draws(monkeypatch):
    # trial i draws Fractions from random.Random(seed * 1_000_003 + i), each
    # numerator before its denominator: the torus first, then (v, w) for v
    # in sigma and w outside it
    a = config(birkhoff_points())
    pi = CayleyStructure(full_face(a), [(0, 3), (1, 4), (2, 5)])
    relations = full_basis(a)
    sampled = []
    original = verify.relations_vanish_on

    def recorded(rels, plane):
        sampled.append(plane)
        return original(rels, plane)

    monkeypatch.setattr(verify, "relations_vanish_on", recorded)
    seed = 0
    for sigma in ((1, 2, 3), (1, 2)):
        sampled.clear()
        assert verify_chart_sample(relations, pi, (1, 2, 3), sigma, trials=25, seed=seed)
        outside = [w for w in (1, 2, 3) if w not in sigma]
        expected = []
        for trial in range(25):
            rng = random.Random(seed * 1_000_003 + trial)

            def draw():
                return Fraction(rng.randint(1, 97), rng.randint(1, 97))

            torus = [draw() for _ in range(a.ambient_dim)]
            coefficients = {(v, w): draw() for v in sigma for w in outside}
            expected.append(specialized_chart_plane(pi, (1, 2, 3), sigma, torus, coefficients))
        assert [p.matrix for p in sampled] == [p.matrix for p in expected]
        assert all(type(x) is Fraction for p in sampled for row in p.matrix for x in row)


def test_chart_sample_validates_the_chart_once_and_ranks_no_plane(monkeypatch):
    # every sampled plane is the identity on sigma's columns, so the
    # full-row-rank certificate holds without a Hermite normal form
    a = config(birkhoff_points())
    pi = CayleyStructure(full_face(a), [(0, 3), (1, 4), (2, 5)])
    relations = full_basis(a)
    assert a.dimension == 4
    calls = Counter()

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(verify, "chart_semigroup")
    counted(verify, "relations_vanish_on")
    counted(intlinalg, "hermite_normal_form")
    for sigma in ((1, 2, 3), (1, 2)):
        calls.clear()
        assert verify_chart_sample(relations, pi, (1, 2, 3), sigma, trials=25, seed=0)
        counts = (calls["chart_semigroup"], calls["hermite_normal_form"], calls["relations_vanish_on"])
        assert counts == (1, 0, 25)


# ---------------------------------------------------------------------------
# symbolic cross-check of the substitution


def test_substitution_matches_sympy_expansion():
    # Substitute the block-plane parametrization into each binomial with
    # sympy and compare with the summary-based check.
    for pts in (QUARTIC, FIVE):
        a = config(pts)
        face = full_face(a)
        relations = relation_basis(a, face)
        basis = relations.vectors
        for part in all_set_partitions(list(face.indices)):
            pi = CayleyStructure(face, part)
            t = sympy.symbols(f"t0:{a.ambient_dim}", positive=True)
            s = sympy.symbols(f"s0:{len(pi.blocks)}")
            reps = [a.points[b[0]] for b in pi.blocks]
            y = {}
            for pos, idx in enumerate(face.indices):
                b = pi.block_of[idx]
                mono = s[b]
                for i in range(a.ambient_dim):
                    mono *= t[i] ** (a.points[idx][i] - reps[b][i])
                y[pos] = mono
            symbolic_ok = all(
                sympy.simplify(
                    sympy.prod([y[p] ** max(v, 0) for p, v in enumerate(vec)])
                    - sympy.prod([y[p] ** max(-v, 0) for p, v in enumerate(vec)])
                )
                == 0
                for vec in basis
            )
            assert verify_cayley_plane(relations, pi) == symbolic_ok, (pts, part)


def _poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            c = out.get(key, Fraction(0)) + ca * cb
            if c:
                out[key] = c
            elif key in out:
                del out[key]
    return out


def _column_form(plane: PlaneParametrization, col: int) -> dict:
    nrows = len(plane.matrix)
    return {
        tuple(1 if r == i else 0 for r in range(nrows)): plane.matrix[i][col]
        for i in range(nrows)
        if plane.matrix[i][col]
    }


def expanded_relations_vanish(relations: RelationBasis, plane: PlaneParametrization) -> bool:
    """Reference for ``relations_vanish_on``: expand both sides of every
    relation as polynomials in the row variables and compare."""
    nrows = len(plane.matrix)
    one = {(0,) * nrows: Fraction(1)}
    forms = [_column_form(plane, col) for col in range(len(relations.face.indices))]
    for vec in relations.vectors:
        lhs, rhs = one, one
        for col, mult in enumerate(vec):
            for _ in range(abs(mult)):
                if mult > 0:
                    lhs = _poly_mul(lhs, forms[col])
                else:
                    rhs = _poly_mul(rhs, forms[col])
        if lhs != rhs:
            return False
    return True


def random_plane(rng: random.Random, ncols: int):
    """A seeded plane mixing zero columns, multiples of two shared forms,
    multiples of one row variable (as in chart planes) and generic columns;
    None when the draw is rank deficient."""
    nrows = rng.randint(1, 3)
    shared = [[rng.randint(-2, 2) for _ in range(nrows)] for _ in range(2)]
    columns = []
    for _ in range(ncols):
        kind = rng.random()
        scale = rng.choice((1, 1, -1, 2, Fraction(1, 2), -3))
        if kind < 0.2:
            columns.append([0] * nrows)
        elif kind < 0.6:
            columns.append([scale * x for x in rng.choice(shared)])
        elif kind < 0.8:
            row = rng.randrange(nrows)
            columns.append([scale * (r == row) for r in range(nrows)])
        else:
            columns.append([Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(nrows)])
    try:
        return PlaneParametrization(matrix=tuple(zip(*columns)))
    except ValueError:
        return None


def test_factorization_matches_expansion_on_random_planes():
    rng = random.Random(2016)
    outcomes = Counter()
    for pts in (QUARTIC, SQUARE, FIVE, birkhoff_points()):
        a = config(pts)
        relations = full_basis(a)
        for _ in range(400):
            plane = random_plane(rng, len(a.points))
            if plane is None:
                continue
            expected = expanded_relations_vanish(relations, plane)
            assert relations_vanish_on(relations, plane) == expected, (pts, plane)
            outcomes[expected] += 1
    assert outcomes[True] >= 100 and outcomes[False] >= 100, outcomes


def reference_chart_sample(relations, pi, sigma_tilde, sigma, trials, seed):
    """``verify_chart_sample`` by its definition: each trial's plane built
    from its draws by ``specialized_chart_plane`` and decided by expansion."""
    outside = [w for w in sorted(sigma_tilde) if w not in sigma]
    for trial in range(trials):
        rng = random.Random(seed * 1_000_003 + trial)

        def draw():
            return Fraction(rng.randint(1, 97), rng.randint(1, 97))

        torus = [draw() for _ in range(pi.config.ambient_dim)]
        coefficients = {(v, w): draw() for v in sorted(sigma) for w in outside}
        plane = specialized_chart_plane(pi, sigma_tilde, sigma, torus, coefficients)
        if not expanded_relations_vanish(relations, plane):
            return False
    return True


def test_chart_sample_matches_the_expanded_reference_on_the_fixtures():
    # every chart the verify command samples, at three seeds, and the charts
    # of seeded partitions of each full face that are not Cayley structures
    rng = random.Random(22)
    outcomes = Counter()
    for name in ("birkhoff", "five", "quartic", "square", "triangle"):
        a = config(json.loads((DATA / f"{name}.json").read_text(encoding="utf-8"))["points"])
        face, relations = full_face(a), full_basis(a)
        charts = [
            (pi, k + 1) for k in range(1, a.dimension + 1) for pi in maximal_cayley_structures(a, k)
        ]
        for _ in range(30):
            labels = [rng.randrange(3) for _ in face.indices]
            part = [[i for i, b in zip(face.indices, labels) if b == label] for label in range(3)]
            part = [block for block in part if block]
            if len(part) > 1 and not is_cayley_structure(face, part):
                charts.append((CayleyStructure(face, part), rng.randint(1, len(part))))
        for pi, size in charts:
            heads = tuple(b[0] for b in pi.blocks)
            for seed in (0, 1, 2):
                expected = reference_chart_sample(relations, pi, heads, heads[:size], 25, seed)
                got = verify_chart_sample(relations, pi, heads, heads[:size], trials=25, seed=seed)
                assert got == expected, (name, pi.blocks, size, seed)
                outcomes[expected] += 1
    assert outcomes[True] >= 100 and outcomes[False] >= 100, outcomes


@pytest.mark.parametrize("entry", [0.1, "1/3", True, None, 2 + 0j])
def test_plane_parametrization_rejects_entries_that_are_not_exact(entry):
    with pytest.raises(ValueError, match=re.escape(repr(entry))):
        PlaneParametrization(matrix=((1, entry),))


def test_plane_parametrization_holds_int_and_fraction_entries_exactly():
    plane = PlaneParametrization(matrix=((1, Fraction(-2, 6)), (0, 3)))
    assert plane.entries == (((1, 1), (-1, 3)), ((0, 1), (3, 1)))
    assert plane.matrix == ((1, Fraction(-1, 3)), (0, 3))
    assert all(type(x) is Fraction for row in plane.matrix for x in row)
    # equality is identity: a chart plane's pairs are not reduced
    twin = PlaneParametrization(matrix=((1, Fraction(-2, 6)), (0, 3)))
    assert twin != plane and twin.entries == plane.entries
    with pytest.raises(AttributeError):
        plane.entries = twin.entries


def test_sample_draws_are_the_randint_draws():
    for seed in range(1_000):
        for trial in (0, 24):
            rng = random.Random(seed * 1_000_003 + trial)
            expected = [rng.randint(1, 97) for _ in range(30)]
            assert verify._sample_draws(seed * 1_000_003 + trial, 30) == expected


# ---------------------------------------------------------------------------
# brute-force enumeration


def test_brute_force_matches_fast_on_all_faces():
    for pts in (QUARTIC, SQUARE, FIVE, birkhoff_points()):
        a = config(pts)
        for face in a.faces():
            brute = set(brute_force_cayley(a, face, 1))
            fast = set(enumerate_cayley_structures(face, 1))
            assert brute == fast, face.indices


def test_brute_force_birkhoff_top_count():
    a = config(birkhoff_points())
    found = brute_force_cayley(a, full_face(a), 2)
    assert len(found) == 6
    assert set(found) == set(enumerate_cayley_structures(full_face(a), 2))


def test_brute_force_quartic_full_face():
    a = config(QUARTIC)
    found = brute_force_cayley(a, full_face(a), 1)
    assert len(found) == 1
    assert found[0].blocks == ((0, 1), (2, 3))


def test_brute_force_empty_simplex_top_partition():
    a = config(SQUARE)
    face = a.face_from_indices((0, 1))
    found = brute_force_cayley(a, face, face.dim)
    assert len(found) == 1
    assert found[0].blocks == ((0,), (1,))


def test_brute_force_size_cap():
    pts = [(i, j) for i in range(4) for j in range(3)] + [(4, 0)]  # 13 points
    a = config(pts)
    with pytest.raises(UnsupportedSizeError):
        brute_force_cayley(a, full_face(a), 1)


def segre_points(m, n):
    """Delta_m x Delta_n in Z^(m+n): the Segre embedding of P^m x P^n."""
    def simplex(d):
        return [tuple(int(i == j) for j in range(1, d + 1)) for i in range(d + 1)]

    return [p + q for p in simplex(m) for q in simplex(n)]


def test_brute_force_reaches_the_segre_p1_p5_full_face():
    # 12 points, at the cap: the structures are the two rows P^5, and every
    # partition of the six columns P^1 into at least two blocks (Bell(6) - 1)
    a = config(segre_points(1, 5))
    assert len(a.points) == 12
    found = brute_force_cayley(a, full_face(a), 1)
    assert len(found) == 1 + 202
    assert set(found) == set(enumerate_cayley_structures(full_face(a), 1))


def brute_force_by_definition(a, face, l_min):
    """The partitions of the face's points whose blocks all pass the block-sum
    test of its relation basis, with at least ``l_min + 1`` blocks."""
    relations = relation_basis(a, face).vectors
    position = {idx: pos for pos, idx in enumerate(face.indices)}
    found = [
        CayleyStructure(face, part)
        for part in all_set_partitions(list(face.indices))
        if len(part) >= l_min + 1
        and all(verify._block_sums_to_zero(relations, position, block) for block in part)
    ]
    return sorted(found, key=lambda p: p.blocks)


@pytest.mark.parametrize("l_min", [1, 2, 3])
def test_brute_force_is_the_block_sum_filter_of_all_partitions(l_min):
    delta_2_4 = [tuple(int(t in pair) for t in range(4)) for pair in combinations(range(4), 2)]
    total = 0
    for pts in (QUARTIC, SQUARE, FIVE, birkhoff_points(), delta_2_4):
        a = config(pts)
        for face in a.faces():
            expected = brute_force_by_definition(a, face, l_min)
            assert list(brute_force_cayley(a, face, l_min)) == expected, (pts, face.indices)
            total += len(expected)
    assert total > 0


def test_brute_force_tests_each_distinct_block_once(monkeypatch):
    # the full face of the hypersimplex Delta(2,5) has Bell(10) = 115,975
    # partitions but only 2^10 - 1 distinct blocks
    a = config([tuple(int(t in pair) for t in range(5)) for pair in combinations(range(5), 2)])
    tested = Counter()
    original = verify._block_sums_to_zero

    def counted(relations, position, block):
        tested[frozenset(block)] += 1
        return original(relations, position, block)

    monkeypatch.setattr(verify, "_block_sums_to_zero", counted)
    found = brute_force_cayley(a, full_face(a), 1)
    assert tested and max(tested.values()) == 1
    assert len(tested) <= 2**10 - 1
    assert set(found) == set(enumerate_cayley_structures(full_face(a), 1))


def testall_set_partitions_count():
    assert sum(1 for _ in all_set_partitions(list(range(5)))) == 52  # Bell(5)
