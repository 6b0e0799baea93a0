"""Tests for the oracle module itself, plus the fast-vs-oracle sweeps."""

import gc
import json
import math
import pathlib
import random
import re
import weakref
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from toricfano import chart_semigroup, cli, intlinalg, verify
from toricfano.cayley import (
    CayleyStructure,
    enumerate_cayley_structures,
    is_cayley_structure,
    maximal_cayley_structures,
)
from toricfano.intlinalg import UnsupportedSizeError, is_saturated
from toricfano.pointconfig import PointConfiguration
from toricfano.verify import (
    RelationBasis,
    brute_force_cayley,
    relation_basis,
    relations_vanish_on,
    verify_cayley_plane,
    verify_chart_sample,
)

from test_intlinalg import matrix_rank
from test_pointconfig import QUARTIC, SQUARE, birkhoff_points
from test_localscheme import FIVE

DATA = pathlib.Path(__file__).parent / "data"


def config(points):
    return PointConfiguration(tuple(tuple(p) for p in points))


def specialized_chart_plane(pi, sigma_tilde, sigma, torus, coefficients):
    """The builder's plane of a chart point at given torus and coefficient
    values: the torus first, then the coefficient of (v, w), for v in sigma
    and w in sigma_tilde outside it, at the extra coordinate of
    ``chart_semigroup``'s generators labelled ("gamma2", v, u), u in w's block."""
    chart = chart_semigroup(pi, sigma_tilde, sigma)
    build, width = verify._chart_plane_builder(pi, sigma_tilde, sigma)
    dim = pi.config.ambient_dim
    rep = {pi.block_of[w]: w for w in chart.sigma_tilde}
    values = [*torus, *[None] * (width - dim)]
    for label, gen in zip(chart.labels, chart.generators):
        if label[0] == "gamma2":
            _, v, u = label
            values[dim + gen[dim:].index(1)] = coefficients[v, rep[pi.block_of[u]]]
    assert None not in values
    return build(tuple(Fraction(x).as_integer_ratio() for x in values))


def sparse_plane(rows):
    """A plane given as rows of (numerator, denominator) pairs, one per
    point, in ``relations_vanish_on``'s form: its nonzero columns, each its
    nonzero entries as (row, numerator, denominator) triples."""
    columns = (tuple((r, n, d) for r, (n, d) in enumerate(col) if n) for col in zip(*rows))
    return tuple((c, entries) for c, entries in enumerate(columns) if entries)


def as_fractions(plane):
    """The plane's entries as ``Fraction``s by (row, point), in the plane's
    order: its pairs are not reduced, so two planes are the same exactly
    when these are equal."""
    return [((r, point), Fraction(n, d)) for point, entries in plane for r, n, d in entries]


def all_set_partitions(items):
    """Every partition of the items into unordered nonempty blocks."""
    if not items:
        yield []
        return
    first = items[0]
    for part in all_set_partitions(items[1:]):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1 :]
        yield [[first]] + part


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


def test_relation_basis_computes_each_face_kernel_once(monkeypatch):
    # verify asks for every face's basis, and brute_force_cayley for its face's again
    kernels = Counter()
    kernel = verify.integer_kernel_basis

    def counted(m):
        kernels[m] += 1
        return kernel(m)

    monkeypatch.setattr(verify, "integer_kernel_basis", counted)
    a = config(birkhoff_points())
    for face in a.faces():
        first = relation_basis(a, face)
        brute_force_cayley(a, face)
        assert relation_basis(a, face.indices) == first
    assert sum(kernels.values()) == sum(1 for face in a.faces() if face.indices)
    # the memo lives on the face, so it is freed with the configuration
    gone = weakref.ref(a)
    del a, face, first
    gc.collect()
    assert gone() is None


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


def seeded_configurations():
    """Distinct points drawn from small boxes, seven at most, as configurations."""
    for seed in range(8):
        rng = random.Random(seed)
        dim = 2 + seed % 2
        points = {tuple(rng.randint(0, 2) for _ in range(dim)) for _ in range(7)}
        yield config(sorted(points))


def test_plane_check_is_the_block_sum_test_of_its_face():
    # on a genuine basis the characters agree once the blocks balance: on every
    # set partition of every face of at most seven points, the verdict is
    # whether each block sums to zero in every relation of the face's basis
    outcomes = Counter()
    fixtures = [
        config(json.loads((DATA / f"{name}.json").read_text(encoding="utf-8"))["points"])
        for name in ("birkhoff", "five", "quartic", "square", "triangle")
    ]
    for a in [*fixtures, *seeded_configurations()]:
        for face in a.faces():
            if not face.indices or len(face.indices) > 7:
                continue
            basis = relation_basis(a, face)
            position = {idx: pos for pos, idx in enumerate(face.indices)}
            for part in all_set_partitions(list(face.indices)):
                expected = all(verify._block_sums_to_zero(basis.vectors, position, b) for b in part)
                pi = CayleyStructure(face, part)
                assert verify_cayley_plane(basis, pi) == expected, (a.points, part)
                outcomes[expected] += 1
    assert outcomes[True] >= 100 and outcomes[False] >= 1_000, outcomes


def test_plane_check_compares_characters_where_the_blocks_balance():
    # a vector of the basis's shape that is no relation: it sums to zero on
    # the block of points 0 and 1, so only the characters tell it apart
    a = config(QUARTIC)
    not_a_relation = RelationBasis(face=full_face(a), vectors=((1, -1, 0, 0),))
    assert not verify_cayley_plane(not_a_relation, quartic_vertical(a))


# ---------------------------------------------------------------------------
# chart sampling


def quartic_vertical(a):
    return CayleyStructure(full_face(a), [(0, 1), (2, 3)])


def quartic_chart_plane(a):
    """The vertical structure's chart plane at the torus point (2/3, 5/7)."""
    return specialized_chart_plane(
        quartic_vertical(a), (0, 2), (0, 2), torus=(Fraction(2, 3), Fraction(5, 7)), coefficients={}
    )


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


def random_configuration(n, d, seed):
    """``n`` distinct points of {0..3}^d drawn from ``random.Random(seed)``, sorted."""
    rng, points = random.Random(seed), set()
    while len(points) < n:
        points.add(tuple(rng.randint(0, 3) for _ in range(d)))
    return config(sorted(points))


# non-Cayley partitions of a face whose planes satisfy every relation of a
# basis of the full configuration's lattice: (configuration, face, blocks)
NON_CAYLEY_WITNESSES = {
    # a unit square at height 0 under (0,0,1) and (1,1,1), split along its
    # diagonals; the basis (2,-1,-1,0,-1,1), (1,0,0,-1,-1,1) passes it
    "six points": (
        config([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 1, 1)]),
        (0, 1, 2, 3),
        [(0, 3), (1, 2)],
    ),
    "r12x5(8)": (random_configuration(12, 5, 8), (1, 3, 7), [(1,), (3, 7)]),
}


@pytest.mark.parametrize("witness", NON_CAYLEY_WITNESSES.values(), ids=NON_CAYLEY_WITNESSES.keys())
def test_non_cayley_witnesses_fail_against_their_face_basis(witness):
    # a basis vector of the full configuration that leaves the face on both
    # sides vanishes on the plane, testing nothing; the face's own basis decides
    a, indices, blocks = witness
    face = a.face_from_indices(indices)
    pi = CayleyStructure(face, blocks)
    assert not is_cayley_structure(face, blocks)
    heads = tuple(b[0] for b in pi.blocks)
    relations = relation_basis(a, face)
    assert not verify_chart_sample(relations, pi, heads, heads, trials=25, seed=0)
    assert not verify_cayley_plane(relations, pi)


def changed_basis(basis, rng):
    """The basis under a seeded unimodular change: elementary row additions and sign flips."""
    rows = [list(v) for v in basis.vectors]
    for _ in range(3 * len(rows)):
        if len(rows) > 1:
            i, j = rng.sample(range(len(rows)), 2)
            c = rng.choice((-2, -1, 1, 2))
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
        k = rng.randrange(len(rows))
        rows[k] = [-x for x in rows[k]]
    return RelationBasis(face=basis.face, vectors=tuple(map(tuple, rows)))


def test_plane_verdicts_do_not_depend_on_the_face_basis():
    # every maximal chart of the fixtures and of r12x5(1..8), and every
    # non-Cayley two-block partition of a proper face of r12x5(s) with
    # relations, under a unimodular change of its face's basis; a lattice
    # basis decides membership on the face's torus, and a chart plane's
    # support is its face
    rng = random.Random(12)
    fixtures = [
        config(json.loads((DATA / f"{name}.json").read_text(encoding="utf-8"))["points"])
        for name in ("birkhoff", "five", "quartic", "square", "triangle")
    ]
    samples = [*fixtures, *(random_configuration(12, 5, s) for s in range(1, 9))]
    outcomes = Counter()
    for a in samples:
        charts = []
        for k in range(1, a.dimension + 1):
            for pi in maximal_cayley_structures(a, k):
                heads = tuple(b[0] for b in pi.blocks)
                charts.append((pi, heads, heads[: k + 1]))
        for face in a.faces():
            if len(face.indices) == len(a.points) or not relation_basis(a, face).vectors:
                continue
            first, rest = face.indices[0], face.indices[1:]
            for size in range(len(rest)):
                for chosen in combinations(rest, size):
                    part = [(first, *chosen), tuple(i for i in rest if i not in chosen)]
                    if not is_cayley_structure(face, part):
                        heads = (first, part[1][0])
                        charts.append((CayleyStructure(face, part), heads, heads))
        for pi, sigma_tilde, sigma in charts:
            basis = relation_basis(a, pi.face)
            if not basis.vectors:  # the empty basis is the face's only one
                continue
            other = changed_basis(basis, rng)
            verdict = verify_chart_sample(basis, pi, sigma_tilde, sigma, trials=3, seed=0)
            assert verify_chart_sample(other, pi, sigma_tilde, sigma, trials=3, seed=0) == verdict
            is_cayley = is_cayley_structure(pi.face, pi.blocks)
            assert verify_cayley_plane(other, pi) == verify_cayley_plane(basis, pi) == is_cayley
            outcomes[verdict, pi in a.cayley_poset.maximal] += 1
    # no maximal chart fails, and every non-Cayley partition does
    assert set(outcomes) == {(True, True), (False, False)}, outcomes
    assert outcomes[True, True] >= 50 and outcomes[False, False] >= 1_000, outcomes


def test_chart_sample_deterministic_per_seed():
    a = config(QUARTIC)
    pi = quartic_vertical(a)
    first = verify_chart_sample(full_basis(a), pi, (0, 2), (0, 2), trials=5, seed=11)
    second = verify_chart_sample(full_basis(a), pi, (0, 2), (0, 2), trials=5, seed=11)
    assert first is True and second is True


def test_specialized_plane_shape_and_rank():
    a = config(QUARTIC)
    plane = quartic_chart_plane(a)
    # identity on the sigma columns, character values elsewhere on the face,
    # and every other entry zero, so left out
    assert as_fractions(plane) == [
        ((0, 0), 1),
        ((0, 1), Fraction(5, 7)),
        ((1, 2), 1),
        ((1, 3), Fraction(5, 7) ** 2),
    ]
    assert relations_vanish_on(relation_basis(a, full_face(a)), plane)
    # the plane's support is the full face, so it is not a plane of face (0, 1)
    assert not relations_vanish_on(relation_basis(a, (0, 1)), plane)


def test_corrupted_chart_detected():
    a = config(QUARTIC)
    plane = quartic_chart_plane(a)
    (_, ((row, n, d),)) = plane[3]
    # perturb one character exponent's worth of value
    corrupted = (*plane[:3], (3, ((row, 3 * n, d),)))
    assert not relations_vanish_on(relation_basis(a, full_face(a)), corrupted)


def sigma_columns_are_identity(plane, sigma):
    """Whether the plane's column of the r-th point of sigma is 1 in row r alone."""
    columns = dict(plane)
    return all(columns.get(v) == ((row, 1, 1),) for row, v in enumerate(sigma))


@pytest.mark.parametrize(
    "matrix",
    [
        # some rows are alone nonzero in a column, but not every row is
        ((1, 0, 0), (0, 1, 2), (0, 2, 4)),
        ((0, 0), (1, 1)),
    ],
)
def test_diagonal_minor_rejects_partial_certificates(matrix):
    # the unit-column check that stands for the diagonal-minor certificate
    # rejects a chart plane of B_3 whose sigma columns are such a pattern
    a = config(birkhoff_points())
    k = len(matrix) - 1
    pi = maximal_cayley_structures(a, k)[0]
    heads = tuple(b[0] for b in pi.blocks)
    sigma = heads[: k + 1]
    build, width = verify._chart_plane_builder(pi, heads, sigma)
    plane = build(verify._trial_pairs(0, 0, width))
    assert sigma_columns_are_identity(plane, sigma)
    patch = {
        v: tuple((row, x, 1) for row, x in enumerate(col) if x)
        for v, col in zip(sigma, zip(*matrix, strict=True), strict=True)
    }
    patched = tuple((point, patch.get(point, column)) for point, column in plane)
    assert not sigma_columns_are_identity(patched, sigma)


def test_sigma_columns_are_unit_columns_in_their_own_rows():
    # the full-row-rank certificate every chart plane carries: each point of
    # sigma has the zero generator, so its column is 1 in its own row alone,
    # on every maximal chart of the fixtures and of r12x5(1..8) at two trials
    fixtures = [
        config(json.loads((DATA / f"{name}.json").read_text(encoding="utf-8"))["points"])
        for name in ("birkhoff", "five", "quartic", "square", "triangle")
    ]
    charts = 0
    for a in [*fixtures, *(random_configuration(12, 5, s) for s in range(1, 9))]:
        for k in range(1, a.dimension + 1):
            for pi in maximal_cayley_structures(a, k):
                heads = tuple(b[0] for b in pi.blocks)
                build, width = verify._chart_plane_builder(pi, heads, heads[: k + 1])
                for trial in range(2):
                    plane = build(verify._trial_pairs(0, trial, width))
                    assert sigma_columns_are_identity(plane, heads[: k + 1]), (a.points, pi.blocks, trial)
                charts += 1
    assert charts >= 50, charts


def test_chart_sample_respects_chart_validation():
    a = config(QUARTIC)
    with pytest.raises(ValueError):
        verify_chart_sample(full_basis(a), quartic_vertical(a), (0, 1), (0, 1), trials=1, seed=0)


def test_chart_sample_rejects_a_foreign_or_partial_basis():
    a = config(birkhoff_points())
    pi = CayleyStructure(full_face(a), [(0, 3), (1, 4), (2, 5)])
    # the same structure over B_3 with its first coordinate doubled
    doubled = config([(2 * p[0],) + tuple(p[1:]) for p in birkhoff_points()])
    with pytest.raises(ValueError, match="different face"):
        verify_chart_sample(full_basis(doubled), pi, (1, 2, 3), (1, 2, 3), trials=1)
    with pytest.raises(ValueError, match="different face"):
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


def test_chart_sample_errors_come_before_any_memoized_draw(monkeypatch):
    # a draw served from the memo constructs no generator, so watch the memo
    def no_draw(seed, trial, count):
        raise AssertionError("read the draws before rejecting the input")

    monkeypatch.setattr(verify, "_trial_pairs", no_draw)
    a = config(QUARTIC)
    for sigma_tilde, sigma, trials in (((0, 1), (0, 1), 3), ((0, 2), (0, 1), 3), ((0, 2), (0, 2), 0)):
        with pytest.raises(ValueError):
            verify_chart_sample(full_basis(a), quartic_vertical(a), sigma_tilde, sigma, trials=trials)


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
        assert list(map(as_fractions, sampled)) == list(map(as_fractions, expected))
        entries = [entry for p in sampled for _, column in p for entry in column]
        assert all(type(n) is int and type(d) is int and n and d > 0 for _, n, d in entries)


def test_a_repeated_index_changes_no_sampled_plane(monkeypatch):
    # the draws are keyed by the chart data without repeats
    a = config(birkhoff_points())
    pi = CayleyStructure(full_face(a), [(0, 3), (1, 4), (2, 5)])
    sampled = []
    original = verify.relations_vanish_on

    def recorded(rels, plane):
        sampled.append(plane)
        return original(rels, plane)

    monkeypatch.setattr(verify, "relations_vanish_on", recorded)
    for sigma_tilde, sigma in (((0, 1, 2), (0, 1)), ((0, 1, 2), (0, 1, 0)), ((2, 0, 1, 0), (1, 0))):
        assert verify_chart_sample(full_basis(a), pi, sigma_tilde, sigma, trials=1)
    assert len(sampled) == 3 and sampled[0] == sampled[1] == sampled[2]


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


def test_verify_draws_each_trial_stream_once_for_all_charts(monkeypatch):
    # every chart's trial i reads a prefix of one stream, and the 39 charts of
    # B_3 need four prefix lengths: 4 x 25 generators, where one per chart and
    # trial made 975
    verify._trial_pairs.cache_clear()
    made = Counter()

    class Counted(random.Random):
        def __init__(self, *args):
            made["Random"] += 1
            super().__init__(*args)

    monkeypatch.setattr(random, "Random", Counted)
    charts = Counter()
    original = verify.verify_chart_sample

    def counted(*args, **kwargs):
        charts["charts"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "verify_chart_sample", counted)
    a = config(birkhoff_points())
    report = cli.verify_report(a, None, {}, 0, 25)
    assert report["passed"]
    assert charts["charts"] == 39
    assert 0 < made["Random"] <= 100, made


def delta_2_5():
    """Delta(2, 5), the 0/1 vectors of Z^5 with two ones."""
    return config([tuple(int(i in pair) for i in range(5)) for pair in combinations(range(5), 2)])


@pytest.mark.parametrize("make", [lambda: config(birkhoff_points()), delta_2_5], ids=["B_3", "Delta(2,5)"])
def test_both_plane_checks_sample_the_reported_chart(monkeypatch, make):
    # the plane checks read chart_semigroup's own generators: shift the last
    # point's generators by the first unit vector, and both checks fail, each
    # naming a witness, while the checks that build no plane still pass
    a = make()
    moved, original = len(a.points) - 1, verify.chart_semigroup

    def shifted(pi, sigma_tilde, sigma):
        chart = original(pi, sigma_tilde, sigma)
        gens = [
            (g[0] + 1, *g[1:]) if label[-1] == moved else g for label, g in zip(chart.labels, chart.generators)
        ]
        fields = {name: getattr(chart, name) for name in chart._fields}
        return type(chart)(**{**fields, "generators": tuple(gens)})

    assert cli.verify_report(a, None, {}, 0, 25)["passed"]
    monkeypatch.setattr(verify, "chart_semigroup", shifted)
    report = cli.verify_report(a, None, {}, 0, 25)
    checks = {c["name"]: c for c in report["checks"]}
    assert report["passed"] is False
    assert checks["relation_basis_valid"]["pass"] and checks["brute_force_matches_fast"]["pass"]
    for name in ("cayley_planes_on_variety", "chart_samples_on_variety"):
        assert checks[name]["pass"] is False and "blocks" in checks[name]["detail"], checks[name]


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


def _column_form(plane, col: int) -> dict:
    nrows = len(plane)
    return {
        tuple(1 if r == i else 0 for r in range(nrows)): Fraction(*plane[i][col])
        for i in range(nrows)
        if plane[i][col][0]
    }


def expanded_relations_vanish(relations: RelationBasis, plane) -> bool:
    """Reference for ``relations_vanish_on``: the plane's nonzero columns are
    the face's points, and both sides of every relation, expanded as
    polynomials in the row variables, are equal."""
    nrows = len(plane)
    support = tuple(col for col in range(len(plane[0])) if any(row[col][0] for row in plane))
    if support != relations.face.indices:
        return False
    one = {(0,) * nrows: Fraction(1)}
    forms = [_column_form(plane, col) for col in relations.face.indices]
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
    multiples of one row variable (as in chart planes) and generic columns,
    as rows of (numerator, denominator) pairs; None when the draw is rank
    deficient."""
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
    return as_plane(columns, nrows)


def orbit_plane(rng: random.Random, points):
    """A seeded plane whose column for each point is that point's character at
    a random torus point times one of a few nonzero shared forms: it lies on
    the variety when every relation sums to zero over the points sharing a
    form, unless two forms are proportional; half of the draws then double
    one column.  None when the draw is rank deficient."""
    nrows = rng.randint(1, 3)
    shared, count = [], rng.randint(1, 3)
    while len(shared) < count:
        form = [rng.randint(-2, 2) for _ in range(nrows)]
        if any(form):
            shared.append(form)
    torus = [Fraction(rng.randint(1, 5), rng.randint(1, 5)) for _ in points[0]]
    columns = []
    for p in points:
        char = math.prod(x**e for x, e in zip(torus, p))
        columns.append([char * x for x in rng.choice(shared)])
    if rng.random() < 0.5:
        col = rng.randrange(len(columns))
        columns[col] = [2 * x for x in columns[col]]
    return as_plane(columns, nrows)


def as_plane(columns, nrows):
    """The columns as rows of (numerator, denominator) pairs; None when they
    span fewer than ``nrows`` dimensions."""
    rows = [[Fraction(x) for x in row] for row in zip(*columns)]
    scales = [math.lcm(*(x.denominator for x in row)) for row in rows]
    if matrix_rank([[int(x * c) for x in row] for row, c in zip(rows, scales)]) < nrows:
        return None
    return tuple(tuple(x.as_integer_ratio() for x in row) for row in rows)


def test_factorization_matches_expansion_on_random_planes():
    rng = random.Random(2016)
    outcomes = Counter()
    for pts in (QUARTIC, SQUARE, FIVE, birkhoff_points()):
        a = config(pts)
        relations = full_basis(a)
        for _ in range(400):
            for plane in (random_plane(rng, len(a.points)), orbit_plane(rng, a.points)):
                if plane is None:
                    continue
                expected = expanded_relations_vanish(relations, plane)
                assert relations_vanish_on(relations, sparse_plane(plane)) == expected, (pts, plane)
                outcomes[expected] += 1
    assert outcomes[True] >= 100 and outcomes[False] >= 100, outcomes


def reference_chart_sample(relations, pi, sigma_tilde, sigma, trials, seed):
    """``verify_chart_sample`` by its definition: each trial's plane built
    from its draws by ``defined_chart_plane`` and decided by expansion."""
    for trial in range(trials):
        torus, coefficients = trial_draws(pi, sigma_tilde, sigma, seed, trial)
        rows = defined_rows(pi, sigma_tilde, sigma, torus, coefficients)
        if not expanded_relations_vanish(relations, rows):
            return False
    return True


def trial_draws(pi, sigma_tilde, sigma, seed, trial):
    """The trial's torus point and coefficients as ``Fraction``s, drawn from
    ``random.Random(seed * 1_000_003 + trial)``, each numerator before its
    denominator: the torus first, then (v, w) for v in sigma and w in
    sigma_tilde outside it, both sorted."""
    rng = random.Random(seed * 1_000_003 + trial)

    def draw():
        return Fraction(rng.randint(1, 97), rng.randint(1, 97))

    torus = [draw() for _ in range(pi.config.ambient_dim)]
    outside = [w for w in sorted(set(sigma_tilde)) if w not in sigma]
    return torus, {(v, w): draw() for v in sorted(set(sigma)) for w in outside}


def defined_rows(pi, sigma_tilde, sigma, torus, coefficients):
    """``defined_chart_plane`` as rows of (numerator, denominator) pairs."""
    plane = defined_chart_plane(pi, sigma_tilde, sigma, torus, coefficients)
    return tuple(tuple(x.as_integer_ratio() for x in row) for row in plane)


def defined_chart_plane(pi, sigma_tilde, sigma, torus, coefficients):
    """The chart plane by its definition, in ``Fraction``s: the column of a
    face point carries its offset's character from its block's representative
    in sigma_tilde, in that representative's row when it lies in sigma and in
    every row v times the coefficient (v, representative) when it does not;
    columns off the face are zero."""
    a, s = pi.config, sorted(sigma)
    rep = {pi.block_of[w]: w for w in sigma_tilde}
    rows = [[Fraction(0)] * len(a.points) for _ in s]
    for idx in pi.face.indices:
        r = rep[pi.block_of[idx]]
        char = math.prod(Fraction(x) ** (p - q) for x, p, q in zip(torus, a.points[idx], a.points[r]))
        for row, v in zip(rows, s):
            row[idx] = (char if v == r else 0) if r in s else char * coefficients[(v, r)]
    return tuple(map(tuple, rows))


def test_chart_planes_are_the_defined_planes():
    # the references above build their planes through _chart_plane_builder,
    # so hold it to the definition: every chart the verify command samples,
    # and the charts of seeded partitions of each full face, at positive values
    rng = random.Random(34)

    def value():
        return Fraction(rng.randint(1, 9), rng.randint(1, 7))

    planes = 0
    for name in ("birkhoff", "five", "quartic", "square", "triangle"):
        a = config(json.loads((DATA / f"{name}.json").read_text(encoding="utf-8"))["points"])
        face = full_face(a)
        charts = [(pi, k + 1) for k in range(1, a.dimension + 1) for pi in maximal_cayley_structures(a, k)]
        for _ in range(10):
            labels = [rng.randrange(3) for _ in face.indices]
            part = [[i for i, b in zip(face.indices, labels) if b == label] for label in range(3)]
            part = [block for block in part if block]
            charts.append((CayleyStructure(face, part), rng.randint(1, len(part))))
        for pi, size in charts:
            heads = tuple(b[0] for b in pi.blocks)
            sigma = heads[:size]
            for _ in range(3):
                torus = [value() for _ in range(a.ambient_dim)]
                coefficients = {(v, w): value() for v in sigma for w in heads if w not in sigma}
                got = specialized_chart_plane(pi, heads, sigma, torus, coefficients)
                defined = defined_rows(pi, heads, sigma, torus, coefficients)
                assert as_fractions(got) == as_fractions(sparse_plane(defined))
                planes += 1
    assert planes >= 100, planes


def test_defined_chart_planes_keep_their_verdict_in_the_sparse_form():
    # every maximal chart of the fixtures and of r12x5(1..8), and every
    # non-Cayley two-block partition of a proper face with relations, at two
    # trials' draws: the defined plane in rows, decided by expansion and,
    # through sparse_plane, by relations_vanish_on, and the builder's plane
    fixtures = [
        config(json.loads((DATA / f"{name}.json").read_text(encoding="utf-8"))["points"])
        for name in ("birkhoff", "five", "quartic", "square", "triangle")
    ]
    outcomes = Counter()
    for a in [*fixtures, *(random_configuration(12, 5, s) for s in range(1, 9))]:
        charts = []
        for k in range(1, a.dimension + 1):
            for pi in maximal_cayley_structures(a, k):
                heads = tuple(b[0] for b in pi.blocks)
                charts.append((pi, heads, heads[: k + 1]))
        for face in a.faces():
            if len(face.indices) == len(a.points) or not relation_basis(a, face).vectors:
                continue
            first, rest = face.indices[0], face.indices[1:]
            for size in range(len(rest)):
                for chosen in combinations(rest, size):
                    part = [(first, *chosen), tuple(i for i in rest if i not in chosen)]
                    if not is_cayley_structure(face, part):
                        heads = (first, part[1][0])
                        charts.append((CayleyStructure(face, part), heads, heads[:1]))
        for pi, sigma_tilde, sigma in charts:
            relations = relation_basis(a, pi.face)
            for trial in range(2):
                torus, coefficients = trial_draws(pi, sigma_tilde, sigma, 0, trial)
                rows = defined_rows(pi, sigma_tilde, sigma, torus, coefficients)
                built = specialized_chart_plane(pi, sigma_tilde, sigma, torus, coefficients)
                verdict = relations_vanish_on(relations, sparse_plane(rows))
                assert relations_vanish_on(relations, built) == verdict
                assert expanded_relations_vanish(relations, rows) == verdict, (a.points, pi.blocks)
                outcomes[verdict] += 1
    assert outcomes[True] >= 100 and outcomes[False] >= 1_000, outcomes


def test_chart_sample_matches_the_expanded_reference_on_the_fixtures():
    # every chart the verify command samples, at three seeds, and the charts
    # of seeded partitions of each full face that are not Cayley structures
    rng = random.Random(22)
    outcomes = Counter()
    for name in ("birkhoff", "five", "quartic", "square", "triangle"):
        a = config(json.loads((DATA / f"{name}.json").read_text(encoding="utf-8"))["points"])
        face = full_face(a)
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
            heads, relations = tuple(b[0] for b in pi.blocks), relation_basis(a, pi.face)
            for seed in (0, 1, 2):
                expected = reference_chart_sample(relations, pi, heads, heads[:size], 25, seed)
                got = verify_chart_sample(relations, pi, heads, heads[:size], trials=25, seed=seed)
                assert got == expected, (name, pi.blocks, size, seed)
                outcomes[expected] += 1
    assert outcomes[True] >= 100 and outcomes[False] >= 100, outcomes


# a column's entries in place of ((1, 25, 49),), the first of them bad
NOT_INT_PAIRS = {
    "float": (0.5,),
    "float numerator": ((1, 0.5, 1),),
    "bool": (True,),
    "bool numerator": ((1, True, 1),),
    "bool denominator": ((1, 1, False),),
    "zero denominator": ((1, 1, 0),),
    "negative denominator": ((1, 1, -7),),
    "Fraction": (Fraction(1, 2),),
    "triple": (1, 25, 49),  # a bare triple, not a tuple of them
    "None": (None,),
    "string": ("1/3",),
    "complex": (2 + 0j,),
    "pair": ((25, 49),),  # no row
    "quadruple": ((1, 25, 49, 1),),
    "list": ([1, 25, 49],),
    "bool row": ((True, 25, 49),),
    "float row": ((1.0, 25, 49),),
    "negative row": ((-1, 25, 49),),
    "zero numerator": ((1, 0, 49),),
}


@pytest.mark.parametrize("entries", NOT_INT_PAIRS.values(), ids=NOT_INT_PAIRS.keys())
def test_relations_vanish_on_rejects_entries_that_are_not_int_pairs(entries):
    # an entry is a (row, numerator, denominator) triple of ints, its
    # numerator nonzero and its denominator positive
    a = config(QUARTIC)
    plane = quartic_chart_plane(a)
    assert relations_vanish_on(full_basis(a), plane)
    assert as_fractions(plane[3:]) == [((1, 3), Fraction(25, 49))]
    named = re.escape(f"plane entry {entries[0]!r} in column 3 ")
    with pytest.raises(ValueError, match=named):
        relations_vanish_on(full_basis(a), (*plane[:3], (3, entries)))


@pytest.mark.parametrize(
    "entries, bad",
    [
        (((0, 5, 7), (0, 1, 1)), (0, 1, 1)),  # repeated
        (((1, 5, 7), (0, 1, 1)), (0, 1, 1)),  # descending
        (((0, 5, 7), (1, 2, 3), (1, 5, 7)), (1, 5, 7)),
    ],
    ids=["repeated", "descending", "repeated last"],
)
def test_relations_vanish_on_rejects_a_row_repeated_within_a_column(entries, bad):
    # each column lists its rows in increasing order, so no row twice
    a = config(QUARTIC)
    plane = quartic_chart_plane(a)
    with pytest.raises(ValueError, match=re.escape(f"plane entry {bad!r} in column 1 ")):
        relations_vanish_on(full_basis(a), (plane[0], (1, entries), *plane[2:]))


@settings(max_examples=200, deadline=None)
@given(
    order=st.lists(st.integers(0, 3), min_size=1, max_size=6),
    extra=st.sampled_from([None, -1, 4, 9, True, 1.0, "1"]),
    malformed=st.sampled_from([None, "list", "no entries"]),
    at=st.integers(0, 5),
)
def test_relations_vanish_on_rejects_columns_out_of_order_or_range(order, extra, malformed, at):
    # the columns are (point, entries) pairs in strictly increasing point
    # order, each point one of the configuration's; the first column that is
    # not is named, and no column before it is
    a = config(QUARTIC)
    plane = quartic_chart_plane(a)
    columns = [plane[i] for i in order]
    if extra is not None:
        columns.insert(min(at, len(columns)), (extra, ((0, 1, 1),)))
    if malformed is not None:
        point, entries = columns[min(at, len(columns) - 1)]
        columns[min(at, len(columns) - 1)] = {
            "list": [point, entries],
            "no entries": (point, ()),
        }[malformed]
    previous = -1
    for column in columns:
        point = column[0] if type(column) is tuple and len(column) == 2 else None
        if not (type(point) is int and previous < point < 4 and type(column[1]) is tuple and column[1]):
            break
        previous = point
    else:
        assume(False)  # every column in order and in range: a plane, checked elsewhere
    with pytest.raises(ValueError, match=re.escape(f"plane column {column!r} is not")):
        relations_vanish_on(full_basis(a), tuple(columns))


@pytest.mark.parametrize("length", [3, 5])
def test_relations_vanish_on_rejects_a_row_of_the_wrong_length(length):
    # a dense row of (numerator, denominator) pairs, one per point or not,
    # is not a column: it is named, after the column before it is read
    a = config(QUARTIC)
    plane = quartic_chart_plane(a)
    row = ((0, 1), (5, 7), (0, 1), (25, 49), (0, 1))[:length]
    with pytest.raises(ValueError, match=re.escape(f"plane column {row!r} is not")):
        relations_vanish_on(full_basis(a), (plane[0], row, *plane[2:]))


@pytest.mark.parametrize(
    "vectors, blocks",
    [
        (lambda vec: ((*vec, 1),), [(0, 3), (1, 4), (2, 5)]),
        (lambda vec: ((0, 0, 0, 0),), [(0, 1), (2, 3), (4, 5)]),
    ],
    ids=["a 7th entry", "all zero, 4 entries"],
)
def test_relations_vanish_on_rejects_a_relation_vector_of_the_wrong_length(vectors, blocks):
    # each relation vector has one entry per point of the face: zipped with
    # the plane's columns, a longer one was cut short and a shorter one read
    # only a prefix, so B_3's basis with a 7th entry passed the row
    # projection, and one all-zero 4-entry vector a non-Cayley partition
    a = config(birkhoff_points())
    face = full_face(a)
    pi = CayleyStructure(face, blocks)
    changed = RelationBasis(face=face, vectors=vectors(relation_basis(a, face).vectors[0]))
    assert verify_cayley_plane(relation_basis(a, face), pi) == is_cayley_structure(face, blocks)
    with pytest.raises(ValueError, match=re.escape(f"relation vector {changed.vectors[0]!r} has ")):
        verify_cayley_plane(changed, pi)


def test_sample_draws_are_the_randint_draws():
    for seed in range(1_000):
        for trial in (0, 24):
            rng = random.Random(seed * 1_000_003 + trial)
            expected = [rng.randint(1, 97) for _ in range(30)]
            assert verify._sample_draws(seed * 1_000_003 + trial, 30) == tuple(expected)


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
