"""Tests for component-level data of the k-plane scheme."""

from collections import Counter

import pytest

from toricfano.cayley import CayleyStructure, is_cayley_structure, leq
from toricfano.components import (
    ChartSemigroup,
    chart_generators_reduced,
    chart_is_smooth,
    chart_semigroup,
    component_dimension,
    component_fixed_points,
    component_id,
    component_points,
    components,
    components_intersection,
    connectivity_graph,
    is_covered_by_k_planes,
)
from toricfano.intlinalg import matrix_rank
from toricfano.pointconfig import PointConfiguration

from test_acceptance import CASES
from test_intlinalg import affine_unimodular_equivalent, cone_is_pointed
from test_pointconfig import QUARTIC, SQUARE, birkhoff_points

HEX7 = [(0, 0), (0, 1), (0, -1), (1, 0), (1, 1), (-1, 0), (-1, -1)]


def full_face(config):
    return config.face_from_indices(range(len(config.points)))


def square_x_structure():
    config = PointConfiguration(SQUARE)
    return CayleyStructure(full_face(config), [[0, 1], [2, 3]])


def quartic_vertical():
    config = PointConfiguration(QUARTIC)
    return CayleyStructure(full_face(config), [[0, 1], [2, 3]])


def birkhoff_row0_structure():
    config = PointConfiguration(birkhoff_points())
    pi = CayleyStructure(full_face(config), [[0, 3], [1, 4], [2, 5]])
    assert is_cayley_structure(pi.face, pi.blocks)
    return pi


def birkhoff_facet_structure():
    config = PointConfiguration(birkhoff_points())
    face = config.face_from_indices((1, 2, 4, 5))
    assert face.dim == 3
    return CayleyStructure(face, [[1], [2], [4], [5]])


def test_component_dimension_formula():
    assert component_dimension(birkhoff_row0_structure(), 2) == 2
    assert component_dimension(birkhoff_facet_structure(), 2) == 3
    assert component_dimension(birkhoff_facet_structure(), 3) == 0
    config = PointConfiguration(SQUARE)
    edge = CayleyStructure(config.face_from_indices((0, 1)), [[0], [1]])
    assert component_dimension(edge, 1) == 0
    with pytest.raises(ValueError):
        component_dimension(edge, 2)


def test_components_square():
    comps = components(PointConfiguration(SQUARE), 1)
    assert len(comps) == 2
    assert [c.dimension for c in comps] == [1, 1]
    assert len({c.id for c in comps}) == 2
    # ids are stable across recomputation
    assert [c.id for c in comps] == [component_id(c.pi) for c in comps]


def test_components_quartic():
    comps = components(PointConfiguration(QUARTIC), 1)
    assert len(comps) == 3
    dims = sorted(c.dimension for c in comps)
    assert dims == [0, 0, 1]
    for c in comps:
        if c.dimension == 1:
            assert c.pi.blocks == ((0, 1), (2, 3))


def test_components_birkhoff_dimensions():
    config = PointConfiguration(birkhoff_points())
    comps2 = components(config, 2)
    assert Counter(c.dimension for c in comps2) == {2: 6, 3: 9}
    comps3 = components(config, 3)
    assert Counter(c.dimension for c in comps3) == {0: 9}


def test_components_requires_positive_k():
    with pytest.raises(ValueError):
        components(PointConfiguration(SQUARE), 0)


def test_component_points_square_projection():
    points = component_points(square_x_structure()).points
    assert points == ((1, 0), (1, 1), (1, 2))


def test_component_points_singleton_structure():
    config = PointConfiguration(SQUARE)
    edge = CayleyStructure(config.face_from_indices((0, 1)), [[0], [1]])
    assert component_points(edge).points == ((0, 1),)


def test_component_points_birkhoff_projection_is_hexagon_with_center():
    pts = component_points(birkhoff_row0_structure()).points
    assert len(pts) == 7
    assert affine_unimodular_equivalent(pts, HEX7)


def test_component_points_span_the_family_of_l_planes():
    # the toric variety of component_points(pi) is the component for k = l
    count = 0
    for _, points in CASES:
        for pi in PointConfiguration(points).cayley_poset.maximal:
            assert component_points(pi).dimension == component_dimension(pi, pi.l), pi
            count += 1
    assert count >= 100, count


def test_component_fixed_points_quartic_vertical():
    fps = component_fixed_points(quartic_vertical(), 1)
    assert [f.indices for f in fps] == [(0, 2), (1, 3)]


def test_component_fixed_points_quartic_edges():
    config = PointConfiguration(QUARTIC)
    left = CayleyStructure(config.face_from_indices((0, 1)), [[0], [1]])
    assert [f.indices for f in component_fixed_points(left, 1)] == [(0, 1)]


def test_component_fixed_points_birkhoff_facet():
    fps = component_fixed_points(birkhoff_facet_structure(), 3)
    assert [f.indices for f in fps] == [(1, 2, 4, 5)]


def test_fixed_point_partition():
    # every torus-fixed point of the ambient scheme lies on some component
    for points, k in ((SQUARE, 1), (QUARTIC, 1)):
        config = PointConfiguration(points)
        union = set()
        for c in components(config, k):
            union.update(f.indices for f in c.fixed_points)
        assert union == {f.indices for f in config.fixed_point_faces(k)}


def test_chart_semigroup_birkhoff_projection():
    pi = birkhoff_row0_structure()
    config = pi.config
    chart = chart_semigroup(pi, (1, 2, 3), (1, 2, 3))
    assert chart.ambient_rank == 4
    p = config.points

    def diff(i, j):
        return tuple(a - b for a, b in zip(p[i], p[j]))

    expected = {
        ("gamma", 0): diff(0, 3),
        ("gamma", 1): (0,) * 9,
        ("gamma", 2): (0,) * 9,
        ("gamma", 3): (0,) * 9,
        ("gamma", 4): diff(4, 1),
        ("gamma", 5): diff(5, 2),
    }
    assert dict(zip(chart.labels, chart.generators)) == expected
    # one generator is the sum of the other two: a free rank-2 chart
    g0, g4, g5 = (expected[("gamma", i)] for i in (0, 4, 5))
    assert g0 == tuple(a + b for a, b in zip(g4, g5))
    assert matrix_rank(chart.generators) == component_dimension(pi, 2) == 2
    assert chart_is_smooth(chart)


def test_chart_semigroup_with_extra_coordinates():
    pi = birkhoff_facet_structure()
    chart = chart_semigroup(pi, (1, 2, 4, 5), (1, 2, 4))
    assert chart.ambient_rank == 4 + 3
    nonzero = sorted(g for g in chart.generators if any(g))
    # all points are their own representatives, so the only nonzero
    # generators are the three unit vectors in the extra coordinates
    units = sorted(
        (0,) * 9 + tuple(1 if i == j else 0 for j in range(3)) for i in range(3)
    )
    assert nonzero == units
    assert matrix_rank(chart.generators) == component_dimension(pi, 2) == 3
    assert chart_is_smooth(chart)
    labels = {lab for lab, g in zip(chart.labels, chart.generators) if any(g)}
    assert labels == {("gamma2", 1, 5), ("gamma2", 2, 5), ("gamma2", 4, 5)}


def test_chart_semigroup_pointed_at_face():
    # the supporting functional of the chart's base face is strictly
    # positive on every nonzero generator
    pi = birkhoff_row0_structure()
    chart = chart_semigroup(pi, (1, 2, 3), (1, 2, 3))
    face = pi.config.face_from_indices((1, 2, 3))
    w = face.witness
    for g in chart.generators:
        if any(g):
            assert sum(a * b for a, b in zip(w, g)) > 0


def test_chart_semigroup_validation():
    pi = square_x_structure()
    with pytest.raises(ValueError):
        chart_semigroup(pi, (0, 1), (0, 1))  # two points from one block
    with pytest.raises(ValueError):
        chart_semigroup(pi, (0, 2), (0, 1))  # sigma not inside sigma_tilde
    config = PointConfiguration(SQUARE)
    edge = CayleyStructure(config.face_from_indices((0, 1)), [[0], [1]])
    with pytest.raises(ValueError):
        chart_semigroup(edge, (0, 2), (0, 2))  # transversal leaves the face


def test_chart_zero_generators_is_smooth():
    config = PointConfiguration(SQUARE)
    edge = CayleyStructure(config.face_from_indices((0, 1)), [[0], [1]])
    chart = chart_semigroup(edge, (0, 1), (0, 1))
    assert all(not any(g) for g in chart.generators)
    assert chart_is_smooth(chart)


def _manual_chart(generators):
    pi = square_x_structure()
    return ChartSemigroup(
        pi=pi,
        sigma_tilde=(0, 2),
        sigma=(0, 2),
        generators=tuple(tuple(g) for g in generators),
        labels=tuple(("gamma", i) for i in range(len(generators))),
        ambient_rank=2,
    )


def test_chart_is_smooth_rejects_non_free_semigroup():
    assert not chart_is_smooth(_manual_chart([(2, 0), (3, 0)]))


def test_chart_is_smooth_requires_direct_summand():
    assert not chart_is_smooth(_manual_chart([(2, 0)]))
    assert chart_is_smooth(_manual_chart([(1, 0)]))


def test_chart_is_smooth_hand_cases_stay_non_smooth():
    # (2,) spans Z^1 rationally but generates 2Z: not saturated
    config = PointConfiguration([(0,), (1,)])
    edge = CayleyStructure(full_face(config), [[0], [1]])
    chart = ChartSemigroup(
        pi=edge,
        sigma_tilde=(0, 1),
        sigma=(0, 1),
        generators=((2,),),
        labels=(("gamma", 1),),
        ambient_rank=1,
    )
    assert chart_generators_reduced(chart) == ((2,),)
    assert not chart_is_smooth(chart)
    # no generator is a sum of two others, and no pair is a free basis
    assert not chart_is_smooth(_manual_chart([(1, 0), (1, 1), (1, 2)]))


def test_chart_is_smooth_reduces_generators():
    chart = _manual_chart([(1, 0), (2, 0), (0, 1), (1, 1)])
    assert chart_is_smooth(chart)
    assert chart_generators_reduced(chart) == ((0, 1), (1, 0), (1, 1), (2, 0))


def test_intersection_with_self():
    config = PointConfiguration(QUARTIC)
    pi = quartic_vertical()
    assert components_intersection(config, pi, pi, 1) == (pi,)


def test_intersection_respects_containment():
    config = PointConfiguration(QUARTIC)
    pi = quartic_vertical()
    bottom = CayleyStructure(config.face_from_indices((0, 2)), [[0], [2]])
    assert leq(bottom, pi)
    assert components_intersection(config, pi, bottom, 1) == (bottom,)
    assert components_intersection(config, bottom, pi, 1) == (bottom,)


def test_intersection_of_square_rulings_is_empty():
    config = PointConfiguration(SQUARE)
    comps = components(config, 1)
    assert len(comps) == 2
    inter = components_intersection(config, comps[0].pi, comps[1].pi, 1)
    assert inter == ()


def test_components_and_intersections_walk_down_from_their_faces(monkeypatch):
    # once maximality is built, fixed points and intersections read the faces
    # inside a face from the face lattice, and no call scans every face
    a = PointConfiguration(birkhoff_points())
    a.cayley_poset.maximal
    calls = Counter()

    def counted(name):
        scan = getattr(PointConfiguration, name)

        def wrapper(self, *args):
            calls[name] += 1
            return scan(self, *args)

        return wrapper

    for name in ("faces", "fixed_point_faces"):
        monkeypatch.setattr(PointConfiguration, name, counted(name))
    pairs = 0
    for k in range(1, 5):
        comps = components(a, k)
        for c1 in comps:
            for c2 in comps:
                pairs += bool(components_intersection(a, c1.pi, c2.pi, k))
    assert pairs > 0
    assert calls == Counter(), calls


def test_connectivity_graph_square():
    graph = connectivity_graph(components(PointConfiguration(SQUARE), 1))
    assert len(graph.vertices) == 2
    assert graph.edges == ()
    assert len(graph.connected_components()) == 2
    assert not graph.is_connected()


def test_connectivity_graph_quartic():
    config = PointConfiguration(QUARTIC)
    comps = components(config, 1)
    graph = connectivity_graph(comps)
    assert len(graph.vertices) == 3
    assert graph.edges == ()
    # cross-check the edge rule against the intersection computation
    for i in range(len(comps)):
        for j in range(i + 1, len(comps)):
            inter = components_intersection(config, comps[i].pi, comps[j].pi, 1)
            assert inter == ()


def test_dimension_matches_chart_rank():
    for points in (SQUARE, QUARTIC):
        config = PointConfiguration(points)
        for comp in components(config, 1):
            assert comp.pi.l == 1
            for fp in comp.fixed_points:
                chart = chart_semigroup(comp.pi, fp.indices, fp.indices)
                assert matrix_rank(chart.generators) == comp.dimension


def test_is_covered_by_k_planes():
    assert is_covered_by_k_planes(PointConfiguration(SQUARE), 1)
    assert is_covered_by_k_planes(PointConfiguration(QUARTIC), 1)
    birkhoff = PointConfiguration(birkhoff_points())
    assert is_covered_by_k_planes(birkhoff, 2)
    assert not is_covered_by_k_planes(birkhoff, 3)
    with pytest.raises(ValueError):
        is_covered_by_k_planes(PointConfiguration(SQUARE), 0)


# ---------------------------------------------------------------------------
# chart pointedness


def test_fixed_point_charts_are_pointed_square():
    a = PointConfiguration(SQUARE)
    for comp in components(a, 1):
        for face in comp.fixed_points:
            met = {comp.pi.block_of[i] for i in face.indices}
            extras = [b[0] for j, b in enumerate(comp.pi.blocks) if j not in met]
            st = tuple(sorted(set(face.indices) | set(extras)))
            chart = chart_semigroup(comp.pi, st, face.indices)
            assert cone_is_pointed(chart_generators_reduced(chart))


def test_chart_at_non_face_transversal_is_not_pointed():
    # chart of the {0,1}|{2,3} ruling of the square at the diagonal
    # transversal {0, 3}: the diagonal is not a face, and the generators
    # (0,1) and (0,-1) span a line, so the chart has a torus factor
    a = PointConfiguration(SQUARE)
    comp = components(a, 1)[0]
    assert comp.pi.blocks == ((0, 1), (2, 3))
    diag = chart_semigroup(comp.pi, (0, 3), (0, 3))
    assert not cone_is_pointed(chart_generators_reduced(diag))
