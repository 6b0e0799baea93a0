import itertools
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from toricfano import (
    CayleyStructure,
    chart_semigroup,
    components,
    connectivity_graph,
    height_coordinates,
    local_ring_basis,
    relation_basis,
)
from toricfano.intlinalg import UnsupportedSizeError
from toricfano.pointconfig import Face, PointConfiguration, Record

SQUARE = [(0, 0), (0, 1), (1, 0), (1, 1)]
QUARTIC = [(0, 0), (0, 1), (1, 0), (1, 2)]  # quadrilateral, one singular edge


def birkhoff_points():
    """The six 3x3 permutation matrices, flattened row-major."""

    def perm_matrix(p):
        return tuple(int(p[i] == j) for i in range(3) for j in range(3))

    evens = [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
    odds = [(0, 2, 1), (1, 0, 2), (2, 1, 0)]
    return [perm_matrix(p) for p in evens + odds]


def hull_faces_2d(points):
    """Independent oracle: faces of a 2-dimensional configuration via exact
    orientation predicates (monotone chain hull, integer cross products)."""

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    pts = sorted(set(points))
    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    index = {p: i for i, p in enumerate(points)}
    faces = {(), tuple(sorted(index[p] for p in points))}
    m = len(hull)
    for i in range(m):
        a, b = hull[i], hull[(i + 1) % m]
        faces.add((index[a],))
        edge = tuple(sorted(index[p] for p in points if cross(a, b, p) == 0))
        faces.add(edge)
    return faces


def test_rejects_duplicates_and_ragged():
    with pytest.raises(ValueError):
        PointConfiguration([(0, 0), (0, 0)])
    with pytest.raises(ValueError):
        PointConfiguration([(0, 0), (0, 0, 1)])


def test_empty_configuration_errors():
    empty = PointConfiguration([])
    with pytest.raises(ValueError):
        empty.dimension
    with pytest.raises(ValueError):
        empty.ambient_dim


def test_dimension():
    assert PointConfiguration(SQUARE).dimension == 2
    assert PointConfiguration([(0, 0, 0)]).dimension == 0
    assert PointConfiguration([(0, 0), (2, 2), (5, 5)]).dimension == 1
    assert PointConfiguration(birkhoff_points()).dimension == 4


def assert_face_witnesses(config):
    for f in config.faces():
        on = set(f.indices)
        for i, p in enumerate(config.points):
            val = sum(a * b for a, b in zip(f.witness, p))
            if i in on:
                assert val == f.offset
            else:
                assert val > f.offset


def assert_intersection_closed(config):
    index_sets = {f.indices for f in config.faces()}
    for a, b in itertools.combinations(index_sets, 2):
        common = tuple(sorted(set(a) & set(b)))
        assert common in index_sets


def test_square_faces():
    config = PointConfiguration(SQUARE)
    got = {f.indices for f in config.faces()}
    assert got == hull_faces_2d(SQUARE)
    assert Counter(f.dim for f in config.faces()) == {-1: 1, 0: 4, 1: 4, 2: 1}
    assert [f for f in config.faces() if f.dim == 2] == [config.face_from_indices(range(4))]
    assert_face_witnesses(config)
    assert_intersection_closed(config)


def test_quartic_surface_faces():
    config = PointConfiguration(QUARTIC)
    assert {f.indices for f in config.faces()} == hull_faces_2d(QUARTIC)
    edges = [f for f in config.faces() if f.dim == 1]
    assert len(edges) == 4
    assert all(len(e.indices) == 2 for e in edges)
    assert_face_witnesses(config)


def test_interior_point_is_not_a_vertex():
    config = PointConfiguration([(0, 0), (2, 0), (0, 2), (1, 1), (2, 2)])
    assert {f.indices for f in config.faces()} == hull_faces_2d(config.points)
    # (1,1) sits inside the square's hull, on no proper face
    for f in config.faces():
        if 3 in f.indices:
            assert f.indices == (0, 1, 2, 3, 4)
    assert_face_witnesses(config)
    assert_intersection_closed(config)


def test_point_on_edge_belongs_to_edge_face():
    config = PointConfiguration([(0, 0), (2, 0), (0, 1), (1, 0)])
    assert {f.indices for f in config.faces()} == hull_faces_2d(config.points)
    bottom = config.face_from_indices([0, 1, 3])
    assert bottom.dim == 1
    with pytest.raises(ValueError, match="do not form a face"):
        config.face_from_indices([0, 1])  # sub-chain of an edge is not a face


def test_segment_faces():
    config = PointConfiguration([(0,), (1,), (3,)])
    got = {f.indices for f in config.faces()}
    assert got == {(), (0,), (2,), (0, 1, 2)}
    assert_face_witnesses(config)


def test_single_point_faces():
    config = PointConfiguration([(7, 8)])
    assert {f.indices for f in config.faces()} == {(), (0,)}
    # the point's cone has one facet, the empty face: 0 > -1 at the point
    empty = config.face_from_indices(())
    assert (empty.witness, empty.offset, empty.dim, empty.facets) == ((0, 0), -1, -1, ())
    assert config.face_from_indices((0,)).facets == ((),)


def test_birkhoff_face_counts():
    config = PointConfiguration(birkhoff_points())
    counts = {}
    for f in config.faces():
        counts[f.dim] = counts.get(f.dim, 0) + 1
    # f-vector of the third Birkhoff polytope, plus empty and improper faces
    assert counts == {-1: 1, 0: 6, 1: 15, 2: 18, 3: 9, 4: 1}
    # every facet is an empty simplex: 4 points spanning dimension 3
    assert [f for f in config.faces() if f.dim == 3] == list(config.fixed_point_faces(3))
    assert_face_witnesses(config)
    assert_intersection_closed(config)


def test_3d_simplex_with_centroid_scaled():
    pts = [(0, 0, 0), (4, 0, 0), (0, 4, 0), (0, 0, 4), (1, 1, 1)]
    config = PointConfiguration(pts)
    vertex_sets = {f.indices for f in config.faces() if f.dim == 0}
    assert vertex_sets == {(0,), (1,), (2,), (3,)}
    assert sum(f.dim == 2 for f in config.faces()) == 4
    assert_face_witnesses(config)
    assert_intersection_closed(config)


def test_fixed_point_faces_square():
    config = PointConfiguration(SQUARE)
    edges = config.fixed_point_faces(1)
    assert {f.indices for f in edges} == {(0, 1), (0, 2), (1, 3), (2, 3)}
    assert config.fixed_point_faces(2) == ()  # the square is not a simplex


def test_fixed_point_faces_quartic():
    config = PointConfiguration(QUARTIC)
    assert len(config.fixed_point_faces(1)) == 4


def test_fixed_point_faces_birkhoff():
    config = PointConfiguration(birkhoff_points())
    assert len(config.fixed_point_faces(3)) == 9
    assert len(config.fixed_point_faces(2)) == 18
    assert len(config.fixed_point_faces(1)) == 15


def test_smoothness_quartic_surface():
    config = PointConfiguration(QUARTIC)
    assert config.is_smooth_at(config.face_from_indices([0, 2]))
    # the edge between (1,0) and (1,2): edge lattice 2Z is not saturated
    assert not config.is_smooth_at(config.face_from_indices([2, 3]))
    assert config.is_smooth_at(config.face_from_indices([0, 1]))
    assert config.is_smooth_at(config.face_from_indices([1, 3]))


def test_smoothness_square():
    config = PointConfiguration(SQUARE)
    for edge in config.fixed_point_faces(1):
        assert config.is_smooth_at(edge)
    for vertex in config.fixed_point_faces(0):
        assert config.is_smooth_at(vertex)


def test_smoothness_singular_vertex():
    # cone over a conic: vertex at origin of {(0,0),(1,0),(0,1),(1,1)} is
    # smooth, but the quadric cone {(0,0),(2,0),(1,1),(0,2)}... use the
    # classical A_1 pattern: at the vertex (0,0) of conv{(2,0),(0,2)} with
    # generators (2,0),(1,1),(0,2) the images do not form a free semigroup
    config = PointConfiguration([(0, 0), (2, 0), (1, 1), (0, 2)])
    vertex = config.face_from_indices([0])
    assert not config.is_smooth_at(vertex)


def test_smoothness_rectangle_with_coarse_lattice():
    # difference lattice 2Z x Z: still smooth at every edge and vertex
    config = PointConfiguration([(0, 0), (2, 0), (0, 1), (2, 1)])
    for f in config.fixed_point_faces(1):
        assert config.is_smooth_at(f)
    for f in config.fixed_point_faces(0):
        assert config.is_smooth_at(f)


def test_smoothness_requires_face():
    config = PointConfiguration(SQUARE)
    with pytest.raises(ValueError):
        config.is_smooth_at([0, 3])  # diagonal: empty simplex but not a face
    cfg2 = PointConfiguration([(0, 0), (1, 0), (2, 0), (0, 1)])
    with pytest.raises(ValueError):
        cfg2.is_smooth_at([0, 1, 2])  # bottom edge face, but not a simplex


def test_face_resolves_indices_and_refuses_foreign_faces():
    square = PointConfiguration([(0, 0), (1, 0), (0, 1), (1, 1)])
    other = PointConfiguration([(0, 0), (1, 0), (0, 1), (2, 3)])
    vertex = other.face_from_indices([1])
    assert not other.is_smooth_at(vertex)
    assert square.is_smooth_at([1])
    # the square's vertex 1 is smooth, but the face is other's
    with pytest.raises(ValueError, match="different configuration"):
        square.is_smooth_at(vertex)
    with pytest.raises(ValueError, match="different configuration"):
        square.face(vertex)
    own = square.face_from_indices([1, 0])
    assert square.face(own) is own and square.face([0, 1, 1]) is own


def test_size_caps():
    too_many = [(i, i * i) for i in range(15)]
    with pytest.raises(UnsupportedSizeError):
        PointConfiguration(too_many).faces()


def test_face_value_semantics():
    c1 = PointConfiguration(SQUARE)
    c2 = PointConfiguration(SQUARE)
    assert c1.face_from_indices([0, 1]) == c2.face_from_indices([0, 1])
    assert c1.face_from_indices([0]) in c2.faces()


def _quartic_vertical(a):
    return CayleyStructure(a.face_from_indices(range(4)), [[0, 1], [2, 3]])


@pytest.mark.parametrize(
    "build",
    [
        lambda a: a,
        lambda a: a.face_from_indices((0, 2)),
        _quartic_vertical,
        lambda a: components(a, 1)[0],
        lambda a: chart_semigroup(_quartic_vertical(a), (0, 2), (0, 2)),
        lambda a: connectivity_graph(components(a, 1)),
        lambda a: height_coordinates(a, (0, 2), (0, 1), a.points[3]),
        lambda a: local_ring_basis(a, (0, 2)),
        lambda a: relation_basis(a, range(4)),
    ],
    ids=[
        "PointConfiguration",
        "Face",
        "CayleyStructure",
        "FanoComponent",
        "ChartSemigroup",
        "ConnectivityGraph",
        "HeightCoords",
        "MonomialSet",
        "RelationBasis",
    ],
)
def test_value_classes_are_immutable_records_of_their_fields(build):
    x = build(PointConfiguration(QUARTIC))
    cls, names = type(x), type(x)._fields
    values = tuple(getattr(x, name) for name in names)
    assert isinstance(x, Record)
    # the hash a frozen dataclass had, so set and dict orders stay the same
    assert hash(x) == hash(values)
    assert cls(*values) == cls(**dict(zip(names, values))) == x
    assert hash(cls(*values)) == hash(x)
    twin = type("Twin", (Record,), {"__annotations__": dict.fromkeys(names)})(*values)
    assert twin != x and x != twin and x != values
    with pytest.raises(AttributeError):
        setattr(x, names[0], values[0])
    with pytest.raises(AttributeError):
        delattr(x, names[0])
    for args, kwargs in [(values + values[:1], {}), (values[:-1], {}), (values, {"extra": 1})]:
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(min_value=-3, max_value=3), st.integers(min_value=-3, max_value=3)),
        min_size=1,
        max_size=7,
        unique=True,
    )
)
def test_random_2d_faces_match_hull_oracle(pts):
    config = PointConfiguration(pts)
    if config.dimension == 2:
        assert {f.indices for f in config.faces()} == hull_faces_2d(pts)
    assert_face_witnesses(config)
    assert_intersection_closed(config)
