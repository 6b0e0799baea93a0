import itertools
import time

import pytest

from toricfano.cayley import (
    CayleyStructure,
    _join,
    enumerate_cayley_structures,
    is_cayley_structure,
    leq,
    maximal_cayley_structures,
)
from toricfano.pointconfig import PointConfiguration
from toricfano.verify import brute_force_cayley, relation_basis

from test_acceptance import FIXTURES, random_configurations
from test_pointconfig import QUARTIC, SQUARE, birkhoff_points


def full_face(config):
    return config.face_from_indices(range(len(config)))


def restricted_to(pi, face):
    """The induced structure on a face inside the structure's face: its blocks
    intersected with the face, empties dropped."""
    blocks = [[i for i in b if i in face.indices] for b in pi.blocks]
    return CayleyStructure(face, [b for b in blocks if b])


def test_square_partitions():
    config = PointConfiguration(SQUARE)
    face = full_face(config)
    # points: 0=(0,0) 1=(0,1) 2=(1,0) 3=(1,1)
    assert is_cayley_structure(face, [[0, 1], [2, 3]])  # split by x
    assert is_cayley_structure(face, [[0, 2], [1, 3]])  # split by y
    assert not is_cayley_structure(face, [[0, 3], [1, 2]])  # diagonals
    assert not is_cayley_structure(face, [[0], [1], [2], [3]])
    assert not is_cayley_structure(face, [[0], [1, 2, 3]])  # a lone vertex
    assert is_cayley_structure(face, [[0, 1, 2, 3]])


def test_quartic_partitions():
    config = PointConfiguration(QUARTIC)
    face = full_face(config)
    # 0=(0,0) 1=(0,1) 2=(1,0) 3=(1,2); relation 2*p0 - 2*p1 - p2 + p3 = 0
    assert is_cayley_structure(face, [[0, 1], [2, 3]])  # vertical split
    assert not is_cayley_structure(face, [[0, 2], [1, 3]])  # horizontal
    assert not is_cayley_structure(face, [[0, 3], [1, 2]])


def test_partition_validation():
    config = PointConfiguration(SQUARE)
    face = full_face(config)
    with pytest.raises(ValueError):
        is_cayley_structure(face, [[0, 1], [2]])
    with pytest.raises(ValueError):
        is_cayley_structure(face, [[0, 1], [1, 2, 3]])
    with pytest.raises(ValueError):
        CayleyStructure(face, [[0, 1], [2, 3], []])


def test_enumerate_square():
    config = PointConfiguration(SQUARE)
    structures = enumerate_cayley_structures(full_face(config), l_min=1)
    assert len(structures) == 2
    assert {s.blocks for s in structures} == {
        ((0, 1), (2, 3)),
        ((0, 2), (1, 3)),
    }
    assert all(s.l == 1 for s in structures)


def test_enumerate_matches_filtered_brute_force():
    config = PointConfiguration(QUARTIC)
    face = full_face(config)
    fast = {s.blocks for s in enumerate_cayley_structures(face, l_min=1)}
    # reference: try every set partition directly against the definition
    slow = set()
    for labels in itertools.product(range(4), repeat=4):
        blocks = {}
        for i, lab in enumerate(labels):
            blocks.setdefault(lab, []).append(face.indices[i])
        parts = sorted((tuple(sorted(b)) for b in blocks.values()), key=lambda b: b[0])
        if len(parts) >= 2 and is_cayley_structure(face, parts):
            slow.add(tuple(parts))
    assert fast == slow


def test_enumerate_on_simplex_face_all_partitions():
    config = PointConfiguration([(0, 0), (1, 0), (0, 1)])
    face = full_face(config)
    structures = enumerate_cayley_structures(face, l_min=1)
    # no affine relations: every partition with >= 2 blocks qualifies
    assert len(structures) == 4  # Bell(3) - 1
    singleton = [s for s in structures if s.l == 2]
    assert len(singleton) == 1


def test_enumerate_empty_and_vertex_faces():
    config = PointConfiguration(SQUARE)
    empty = config.face_from_indices([])
    assert enumerate_cayley_structures(empty, l_min=0) == ()
    vertex = config.face_from_indices([1])
    structures = enumerate_cayley_structures(vertex, l_min=0)
    assert len(structures) == 1 and structures[0].l == 0
    assert enumerate_cayley_structures(vertex, l_min=1) == ()


def blocks_by_subsets(config, face):
    """Every nonempty subset of the face whose entries sum to zero in each
    vector of the oracle's own relation basis (not ``Face.relations``)."""
    vectors = relation_basis(config, face).vectors
    position = {i: p for p, i in enumerate(face.indices)}
    return tuple(
        sorted(
            subset
            for size in range(1, len(face.indices) + 1)
            for subset in itertools.combinations(face.indices, size)
            if all(sum(v[position[i]] for i in subset) == 0 for v in vectors)
        )
    )


def test_cayley_blocks_match_the_subset_reference():
    for points in [pts for _, pts in FIXTURES] + random_configurations():
        config = PointConfiguration(points)
        for face in config.faces():
            if len(face.indices) <= 12:
                assert face.cayley_blocks == blocks_by_subsets(config, face), (points, face)


def test_blocks_canonical_order():
    config = PointConfiguration(SQUARE)
    s = CayleyStructure(full_face(config), [[3, 2], [1, 0]])
    assert s.blocks == ((0, 1), (2, 3))
    assert s.block_of == {0: 0, 1: 0, 2: 1, 3: 1}
    assert s.injective_on([0, 2])
    assert not s.injective_on([0, 1])


def test_leq_on_quartic():
    config = PointConfiguration(QUARTIC)
    face = full_face(config)
    vertical = CayleyStructure(face, [[0, 1], [2, 3]])
    bottom = config.face_from_indices([0, 2])
    bottom_struct = CayleyStructure(bottom, [[0], [2]])
    assert leq(bottom_struct, vertical)
    assert not leq(vertical, bottom_struct)
    left = config.face_from_indices([0, 1])
    left_struct = CayleyStructure(left, [[0], [1]])
    # both left points sit in one vertical block
    assert not leq(left_struct, vertical)


def test_leq_birkhoff_facet_vs_projection():
    config = PointConfiguration(birkhoff_points())
    projections = [
        s for s in enumerate_cayley_structures(full_face(config), l_min=2)
    ]
    assert len(projections) == 6
    facet = next(f for f in config.faces() if f.dim == 3)
    singleton = CayleyStructure(facet, [[i] for i in facet.indices])
    # the facet structure has more blocks than any projection: incomparable
    assert not leq(singleton, projections[0])
    # restricting a projection to the facet gives a comparable pair
    for proj in projections:
        restricted = restricted_to(proj, facet)
        assert leq(restricted, proj)
        assert leq(restricted, singleton) or restricted.l < 3


def test_leq_reflexive_antisymmetric_transitive_sample():
    config = PointConfiguration(birkhoff_points())
    structures = []
    for face in config.faces():
        if face.indices:
            structures.extend(enumerate_cayley_structures(face, l_min=1))
    sample = structures[:: max(1, len(structures) // 40)]
    for s in sample:
        assert leq(s, s)
    for a, b in itertools.combinations(sample, 2):
        if leq(a, b) and leq(b, a):
            assert a == b
    for a in sample[:10]:
        for b in sample[:10]:
            for c in sample[:10]:
                if leq(a, b) and leq(b, c):
                    assert leq(a, c)


def test_maximal_structures_square():
    config = PointConfiguration(SQUARE)
    maximal = maximal_cayley_structures(config, 1)
    assert len(maximal) == 2
    assert all(s.face.indices == (0, 1, 2, 3) for s in maximal)


def test_maximal_structures_quartic():
    config = PointConfiguration(QUARTIC)
    maximal = maximal_cayley_structures(config, 1)
    # The vertical structure dominates the singleton structures on the two
    # edges where it is injective ({0,2} and {1,3}).  The edges {0,1} and
    # {2,3} each lie inside a single vertical block, so their singleton
    # structures are not dominated: they are maximal in their own right
    # (isolated lines on the surface, alongside the 1-dim ruling family).
    assert len(maximal) == 3
    found = {(m.face.indices, m.blocks) for m in maximal}
    assert found == {
        ((0, 1, 2, 3), ((0, 1), (2, 3))),
        ((0, 1), ((0,), (1,))),
        ((2, 3), ((2,), (3,))),
    }


def test_maximal_structures_birkhoff_counts():
    config = PointConfiguration(birkhoff_points())
    for k, expected in ((1, 15), (2, 15), (3, 9)):
        structures = maximal_cayley_structures(config, k)
        assert len(structures) == expected
    by_l = {}
    for s in maximal_cayley_structures(config, 1):
        by_l[s.l] = by_l.get(s.l, 0) + 1
    assert by_l == {2: 6, 3: 9}
    for s in maximal_cayley_structures(config, 3):
        assert s.l == 3 and len(s.face.indices) == 4


def test_maximal_requires_positive_k():
    config = PointConfiguration(SQUARE)
    with pytest.raises(ValueError):
        maximal_cayley_structures(config, 0)


def finest_by_filter(config):
    """Reference maximality with no atoms search and no covers: every
    structure with at least two blocks on each face, from the brute-force
    oracle, kept when each block is an atom (an inclusion-minimal block of
    the face's two-block structures), then dropped when it is the
    restriction of a kept structure on a face covering its own, one whose
    facets hold the face."""
    finest = {}
    for face in config.faces():
        here = brute_force_cayley(config, face, 1)
        halves = {frozenset(b) for q in here if q.l == 1 for b in q.blocks}
        atoms = {b for b in halves if not any(s < b for s in halves)}
        finest[face.indices] = [p for p in here if atoms.issuperset(map(frozenset, p.blocks))]
    kept = [
        p
        for here in finest.values()
        for p in here
        if not any(
            restricted_to(q, p.face) == p
            for g in config.faces()
            if p.face.indices in g.facets
            for q in finest[g.indices]
        )
    ]
    return sorted(kept, key=lambda s: (s.face.indices, s.blocks))


def test_maximal_is_the_finest_filter_of_every_structure():
    # Delta(2,5) and Segre P1xP5 (12 points, dimension 6) are too large for
    # the all-pairs reference of the acceptance suite
    delta_2_5 = [tuple(int(t in pair) for t in range(5)) for pair in itertools.combinations(range(5), 2)]
    segre_1_5 = [(i,) + tuple(int(j == t) for t in range(1, 6)) for i in range(2) for j in range(6)]
    cases = [pts for _, pts in FIXTURES] + random_configurations() + [delta_2_5, segre_1_5]
    start = time.perf_counter()
    for points in cases:
        config = PointConfiguration(points)
        assert list(maximal_cayley_structures(config, 1)) == finest_by_filter(config), points
    assert time.perf_counter() - start < 5


def test_poset_maximal_on_quartic():
    # the singleton structures on the edges {0,2} and {1,3} are restrictions
    # of the vertical structure on the face covering them; those on {0,1}
    # and {2,3} are not, since each of these edges lies in one vertical block
    config = PointConfiguration(QUARTIC)
    assert [(p.face.indices, p.blocks) for p in config.cayley_poset.maximal] == [
        ((0, 1), ((0,), (1,))),
        ((0, 1, 2, 3), ((0, 1), (2, 3))),
        ((2, 3), ((2,), (3,))),
    ]


def join_partition(face, pi1, pi2):
    """The partition of the face into the blocks that ``_join`` labels."""
    label = _join(face, pi1, pi2)
    return CayleyStructure(face, [[i for i in label if label[i] == b] for b in set(label.values())])


def test_join_merges_blocks_met_by_one_block_of_the_other():
    config = PointConfiguration(SQUARE)
    face = full_face(config)
    # points: 0=(0,0) 1=(0,1) 2=(1,0) 3=(1,1)
    by_x = CayleyStructure(face, [[0, 1], [2, 3]])
    by_y = CayleyStructure(face, [[0, 2], [1, 3]])
    assert join_partition(face, by_x, by_y).blocks == ((0, 1, 2, 3),)
    assert join_partition(face, by_x, by_x) == by_x
    bottom = config.face_from_indices([0, 2])
    assert join_partition(bottom, by_x, by_y).blocks == ((0, 2),)
    assert join_partition(bottom, by_x, by_x).blocks == ((0,), (2,))
    assert join_partition(bottom, by_y, by_x).blocks == ((0, 2),)


def test_join_of_birkhoff_structures_is_their_finest_common_coarsening():
    config = PointConfiguration(birkhoff_points())
    facet = next(f for f in config.faces() if f.dim == 3)
    singleton = CayleyStructure(facet, [[i] for i in facet.indices])
    for proj in enumerate_cayley_structures(full_face(config), l_min=2):
        restricted = restricted_to(proj, facet)
        assert join_partition(facet, singleton, proj) == restricted
        assert join_partition(facet, proj, singleton) == restricted
        common = [
            q
            for q in enumerate_cayley_structures(facet, l_min=0)
            if leq(q, singleton) and leq(q, proj)
        ]
        # the join is the finest common lower bound on the facet
        assert restricted in common
        assert all(leq(q, restricted) for q in common)
