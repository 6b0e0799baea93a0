"""Cayley structures: block partitions of faces compatible with all affine
relations.

A Cayley structure on a face tau is a partition of tau's points into l+1
nonempty blocks such that every affine relation among the points restricts
to zero on each block - equivalently, each block's entries sum to zero in
every row of the face's relation basis (``Face.relations``).  Such a
partition exhibits tau as a Cayley configuration of l+1 fibers and produces
an (l-parameter family of) l-planes on the associated toric variety.

Structures are partially ordered: a structure on a smaller face is below one
on a larger face when the larger structure's blocks restrict into single
blocks of the smaller one.  The maximal structures with at least k+1 blocks
index the irreducible components of the scheme of k-planes; for them and for
their intersections, k only filters one answer computed for all k.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Sequence

from .pointconfig import Face, PointConfiguration, Record


class CayleyStructure(Record):
    """A block partition of a face, canonicalized: each block is a sorted
    index tuple and blocks are ordered by smallest element."""

    face: Face
    blocks: tuple[tuple[int, ...], ...]

    def __init__(self, face: Face, blocks: Iterable[Sequence[int]]):
        raw = [tuple(sorted(b)) for b in blocks]
        if not raw or any(not b for b in raw):
            raise ValueError("blocks must be nonempty")
        canon = tuple(sorted(raw, key=lambda b: b[0]))
        flat = [i for b in canon for i in b]
        if sorted(flat) != list(face.indices) or len(set(flat)) != len(flat):
            raise ValueError("blocks must partition the face's index set")
        object.__setattr__(self, "face", face)
        object.__setattr__(self, "blocks", canon)

    @property
    def config(self) -> PointConfiguration:
        return self.face.config

    @property
    def l(self) -> int:
        return len(self.blocks) - 1

    @cached_property
    def block_of(self) -> dict[int, int]:
        """Map from point index to the position of its block."""
        return {i: b for b, blk in enumerate(self.blocks) for i in blk}

    def injective_on(self, indices: Sequence[int]) -> bool:
        """Whether the given points lie in pairwise distinct blocks."""
        hit = [self.block_of[i] for i in indices]
        return len(set(hit)) == len(hit)

    def __repr__(self) -> str:
        return f"CayleyStructure(face={self.face.indices}, blocks={self.blocks})"


def is_cayley_structure(face: Face, blocks: Iterable[Sequence[int]]) -> bool:
    """Whether the given block partition of the face preserves all affine
    relations: each block is one of ``face.cayley_blocks``, the index sets
    that sum to zero in every row of the face's relation basis.  (A block
    indicator lies in the rational rowspan of the face's homogenized matrix
    exactly when it is orthogonal to the relations, the kernel of that
    matrix.)  Blocks that do not partition the face raise ``ValueError``."""
    return set(CayleyStructure(face, blocks).blocks) <= set(face.cayley_blocks)


def _covers(face: Face, blocks: Iterable[tuple[int, ...]]) -> list[tuple[tuple[int, ...], ...]]:
    """Every partition of the face into the given blocks (sorted index
    tuples), each as its blocks in order of smallest element.

    The smallest uncovered point heads the next block, each given block that
    holds it and lies among the uncovered points in turn, so a partition is
    reached once: its j-th block holds the smallest point outside the first
    j - 1.  No branch dead-ends over ``face.cayley_blocks`` or over atoms
    (its minimal members other than the face).  The uncovered rest ``R`` is
    a block, as the face and each chosen block sum to zero in every relation.
    A block ``B`` other than the face is a disjoint union of atoms: if it is
    no atom, it holds a smaller block ``S``, and ``B - S`` is a block.  ``R``
    is such a block once an atom is chosen, and before that it is the face,
    an atom ``A`` plus the block ``F - A``, if the face has any atom.
    """
    by_head: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
    for block in blocks:
        by_head.setdefault(block[0], []).append((sum(1 << i for i in block), block))
    found, stack = [], [(sum(1 << i for i in face.indices), ())]
    while stack:  # point sets as bitmasks over point indices
        left, chosen = stack.pop()
        if not left:
            found.append(chosen)
            continue
        head = (left & -left).bit_length() - 1
        stack.extend((left & ~m, chosen + (b,)) for m, b in by_head.get(head, ()) if not m & ~left)
    return found


def enumerate_cayley_structures(face: Face, l_min: int = 1) -> tuple[CayleyStructure, ...]:
    """All Cayley structures on the face with at least l_min + 1 blocks,
    sorted by (block count, blocks): the covers of the face by
    ``face.cayley_blocks`` (none on the empty face)."""
    if l_min < 0:
        raise ValueError("l_min must be nonnegative")
    found = [CayleyStructure(face, c) for c in _covers(face, face.cayley_blocks) if len(c) > l_min]
    return tuple(sorted(found, key=lambda s: (len(s.blocks), s.blocks)))


def leq(small: CayleyStructure, big: CayleyStructure) -> bool:
    """Partial order: ``small`` is dominated by ``big``.

    True iff small's face is a face of big's face and every block of ``big``
    meets small's face inside a single block of ``small`` (the block merge
    map then automatically surjects because small's blocks are nonempty).
    """
    if small.config != big.config:
        raise ValueError("structures belong to different configurations")
    if not set(small.face.indices) <= set(big.face.indices):
        return False
    small_block = small.block_of
    return all(len({small_block[i] for i in block if i in small_block}) <= 1 for block in big.blocks)


def _join(face: Face, pi1: CayleyStructure, pi2: CayleyStructure) -> dict[int, int]:
    """Each point of a face ``F`` inside both structures' faces, with the
    label of its block in their join there, the finest common coarsening: the
    blocks of ``pi1`` there, merged whenever a block of ``pi2`` meets several.
    Write ``p|F`` for the restriction of a structure ``p`` to ``F``: the
    blocks of ``p`` intersected with ``F``, empties dropped.  It is a Cayley
    structure, as relations on ``F`` extend by zero to the face of ``p``.
    The join's blocks are unions of blocks of ``pi1|F``, so they form one
    too.  A structure on ``F`` is below ``pi1`` exactly when it coarsens
    ``pi1|F``, and likewise for ``pi2``; so the structures on ``F`` below
    both inputs are the coarsenings of the join.
    """
    label = {i: pi1.block_of[i] for i in face.indices}
    for block in pi2.blocks:
        hit = {label[i] for i in block if i in label}
        if len(hit) > 1:
            head = min(hit)
            label = {i: head if b in hit else b for i, b in label.items()}
    return label


class CayleyPoset:
    """The poset of all Cayley structures with at least two blocks on one
    configuration, built once and shared by every question asked of it.

    Each configuration holds one instance (``PointConfiguration.cayley_poset``).
    Only the finest structures on each face are built; maximality and each
    pair's intersection are computed once for all ``k``, which only filters
    by ``l >= k``.  Both answers keep, per face, the candidates that are not
    restrictions of candidates on covering faces, read through ``facets``,
    and build a ``CayleyStructure`` only for a structure they return.
    """

    def __init__(self, config: PointConfiguration):
        self.config = config
        self._intersection: dict[tuple, tuple[CayleyStructure, ...]] = {}

    @cached_property
    def maximal(self) -> tuple[CayleyStructure, ...]:
        """All maximal structures, sorted by (face indices, blocks).

        Candidates are the finest structures on each face: any other is below
        a strict refinement on its face.  ``p`` has a strict refinement
        exactly when a block ``B`` holds a smaller block ``S`` of
        ``F.cayley_blocks`` (``S`` and ``B - S`` split it; a refinement
        splits a block into blocks), so ``p`` is finest exactly when every
        block is an atom, a minimal block other than ``F``: the finest
        structures are the covers of ``F`` by atoms (``_covers``).  A finest
        ``p`` on ``F`` below some ``q != p`` is the restriction of a finest
        ``q1`` on a face covering ``F``, where the restriction ``q1|F`` is
        the blocks of ``q1`` intersected with ``F``, empties dropped.  Indeed
        ``q`` lies on a face ``G`` strictly containing ``F``; for ``F1``
        covering ``F`` inside ``G`` (face lattices are graded), ``q|F1`` is a
        Cayley structure (relations on ``F1`` extend by zero to ``G``) above
        ``p``, and so is a finest ``q1`` refining it; ``q1|F`` refines ``p``,
        so it is ``p``.  Conversely such a restriction is below ``q1 != p``.
        Candidates and restrictions are compared as the block tuples of
        ``_covers``, sorted as in ``CayleyStructure``; these partition their
        face, so one set holds every restriction to every facet.
        """
        finest = {}
        for face in self.config.faces():
            proper = [b for b in face.cayley_blocks if len(b) < len(face.indices)]
            sets = [frozenset(b) for b in proper]
            atoms = [b for b, s in zip(proper, sets) if not any(t < s for t in sets)]
            if atoms:  # then the face has a cover by atoms, see ``_covers``
                finest[face.indices] = face, _covers(face, atoms)
        restrictions = {
            tuple(sorted(r for b in q if (r := tuple(i for i in b if i in inside))))
            for face, here in finest.values()
            for inside in (set(g) for g in face.facets if g in finest)
            for q in here
        }
        kept = [
            CayleyStructure(face, p) for face, here in finest.values() for p in here if p not in restrictions
        ]
        return tuple(sorted(kept, key=lambda s: (s.face.indices, s.blocks)))

    def intersection(
        self, pi1: CayleyStructure, pi2: CayleyStructure
    ) -> tuple[CayleyStructure, ...]:
        """The maximal structures with at least two blocks below both inputs,
        sorted by (face indices, blocks); computed once per ordered pair.

        By ``_join``, a face ``G`` inside both faces has one candidate, the
        join ``J_G``, when it has at least two blocks.  For ``F`` inside
        ``G``, the restriction ``J_G|F`` (the blocks of ``J_G`` intersected
        with ``F``, empties dropped) coarsens ``J_F``, as it is a common
        coarsening on ``F``, and ``J_F <= J_G`` says that it refines ``J_F``:
        so ``J_F <= J_G`` exactly when the two are equal, that is when
        ``J_G`` meets ``F`` in as many blocks as ``J_F`` has.  Then for
        ``F1`` covering ``F`` inside ``G``, ``J_F1`` refines ``J_G|F1``, so
        ``J_F1|F`` refines ``J_F`` as well and equals it.  So ``J_F`` is kept
        exactly when no join on a face covering ``F`` inside both faces meets
        ``F`` in as many blocks.  Faces meet in faces, so the faces inside
        both are the ``faces_inside`` of the common face, and the joins on
        the faces covering each one come from inverting their ``facets``.
        """
        key = (pi1, pi2)
        if key not in self._intersection:
            common = self.config.face_from_indices(set(pi1.face.indices) & set(pi2.face.indices))
            inside = [f for f in common.faces_inside if len(f.indices) > 1]
            joins = [_join(f, pi1, pi2) for f in inside]
            above: dict[tuple[int, ...], list] = {}  # a face -> the joins on faces covering it
            for f, join in zip(inside, joins):
                for g in f.facets:
                    above.setdefault(g, []).append(join)
            kept = []
            for face, label in zip(inside, joins):
                heads = set(label.values())
                if len(heads) > 1 and all(
                    len({join[i] for i in label}) < len(heads) for join in above.get(face.indices, ())
                ):
                    blocks = [[i for i in label if label[i] == b] for b in heads]
                    kept.append(CayleyStructure(face, blocks))
            self._intersection[key] = tuple(sorted(kept, key=lambda s: (s.face.indices, s.blocks)))
        return self._intersection[key]


def maximal_cayley_structures(config: PointConfiguration, k: int) -> tuple[CayleyStructure, ...]:
    """Maximal Cayley structures with at least k+1 blocks, over all faces,
    sorted by (face indices, blocks).

    Maximality is computed once per configuration in the poset of all
    structures with at least two blocks (see ``CayleyPoset.maximal``);
    filtering by block count afterwards is equivalent because a structure can
    only be dominated by one with at least as many blocks.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    return tuple(p for p in config.cayley_poset.maximal if p.l >= k)
