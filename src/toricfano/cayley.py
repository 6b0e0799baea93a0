"""Cayley structures: block partitions of faces compatible with all affine
relations.

A Cayley structure on a face tau is a partition of tau's points into l+1
nonempty blocks such that every affine relation among the points restricts
to zero on each block - equivalently, each block's indicator vector lies in
the rational rowspan of tau's homogenized coordinate matrix.  Such a
partition exhibits tau as a Cayley configuration of l+1 fibers and produces
an (l-parameter family of) l-planes on the associated toric variety.

Structures are partially ordered: a structure on a smaller face is below one
on a larger face when the larger structure's blocks restrict into single
blocks of the smaller one.  The maximal structures with at least k+1 blocks
index the irreducible components of the scheme of k-planes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .intlinalg import IntMatrix, _kernel, in_rational_rowspan
from .pointconfig import Face, PointConfiguration


@dataclass(frozen=True)
class CayleyStructure:
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

    def restricted_to(self, face: Face) -> "CayleyStructure":
        """The induced structure on a subface (blocks intersected, empties
        dropped)."""
        if not self.face.contains(face):
            raise ValueError("can only restrict to a face of the structure's face")
        idx = set(face.indices)
        blocks = [tuple(i for i in b if i in idx) for b in self.blocks]
        return CayleyStructure(face, [b for b in blocks if b])

    def injective_on(self, indices: Sequence[int]) -> bool:
        """Whether the given points lie in pairwise distinct blocks."""
        hit = [self.block_of[i] for i in indices]
        return len(set(hit)) == len(hit)

    def __repr__(self) -> str:
        return f"CayleyStructure(face={self.face.indices}, blocks={self.blocks})"


def _block_indicator(face: Face, block: Sequence[int]) -> tuple[int, ...]:
    members = set(block)
    return tuple(int(i in members) for i in face.indices)


def _face_homogenized(face: Face) -> IntMatrix:
    pts = face.points
    d = face.config.ambient_dim
    return tuple(tuple(p[i] for p in pts) for i in range(d)) + ((1,) * len(pts),)


def is_cayley_structure(face: Face, blocks: Iterable[Sequence[int]]) -> bool:
    """Whether the given block partition of the face preserves all affine
    relations (each block indicator lies in the rational rowspan of the
    face's homogenized matrix)."""
    canon = [tuple(sorted(b)) for b in blocks]
    flat = sorted(i for b in canon for i in b)
    if flat != list(face.indices) or any(not b for b in canon):
        raise ValueError("blocks must partition the face's index set")
    m = _face_homogenized(face)
    return all(in_rational_rowspan(m, _block_indicator(face, b)) for b in canon)


def enumerate_cayley_structures(face: Face, l_min: int = 1) -> tuple[CayleyStructure, ...]:
    """All Cayley structures on the face with at least l_min + 1 blocks.

    Depth-first search over partitions in restricted-growth order (a point
    joins an existing block or opens a new one, so blocks come out sorted by
    minimum), pruning a partial assignment as soon as a block's partial
    indicator leaves the rowspan of the assigned prefix - any relation
    supported on assigned points already constrains the final block sums.
    """
    if l_min < 0:
        raise ValueError("l_min must be nonnegative")
    idx = face.indices
    t_total = len(idx)
    if t_total == 0:
        return ()
    pts = face.points
    d = face.config.ambient_dim

    def prefix_kernel(t: int) -> IntMatrix:
        rows = tuple(tuple(p[i] for p in pts[:t]) for i in range(d)) + ((1,) * t,)
        return _kernel(rows, t)

    kernels = [prefix_kernel(t) for t in range(1, t_total + 1)]

    found: list[CayleyStructure] = []
    blocks: list[list[int]] = []

    def compatible(t: int) -> bool:
        for lam in kernels[t - 1]:
            for block in blocks:
                if sum(lam[p] for p in block) != 0:
                    return False
        return True

    def assign(t: int) -> None:
        if t == t_total:
            if len(blocks) >= l_min + 1:
                found.append(
                    CayleyStructure(face, [tuple(idx[p] for p in b) for b in blocks])
                )
            return
        if len(blocks) + (t_total - t) < l_min + 1:
            return
        for b in range(len(blocks) + 1):
            if b == len(blocks):
                blocks.append([t])
            else:
                blocks[b].append(t)
            if compatible(t + 1):
                assign(t + 1)
            if b == len(blocks) - 1 and len(blocks[b]) == 1:
                blocks.pop()
            else:
                blocks[b].pop()

    assign(0)
    found.sort(key=lambda s: (len(s.blocks), s.blocks))
    return tuple(found)


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
    for block in big.blocks:
        landing = {small_block[i] for i in block if i in small_block}
        if len(landing) > 1:
            return False
    return True




class CayleyPoset:
    """The poset of all Cayley structures with at least two blocks on one
    configuration, built once and shared by every question asked of it.

    Each configuration holds one instance (``PointConfiguration.cayley_poset``).
    Structures are enumerated once per face, maximality is computed once for
    all ``k`` (a structure can only be dominated by one with at least as many
    blocks, so the components for ``k`` are the maximal structures with
    ``l >= k``), and the set of structures below a given one is kept once
    computed, so intersections of components are meets read off those sets.
    """

    def __init__(self, config: PointConfiguration):
        self.config = config
        self._on_face: dict[tuple[int, ...], tuple[CayleyStructure, ...]] = {}
        self._below: dict[CayleyStructure, tuple[CayleyStructure, ...]] = {}

    def on_face(self, face: Face) -> tuple[CayleyStructure, ...]:
        """The structures with at least two blocks on the face, in the order
        of ``enumerate_cayley_structures``."""
        if face.config != self.config:
            raise ValueError("face belongs to a different configuration")
        found = self._on_face.get(face.indices)
        if found is None:
            found = enumerate_cayley_structures(face, l_min=1)
            self._on_face[face.indices] = found
        return found

    @cached_property
    def _upper_covers(self) -> dict[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """For each nonempty face, the index sets of the faces covering it
        (containing it, one dimension higher)."""
        faces = [f for f in self.config.faces() if f.indices]
        return {
            f.indices: tuple(
                g.indices
                for g in faces
                if g.dim == f.dim + 1 and set(f.indices) < set(g.indices)
            )
            for f in faces
        }

    def maximal_among(self, structures: Sequence[CayleyStructure]) -> list[CayleyStructure]:
        """The members not dominated by another member, in input order.

        ``structures`` must be closed under restriction to faces in between:
        whenever ``p <= q`` are members with ``q`` on a larger face, the
        restriction of ``q`` to any face between the two is a member too.
        The whole poset is, and so is the set of its structures with at least
        ``k + 1`` blocks below two given structures.

        A member ``p`` on face ``F`` is then non-maximal exactly when
        ``leq(p, q)`` holds for some member ``q != p`` of one of two kinds:
        a structure on ``F`` itself (a strict refinement, so ``q.l > p.l``),
        or a structure on a face covering ``F`` (one dimension higher).

        Proof: suppose ``p <= q`` with ``q`` on a face ``G`` strictly
        containing ``F``.  Take any face ``F1`` covering ``F`` inside ``G``;
        it exists because face lattices are graded.  Restrict ``q`` to
        ``F1``.  The restriction is still a Cayley structure, because affine
        relations on ``F1`` extend by zero to relations on ``G``.  It still
        dominates ``p``, since every block of ``q`` meets ``F`` inside one
        block of ``p``.  It has at least as many blocks as ``p`` (so at least
        two), because every block of ``p`` receives one of its blocks.  It
        differs from ``p``, because it lives on a different face.
        """
        by_face: dict[tuple[int, ...], list[CayleyStructure]] = {}
        for q in structures:
            by_face.setdefault(q.face.indices, []).append(q)
        covers = self._upper_covers
        kept = []
        for p in structures:
            rivals = [q for q in by_face[p.face.indices] if q.l > p.l]
            for g in covers[p.face.indices]:
                rivals.extend(by_face.get(g, ()))
            if not any(leq(p, q) for q in rivals):
                kept.append(p)
        return kept

    @cached_property
    def maximal(self) -> tuple[CayleyStructure, ...]:
        """All maximal structures, sorted by (face indices, blocks)."""
        every = [p for face in self.config.faces() if face.indices for p in self.on_face(face)]
        return tuple(
            sorted(self.maximal_among(every), key=lambda s: (s.face.indices, s.blocks))
        )

    def below(self, pi: CayleyStructure) -> tuple[CayleyStructure, ...]:
        """The structures of the poset dominated by ``pi``, in face order
        (``pi`` itself included when it belongs to the poset)."""
        found = self._below.get(pi)
        if found is None:
            inside = set(pi.face.indices)
            found = tuple(
                q
                for face in self.config.faces()
                if face.indices and inside.issuperset(face.indices)
                for q in self.on_face(face)
                if leq(q, pi)
            )
            self._below[pi] = found
        return found


def maximal_cayley_structures(config: PointConfiguration, k: int) -> tuple[CayleyStructure, ...]:
    """Maximal Cayley structures with at least k+1 blocks, over all faces,
    sorted by (face indices, blocks).

    Maximality is computed once per configuration in the poset of all
    structures with at least two blocks (see ``CayleyPoset.maximal_among``);
    filtering by block count afterwards is equivalent because a structure can
    only be dominated by one with at least as many blocks.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    return tuple(p for p in config.cayley_poset.maximal if p.l >= k)
