"""Lattice point configurations, their faces, and local smoothness.

A configuration is a finite set of distinct points in Z^d, kept in a fixed
order so that faces, block partitions, and reports can refer to points by
index.  A face is the subset of points lying on a face of the convex hull,
certified by an integer witness functional that attains its minimum exactly
on the face.

Smoothness at an empty-simplex face sigma means the affine semigroup
generated by all differences (point - sigma vertex) is, up to isomorphism,
Z^k x N^(n-k) with the unit part spanned by sigma's own edge vectors; for
the projective toric variety attached to the configuration this is exactly
smoothness along the torus orbit closure of sigma.
"""

from __future__ import annotations

from functools import cache, cached_property
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

from .intlinalg import (
    IntMatrix,
    IntVector,
    UnsupportedSizeError,
    affine_relation_lattice,
    cone_facets,
    hermite_normal_form,
    integer_solver,
    is_free_semigroup,
    lattice_basis,
)

if TYPE_CHECKING:
    from .cayley import CayleyPoset

MAX_POINTS = 14
MAX_DIM = 6


class Record:
    """An immutable value whose fields are its class's annotations, in order.

    A subclass gets ``__init__`` by position or keyword unless it defines one,
    and ``__eq__`` within its class and ``__hash__``, both of the field tuple;
    the hash is computed once per instance.  ``cached_property`` still works,
    and ``memo`` is its form for data another module derives from a record.
    """

    def __init_subclass__(cls):
        names = cls._fields = tuple(cls.__annotations__)
        required = set(names)
        if "__init__" not in cls.__dict__:

            def __init__(self, *args, **fields):
                given = len(fields)
                fields.update(zip(names, args))
                if len(fields) != given + len(args) or fields.keys() != required:
                    raise TypeError(f"{cls.__name__} takes the fields {', '.join(names)}")
                self.__dict__.update(fields)

            cls.__init__ = __init__
        get = attrgetter(*names)
        key = get if len(names) > 1 else lambda self: (get(self),)

        def __eq__(self, other):
            same = other.__class__ is self.__class__
            return key(self) == key(other) if same else NotImplemented

        def __hash__(self):
            try:
                return self.__dict__["_hash"]
            except KeyError:
                return self.memo("_hash", lambda: hash(key(self)))

        cls.__eq__ = __eq__
        cls.__hash__ = __hash__

    def memo(self, name: str, compute: Callable[[], object]):
        """``self.<name>``, from ``compute()`` on the first call and stored on
        the record from then on.  It is no field: ``==``, ``hash`` and
        ``repr`` ignore it, and it is freed with the record."""
        try:
            return self.__dict__[name]
        except KeyError:
            value = self.__dict__[name] = compute()
            return value

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__name__}({fields})"


class PointConfiguration(Record):
    """An ordered finite set of distinct lattice points."""

    points: tuple[IntVector, ...]

    def __init__(self, points: Iterable[Sequence[int]]):
        pts = tuple(tuple(int(x) for x in p) for p in points)
        if pts and any(len(p) != len(pts[0]) for p in pts):
            raise ValueError("all points must share one ambient dimension")
        if len(set(pts)) != len(pts):
            raise ValueError("duplicate points are not allowed")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def ambient_dim(self) -> int:
        if not self.points:
            raise ValueError("empty configuration has no ambient dimension")
        return len(self.points[0])

    @cached_property
    def dimension(self) -> int:
        """Dimension of the affine span (= dimension of the toric variety)."""
        if not self.points:
            raise ValueError("empty configuration has no dimension")
        return len(self.difference_basis)

    @cached_property
    def difference_basis(self) -> IntMatrix:
        """Canonical basis of the lattice generated by point differences."""
        p0 = self.points[0]
        diffs = [tuple(a - b for a, b in zip(p, p0)) for p in self.points[1:]]
        return lattice_basis(diffs)

    @cached_property
    def difference_coordinates(self) -> Callable[[IntVector], Optional[IntVector]]:
        """Integer coordinates of a vector (a tuple) in ``difference_basis``,
        or None off the lattice.  The basis is factored once and each
        distinct vector, typically a difference of two points, is solved once
        per configuration."""
        return cache(integer_solver(self.difference_basis))

    @cached_property
    def _face_list(self) -> tuple["Face", ...]:
        return _enumerate_faces(self)

    @cached_property
    def _face_by_indices(self) -> dict[tuple[int, ...], "Face"]:
        return {f.indices: f for f in self._face_list}

    @cached_property
    def cayley_poset(self) -> CayleyPoset:
        """The Cayley poset of this configuration, built once from the finest
        structures and shared by components, intersections and coverage."""
        from .cayley import CayleyPoset

        return CayleyPoset(self)

    def faces(self) -> tuple["Face", ...]:
        """All faces (including the configuration itself, its vertices, and
        the empty face of dimension -1), sorted by (size, index set)."""
        return self._face_list

    def face_from_indices(self, indices: Sequence[int]) -> "Face":
        """The face with exactly this index set; raises if it is not a face."""
        key = tuple(sorted(set(indices)))
        face = self._face_by_indices.get(key)
        if face is None:
            raise ValueError(f"indices {key} do not form a face")
        return face

    def face(self, tau: "Face | Sequence[int]") -> "Face":
        """The face ``tau`` names, as is if it is a face of this configuration;
        ValueError for a face of another one or indices of no face, while
        face enumeration's ``UnsupportedSizeError`` passes through."""
        if not isinstance(tau, Face):
            return self.face_from_indices(tau)
        if tau.config != self:
            raise ValueError("face belongs to a different configuration")
        return tau

    def fixed_point_faces(self, k: int) -> tuple["Face", ...]:
        """Faces that are empty k-simplices (k+1 points, affine dimension k).

        These index the torus fixed points of the scheme of k-planes on the
        associated toric variety.
        """
        if k < 0:
            raise ValueError("k must be nonnegative")
        return tuple(
            f for f in self._face_list if len(f.indices) == k + 1 and f.dim == k
        )

    def is_smooth_at(self, sigma: "Face | Sequence[int]") -> bool:
        """Whether the configuration is smooth at an empty-simplex face.

        True iff the semigroup generated by all differences (point - sigma
        point) is isomorphic to Z^k x N^(n-k): sigma's edge lattice must be a
        saturated rank-k direct summand of the difference lattice, and the
        images of the remaining points in the quotient must generate a free
        semigroup on a lattice basis.
        """
        face = self.face(sigma)
        idx = face.indices
        if not idx or face.dim != len(idx) - 1:
            raise ValueError(f"face {idx} is not an empty simplex")
        k = len(idx) - 1
        n = self.dimension
        v0 = self.points[idx[0]]

        def coordinates(i: int) -> IntVector:
            # (point i - v0) in the basis of the rank-n difference lattice
            c = self.difference_coordinates(
                tuple(a - b for a, b in zip(self.points[i], v0))
            )
            assert c is not None, "difference lattice must contain its generators"
            return c

        # One HNF u * E^T = h of the k independent edge coordinates E: the
        # edges span a direct summand of Z^n iff the k pivots of h are 1, and
        # then v -> u[k:] . v maps Z^n onto Z^(n-k) with kernel exactly the
        # edge lattice (u is unimodular and u[k:] . E^T = 0).  E^T is built
        # column by column so that a vertex (k = 0) still gives n rows.
        edges = [coordinates(i) for i in idx[1:]]
        h, u = hermite_normal_form(tuple(tuple(e[j] for e in edges) for j in range(n)))
        if any(h[i][i] != 1 for i in range(k)):
            return False
        # The images of the other points are nonzero: a point off the face
        # sigma is off its affine span.  The witness grades them: w . (p - v0)
        # is positive off sigma and vanishes on the edge lattice, the kernel,
        # so it is a linear functional of the image.
        images = {}
        for i in set(range(len(self.points))) - set(idx):
            c = coordinates(i)
            image = tuple(sum(a * b for a, b in zip(row, c)) for row in u[k:])
            images[image] = sum(a * b for a, b in zip(face.witness, self.points[i])) - face.offset
        # Rank n-k: the differences generate Z^n and u[k:] maps it onto Z^(n-k).
        vectors = sorted(images)
        return is_free_semigroup(vectors, [images[v] for v in vectors])


class Face(Record):
    """A face of a configuration: index set plus an integer witness.

    The witness functional satisfies witness . p == offset for points on the
    face and witness . p > offset for all other points of the configuration.
    ``facets`` holds the index sets of the faces this one covers (inside it,
    one dimension lower), and ``dim`` its affine dimension.
    """

    config: PointConfiguration
    indices: tuple[int, ...]
    witness: IntVector
    offset: int
    facets: tuple[tuple[int, ...], ...]
    dim: int

    @cached_property
    def faces_inside(self) -> tuple["Face", ...]:
        """Every face inside this one, itself and the empty face included,
        sorted like ``config.faces()``: one walk down through ``facets``."""
        by_indices, seen, work = self.config._face_by_indices, {self.indices}, [self]
        for face in work:  # grows as the walk goes down
            lower = set(face.facets) - seen
            seen |= lower
            work += map(by_indices.__getitem__, lower)
        return tuple(sorted(work, key=lambda f: (len(f.indices), f.indices)))

    @cached_property
    def relations(self) -> IntMatrix:
        """Basis of the affine relations among the face's points, each row
        indexed like ``indices``, echelon by last nonzero entry: the rows
        ending before position t span the relations supported on the first
        t points.  Empty for affinely independent points (a simplex)."""
        if len(self.indices) == self.dim + 1:
            return ()
        return tuple(row[::-1] for row in reversed(affine_relation_lattice(self.points[::-1])))

    @cached_property
    def cayley_blocks(self) -> tuple[tuple[int, ...], ...]:
        """Every nonempty index set of the face that sums to zero in every row
        of ``relations`` (a possible block of a Cayley structure), sorted.
        One search keeps the first point in and places the others in order,
        in or out; the rows ending at a placed point then have final sums,
        which must be zero.  The complement of a block is one too (rows sum
        to zero over the face): these are the blocks without the first point."""
        if not self.indices:
            return ()
        idx, rows = self.indices, self.relations
        last = [max(p for p, x in enumerate(row) if x) for row in rows]
        # each search state: the points placed in the block, each row's sum over them
        states = [((idx[0],), tuple(row[0] for row in rows))]
        for t in range(1, len(idx)):
            grown = [(c + (idx[t],), tuple(v + row[t] for v, row in zip(s, rows))) for c, s in states]
            states = [(c, s) for c, s in states + grown if not any(v for v, e in zip(s, last) if e == t)]
        found = [c for c, _ in states]
        return tuple(sorted(found + [tuple(sorted(set(idx) - set(c))) for c in found if c != idx]))

    @property
    def points(self) -> tuple[IntVector, ...]:
        return tuple(self.config.points[i] for i in self.indices)

    def __repr__(self) -> str:
        return f"Face{self.indices}"


def _enumerate_faces(config: PointConfiguration) -> tuple[Face, ...]:
    """Full face list via supporting hyperplanes of the convex hull, with
    each face's facets and dimension.

    The facets are those of the cone over the points (1, p): its inward
    normal y from ``cone_facets`` gives the witness y[1:] and offset -y[0]
    (a single point's one facet is the empty face, witness 0, offset -1).
    Every face is the intersection of the facets containing it, and the
    faces that a face F covers are exactly the inclusion-maximal proper
    intersections of F with a facet.  So walking down from the configuration
    itself and intersecting each new face with the facets only reaches every
    face and records its facets on the way; witnesses add, and a face found
    below F has dimension one less than F's.
    """
    pts = config.points
    npts = len(pts)
    if npts == 0:
        return ()
    if npts > MAX_POINTS:
        raise UnsupportedSizeError(
            f"face enumeration supports at most {MAX_POINTS} points, got {npts}"
        )
    if config.dimension > MAX_DIM:
        raise UnsupportedSizeError(
            f"face enumeration supports dimension at most {MAX_DIM}"
        )
    n = config.dimension

    facets: dict[tuple[int, ...], tuple[IntVector, int]] = {}
    for y in cone_facets((1,) + p for p in pts):
        on = tuple(i for i, p in enumerate(pts) if sum(a * b for a, b in zip(y, (1,) + p)) == 0)
        facets[on] = (y[1:], -y[0])

    all_idx = tuple(range(npts))
    # index set -> (witness, offset, dimension)
    faces: dict[tuple[int, ...], tuple[IntVector, int, int]] = {all_idx: ((0,) * config.ambient_dim, 0, n)}
    below: dict[tuple[int, ...], tuple[tuple[int, ...], ...]] = {}
    work = [all_idx]
    for upper in work:  # grows as new faces are found
        w1, c1, dim = faces[upper]
        members = set(upper)
        meets = {}
        for facet, (w2, c2) in facets.items():
            common = tuple(i for i in facet if i in members)
            if common != upper and common not in meets:
                meets[common] = (tuple(a + b for a, b in zip(w1, w2)), c1 + c2, dim - 1)
        sets = [frozenset(lower) for lower in meets]  # upper's facets are its maximal meets
        below[upper] = tuple(m for m, s in zip(meets, sets) if not any(s < t for t in sets))
        for lower in below[upper]:
            if lower not in faces:
                faces[lower] = meets[lower]
                work.append(lower)

    result = [Face(config, idx, w, c, below[idx], dim) for idx, (w, c, dim) in faces.items()]
    return tuple(sorted(result, key=lambda f: (len(f.indices), f.indices)))
