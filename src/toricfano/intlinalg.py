"""Exact linear algebra over the integers and rationals.

Everything here works with arbitrary-precision Python ints and
``fractions.Fraction``; no floating point is used anywhere.  Matrices are
immutable tuples of tuples of ints (rows by columns), vectors are tuples.

The central primitive is a row-style Hermite normal form with a tracked
unimodular transform; kernel bases, ranks, affine relation lattices, the
test for saturated lattices (unit pivots in the form of the transposed
basis) and integer solving against a basis factored once all derive from
it.  Cone facets come from one exact double description (``_dual_rays``,
behind ``cone_facets``).  The free-semigroup test behind chart smoothness
is one form and no description: given a grading positive on its vectors,
the form of the vectors sorted by degree is free exactly when its pivots
are 1 and its entries nonnegative.  Only a caller with no grading pays
for the facets, whose normals sum to one.
"""

from __future__ import annotations

from itertools import product
from math import gcd
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence, TypeAlias

if TYPE_CHECKING:
    from fractions import Fraction

IntMatrix = tuple[tuple[int, ...], ...]
IntVector = tuple[int, ...]
RatVector: TypeAlias = "tuple[Fraction, ...]"  # a string: no command imports fractions


class UnsupportedSizeError(ValueError):
    """Input exceeds the documented desk-scale bounds."""


def as_matrix(rows: Iterable[Sequence[int]]) -> IntMatrix:
    """Normalize an iterable of rows into an immutable integer matrix."""
    m = tuple(tuple(int(x) for x in row) for row in rows)
    if m and any(len(row) != len(m[0]) for row in m):
        raise ValueError("ragged matrix: rows have different lengths")
    return m


def identity_matrix(n: int) -> IntMatrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def transpose(m: IntMatrix) -> IntMatrix:
    return tuple(zip(*m)) if m else ()


def hermite_normal_form(m: Iterable[Sequence[int]]) -> tuple[IntMatrix, IntMatrix]:
    """Row-style Hermite normal form ``h`` of ``m`` with transform ``u``.

    Returns ``(h, u)`` where ``u`` is unimodular (integer, det +-1) and
    ``u * m == h``.  Convention: ``h`` is upper echelon, pivots are positive,
    and entries above each pivot are reduced into ``[0, pivot)``.  Zero rows
    sit at the bottom.
    """
    mm = as_matrix(m)
    nrows = len(mm)
    ncols = len(mm[0]) if nrows else 0
    h = [list(row) for row in mm]
    u = [list(row) for row in identity_matrix(nrows)]

    def row_sub(i: int, q: int, j: int) -> None:
        # row_i -= q * row_j in both h and u
        if q:
            h[i] = [a - q * b for a, b in zip(h[i], h[j])]
            u[i] = [a - q * b for a, b in zip(u[i], u[j])]

    def row_swap(i: int, j: int) -> None:
        if i != j:
            h[i], h[j] = h[j], h[i]
            u[i], u[j] = u[j], u[i]

    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot = next((i for i in range(r, nrows) if h[i][c]), None)
        if pivot is None:
            continue
        row_swap(r, pivot)
        for i in range(r + 1, nrows):
            # Euclidean elimination: shrink |h[i][c]| to zero.
            while h[i][c]:
                q = h[r][c] // h[i][c]
                row_sub(r, q, i)
                row_swap(r, i)
        if h[r][c] < 0:
            h[r] = [-a for a in h[r]]
            u[r] = [-a for a in u[r]]
        for i in range(r):
            row_sub(i, h[i][c] // h[r][c], r)
        r += 1

    return tuple(map(tuple, h)), tuple(map(tuple, u))


def lattice_basis(vectors: Iterable[Sequence[int]]) -> IntMatrix:
    """Canonical (HNF) basis of the lattice generated by the vectors."""
    vs = as_matrix(vectors)
    if not vs:
        return ()
    h, _ = hermite_normal_form(vs)
    return tuple(row for row in h if any(row))


def _kernel(rows: IntMatrix, ncols: int) -> IntMatrix:
    """Basis of the saturated lattice {v : rows . v = 0} in Z^ncols."""
    if not rows:
        return identity_matrix(ncols)
    h, u = hermite_normal_form(transpose(rows))
    rank = sum(1 for row in h if any(row))
    return u[rank:]


def integer_kernel_basis(m: Iterable[Sequence[int]]) -> IntMatrix:
    """Basis of the full integer kernel lattice {v : m . v = 0}.

    The returned basis generates a saturated lattice: every integer solution
    is an integer (not merely rational) combination of the basis vectors.
    """
    mm = as_matrix(m)
    if not mm:
        raise ValueError("kernel of an empty matrix is undefined; no column count")
    return _kernel(mm, len(mm[0]))


def is_saturated(vectors: Iterable[Sequence[int]]) -> bool:
    """Whether the lattice generated by the vectors is saturated.

    Saturated means every integer point of the rational span already lies in
    the lattice; equivalently the lattice is a direct summand of Z^n.  For a
    basis ``B`` of rank ``r`` and ``u * B^T == h``, the gcd of the maximal
    minors of ``B`` is that of ``h`` (``u`` is unimodular), the product of the
    pivots ``h[i][i]``; it is 1 exactly for a direct summand.
    """
    basis = lattice_basis(vectors)
    h, _ = hermite_normal_form(transpose(basis))
    return all(h[i][i] == 1 for i in range(len(basis)))


def rational_solve(rows: Iterable[Sequence[int]], v: Sequence[int | Fraction]) -> Optional[RatVector]:
    """Solve ``x . rows = v`` over the rationals; None if inconsistent.

    When the rows are linearly dependent an arbitrary consistent solution is
    returned.  The package solves with ``integer_solver``; this ``Fraction``
    elimination is kept as its independent reference.
    """
    from fractions import Fraction

    rr = [list(map(Fraction, row)) for row in rows]
    target = [Fraction(x) for x in v]
    n = len(rr)
    if n == 0:
        return () if not any(target) else None
    ncols = len(rr[0])
    if len(target) != ncols:
        raise ValueError("vector length does not match row length")
    # Gaussian elimination on the transposed system rows^T x^T = v^T,
    # augmented with the identity to recover x.
    aug = [[rr[i][c] for i in range(n)] + [target[c]] for c in range(ncols)]
    pivots: list[tuple[int, int]] = []
    row = 0
    for col in range(n):
        piv = next((i for i in range(row, ncols) if aug[i][col]), None)
        if piv is None:
            continue
        aug[row], aug[piv] = aug[piv], aug[row]
        inv = 1 / aug[row][col]
        aug[row] = [a * inv for a in aug[row]]
        for i in range(ncols):
            if i != row and aug[i][col]:
                factor = aug[i][col]
                aug[i] = [a - factor * b for a, b in zip(aug[i], aug[row])]
        pivots.append((row, col))
        row += 1
    # Inconsistent if any zeroed row has a nonzero rhs.
    for i in range(row, ncols):
        if aug[i][n]:
            return None
    x = [Fraction(0)] * n
    for prow, pcol in pivots:
        x[pcol] = aug[prow][n]
    return tuple(x)


def integer_solver(
    basis: Iterable[Sequence[int]],
) -> Callable[[Sequence[int]], Optional[IntVector]]:
    """Factor linearly independent basis rows once, to solve for many vectors.

    Returns a function that maps ``v`` to the integer vector ``x`` with
    ``x . basis == v``, or to None when ``v`` is not an integer combination of
    the rows.  With ``u * basis == h`` from the Hermite normal form,
    ``x . basis == v`` reads ``y . h == v`` for ``y = x * u^-1``.  The rows of
    ``h`` are echelon, so forward substitution on their pivot columns gives
    ``y``; it is integral exactly when each pivot divides its residual entry,
    ``v`` is in the span exactly when the final residual vanishes, and
    ``x = y * u``.  Raises ValueError when the rows are linearly dependent.
    """
    rows = as_matrix(basis)
    if not rows:
        return lambda v: None if any(v) else ()
    h, u = hermite_normal_form(rows)
    if not any(h[-1]):
        raise ValueError("basis rows are linearly dependent")
    ncols = len(rows[0])
    pivots = [next(j for j, x in enumerate(row) if x) for row in h]

    def coordinates(v: Sequence[int]) -> Optional[IntVector]:
        if len(v) != ncols:
            raise ValueError("vector length does not match row length")
        residual = list(v)
        y = []
        for row, p in zip(h, pivots):
            q, rem = divmod(residual[p], row[p])
            if rem:
                return None
            if q:
                residual = [a - q * b for a, b in zip(residual, row)]
            y.append(q)
        if any(residual):
            return None
        return tuple(sum(c * row[j] for c, row in zip(y, u)) for j in range(len(u)))

    return coordinates


def is_free_semigroup(vectors: Sequence[IntVector], grading: Optional[Sequence[int]] = None) -> bool:
    """Whether distinct nonzero vectors generate a free semigroup on a basis
    of a direct summand of Z^n.

    True iff some linearly independent subset of the vectors, as large as
    their rank, has every vector as a nonnegative integer combination and
    generates a saturated sublattice of Z^n: the affine toric chart of the
    semigroup is smooth (Cox-Little-Schenck, *Toric Varieties*, Thm.
    1.3.12).  The empty set is free.

    ``grading[i]`` is the degree of ``vectors[i]``: the values of a linear
    functional, positive on every vector.  Without one, the degrees are
    those of the sum of the ``cone_facets`` normals.  A vector of degree 0
    lies on every facet, so its negative lies in the cone too; and a cone
    with a line has some of the vectors in its lineality space, its
    smallest face, where every facet normal vanishes.  So some degree is
    0 exactly when the cone holds a line, and then the answer is False.  A
    given grading with a degree that is not positive, or that is not the
    values of a linear functional on the vectors, raises ValueError.

    One factorization ``u * V^T == h`` of the vectors ``V`` sorted by degree
    decides it: free iff every pivot of ``h`` is 1 and no entry of ``h`` is
    negative.  The unimodular ``u`` maps the vectors' rational span onto
    ``Q^r x 0``, hence the integer points of that span, the saturation ``L``
    of the vectors' lattice, onto ``Z^r x 0``.  The pivot columns of ``h``
    are the greedy basis: each vector not in the span of those before it.
    If every pivot is 1, the entries above it are reduced to 0, so the pivot
    vectors map onto the unit vectors of ``Z^r``, a basis of ``L``, and
    every other column holds its vector's coordinates in that basis; with
    none negative the semigroup is free on the pivot vectors.  Conversely,
    let the semigroup be free on a basis ``B`` of ``L`` taken from the
    vectors.  A vector ``g`` outside ``B`` is a nonnegative integer
    combination of ``B`` with coefficients summing to at least 2 (``g`` is
    nonzero and no element of ``B``), so by linearity and positivity each
    basis element it uses has smaller degree than ``g`` and comes before it:
    ``g`` is no pivot.  A basis element ``b`` is one: everything before it
    lies in the span of ``B`` without ``b``.  So the pivot vectors are
    ``B``, and their columns of ``h``, upper triangular with positive
    pivots, generate ``Z^r``: every pivot is 1, and the other columns, their
    coordinates, are nonnegative.
    """
    if not vectors:
        return True
    if grading is None:
        normal = [sum(column) for column in zip(*cone_facets(vectors))]  # empty for a linear space
        grading = [_dot(normal, g) for g in vectors]
        if not all(grading):
            return False
    elif len(grading) != len(vectors) or any(d <= 0 for d in grading):
        raise ValueError("grading must give every vector a positive degree")
    order = sorted(range(len(vectors)), key=grading.__getitem__)
    # V^T: one row per coordinate, one column per vector, in degree order
    h, _ = hermite_normal_form(tuple(zip(*(vectors[i] for i in order))))
    # the degrees are linear exactly when they lie in the rational row space
    # of h: eliminating each pivot column from them leaves zero
    free, residual = True, [grading[i] for i in order]
    for row in h:
        p = next((j for j, x in enumerate(row) if x), None)
        if p is None:
            break
        free = free and row[p] == 1 and min(row) >= 0
        residual = [row[p] * x - residual[p] * y for x, y in zip(residual, row)]
    if any(residual):
        raise ValueError("grading is not linear on the vectors")
    return free


def _homogenized_rows(points: Sequence[IntVector]) -> IntMatrix:
    """Rows = coordinates of the points plus a final row of ones."""
    d = len(points[0]) if points else 0
    coord_rows = tuple(tuple(p[i] for p in points) for i in range(d))
    return coord_rows + ((1,) * len(points),)


def affine_relation_lattice(points: Sequence[Sequence[int]]) -> IntMatrix:
    """Canonical basis of {lambda : sum lambda_i p_i = 0, sum lambda_i = 0}."""
    pts = tuple(tuple(int(x) for x in p) for p in points)
    if not pts:
        return ()
    return lattice_basis(_kernel(_homogenized_rows(pts), len(pts)))


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(x * y for x, y in zip(a, b))


def _combine(a: int, x: Sequence[int], b: int, y: Sequence[int]) -> IntVector:
    """The primitive integer vector along ``a * x - b * y``."""
    z = [a * s - b * t for s, t in zip(x, y)]
    g = gcd(*z)
    return tuple(s // g for s in z)


def cone_facets(vectors: Iterable[Sequence[int]]) -> tuple[IntVector, ...]:
    """Sorted primitive integer inward normals of the facets of the vectors' cone.

    They are zero outside the pivot columns of the vectors' ``lattice_basis``,
    where the vectors span Q^r, so they are the extreme rays of the pointed
    dual cone {y : y . v >= 0} there (``_dual_rays``; none for a linear space).
    """
    vs = as_matrix(vectors)
    pivots = [next(j for j, x in enumerate(row) if x) for row in lattice_basis(vs)]
    rays = _dual_rays([tuple(v[j] for j in pivots) for v in vs], len(pivots))
    width = len(vs[0]) if vs else 0
    return tuple(sorted(tuple(dict(zip(pivots, y)).get(j, 0) for j in range(width)) for y in rays))


def _dual_rays(vectors: Sequence[IntVector], r: int) -> list[IntVector]:
    """Primitive extreme rays of {y : y . v >= 0} for vectors spanning Q^r.

    An exact incremental double description (Motzkin et al. 1953;
    Fukuda-Prodon 1996) from r lines.  A constraint that some line does not
    vanish on cuts it into a ray and moves the other lines and rays along it
    onto the hyperplane; otherwise a positive and a negative ray combine there
    when no third ray is tight wherever both are.  The vectors span, so every
    line is cut.
    """
    lines = list(identity_matrix(r))
    rays: list[tuple[IntVector, int]] = []  # with the bitmask of constraints tight there
    for i, v in enumerate(vectors):
        cut = next((line for line in lines if _dot(line, v)), None)
        if cut is not None:
            lines.remove(cut)
            s = _dot(cut, v)
            cut = tuple(x if s > 0 else -x for x in cut)  # into the half-space
            lines = [_combine(abs(s), y, _dot(y, v), cut) for y in lines]
            rays = [(_combine(abs(s), y, _dot(y, v), cut), z | 1 << i) for y, z in rays]
            rays.append((cut, (1 << i) - 1))
            continue
        side = [_dot(y, v) for y, _ in rays]
        kept = [(y, z | 1 << i if d == 0 else z) for (y, z), d in zip(rays, side) if d >= 0]
        pairs = [(a, b) for a, b in product(range(len(rays)), repeat=2) if side[a] > 0 > side[b]]
        for a, b in pairs:
            both = rays[a][1] & rays[b][1]
            if not any(z & both == both for t, (_, z) in enumerate(rays) if t not in (a, b)):
                kept.append((_combine(side[a], rays[b][0], side[b], rays[a][0]), both | 1 << i))
        rays = kept
    return [y for y, _ in rays]
