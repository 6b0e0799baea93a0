"""Local structure of the k-plane scheme at fixed points in codimension one.

When the plane dimension k is one less than the dimension of the
configuration, and the configuration is smooth at an empty-simplex facet
``sigma``, the coordinate ring of the chart of the k-plane scheme at the
corresponding fixed point has an explicit monomial basis.  This module
computes height coordinates of configuration points over ``sigma``, the
per-point ideals (the monomials of one degree but a few kept ones), the basis
of the local ring by one walk up its standard monomials (``_walk``, capped at
``MAX_WALK``), which is finite exactly when the fixed plane is isolated, and
the multiplicity of an isolated fixed plane — by counting the basis and,
independently, from the height filtration.

The smoothness hypothesis is not tested apart: the search for an apex of
height one over ``sigma`` decides it and yields every point's height
coordinates in the same pass (``_apex_and_heights``), and the local ring
basis is built in the same search.  It runs once per facet, and every public
function here, the command line's only route in, reads its stored record.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from .intlinalg import IntVector, UnsupportedSizeError, integer_solver
from .pointconfig import Face, PointConfiguration, Record


class HypothesesViolated(ValueError):
    """The codimension-one local-structure hypotheses fail for this input."""


class HeightCoords(Record):
    """Coordinates of a point over the base simplex in the direction of w.

    A point u is written uniquely as ``v_0 + h*(w - v_0) - sum c_i*(v_i - v_0)``
    over the simplex ``{v_0, ..., v_k}``; ``h >= 0`` is its height.  The
    derived coordinate ``c0 = h - 1 - sum(c)`` completes ``c`` to the full
    vector ``cvec = (c0, c_1, ..., c_k)``.
    """

    h: int
    c: tuple[int, ...]

    def __init__(self, h: int, c: tuple[int, ...]):
        if h < 0:
            raise ValueError("height must be nonnegative")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "c", c)

    @property
    def c0(self) -> int:
        return self.h - 1 - sum(self.c)

    @property
    def cvec(self) -> tuple[int, ...]:
        return (self.c0,) + self.c


Heights = dict[IntVector, HeightCoords]  # every configuration point's coordinates


class MonomialSet(Record):
    """A set of exponent vectors given as standard monomials of a monomial ideal.

    The set consists of all alpha in Z_{>=0}^nvars such that no generator in
    ``ideal_part`` divides alpha componentwise (the empty ideal describes the
    whole orthant).  When the set is finite, ``finite_part`` lists its
    members in graded lexicographic order.
    """

    nvars: int
    ideal_part: tuple[IntVector, ...]
    is_finite: bool
    finite_part: tuple[IntVector, ...]

    def contains(self, alpha: Sequence[int]) -> bool:
        """Membership read off the generators in ``ideal_part``, not the walk."""
        a = tuple(int(x) for x in alpha)
        if len(a) != self.nvars:
            raise ValueError("exponent vector has the wrong length")
        if any(x < 0 for x in a):
            return False
        return not any(_divides(g, a) for g in self.ideal_part)

    def cardinality(self) -> Optional[int]:
        return len(self.finite_part) if self.is_finite else None


def _divides(g: Sequence[int], alpha: Sequence[int]) -> bool:
    return all(a >= b for a, b in zip(alpha, g))


MAX_WALK = 500_000  # the most monomials one walk lists; past it, exit 3


def _walk(nvars: int, cuts: dict[int, frozenset[IntVector]]) -> MonomialSet:
    """The standard monomials of the ideal that ``cuts`` generates, walked up
    from the origin one degree at a time.  Of the degree-``d`` ones it keeps
    those in ``cuts[d]`` and drops the rest, the minimal generators of degree
    ``d``.  A monomial is in the ideal exactly when it is a generator or a
    monomial one degree below that divides it is, so a step costs ``nvars``
    lookups per monomial, however many generators there are.  Past the last
    cut a pure power still standard stays standard in every degree, and the
    set is infinite; otherwise the walk ends at the first degree left empty."""
    top = max(cuts, default=-1)
    layer, gens, members = {(0,) * nvars}, [], []
    d = 0
    while True:
        if d in cuts:
            kept = layer & cuts[d]
            gens += sorted(layer - kept)
            layer = kept
        if not layer or d >= top and any(max(m) == d for m in layer):
            return MonomialSet(nvars, tuple(gens), not layer, () if layer else tuple(members))
        members += sorted(layer)
        if len(members) > MAX_WALK:
            raise UnsupportedSizeError(f"the local ring walk lists at most {MAX_WALK} monomials")
        up = {m[:i] + (m[i] + 1,) + m[i + 1 :] for m in layer for i in range(nvars)}
        layer = {
            a
            for a in up
            if all(a[:i] + (a[i] - 1,) + a[i + 1 :] in layer for i in range(nvars) if a[i])
        }
        d += 1


def choose_w(a: PointConfiguration, sigma: "Face | Sequence[int]") -> IntVector:
    """The canonical apex point over the facet ``sigma``.

    Returns the lexicographically smallest configuration point ``w`` over
    which every configuration point has integral, nonnegative heights; then
    ``w - v_0`` and the edges of ``sigma`` are a basis of the difference
    lattice (see ``_apex_and_heights``).
    """
    return _apex_and_heights(a, sigma)[1]


def height_coordinates(
    a: PointConfiguration,
    sigma: "Face | Sequence[int]",
    w: Sequence[int],
    u: Sequence[int],
) -> HeightCoords:
    """The unique coordinates (h, c) of ``u`` over ``sigma`` with apex ``w``."""
    face, apex, heights, _ = _apex_and_heights(a, sigma)
    if tuple(w) == apex and tuple(u) in heights:
        return heights[tuple(u)]
    return _heights_over(face, w)(u)


def _heights_over(face: Face, w: Sequence[int]) -> Callable[[Sequence[int]], HeightCoords]:
    """``height_coordinates`` over a validated facet, with the basis of ``w``
    and the edges of ``face`` factored once for every point."""
    v0 = face.points[0]
    rows = [tuple(int(x) - y for x, y in zip(w, v0))]
    rows += [tuple(x - y for x, y in zip(v, v0)) for v in face.points[1:]]
    try:
        coordinates = integer_solver(rows)
    except ValueError as exc:  # dependent rows
        raise HypothesesViolated(
            "apex is affinely dependent on sigma; coordinates are not unique"
        ) from exc

    def heights(u: Sequence[int]) -> HeightCoords:
        coords = coordinates(tuple(int(x) - y for x, y in zip(u, v0)))
        if coords is None:
            raise HypothesesViolated(
                "point has no integral height coordinates over sigma with this apex"
            )
        if coords[0] < 0:
            raise HypothesesViolated("point has negative height over sigma")
        return HeightCoords(h=coords[0], c=tuple(-x for x in coords[1:]))

    return heights


def s_u_case(hc: HeightCoords) -> int:
    """Which of the six standard-monomial case patterns matches (first match)."""
    return _match(hc)[0]


def _match(hc: HeightCoords) -> tuple[int, int, int]:
    """The first matching case pattern and the positions ``j`` and ``l`` that
    ``_degree_and_kept`` reads (-1 where unused).  Cases 1 and 2 read only the
    first -1 entry ``j``: if it fails case 1, two other entries are nonzero, so
    any later -1 entry fails too, and case 2 at a later one would need c[j] >= 0."""
    c = hc.cvec
    support = [i for i, x in enumerate(c) if x]
    if -1 in c:
        j = c.index(-1)
        for l in range(len(c)):
            if l != j and set(support) <= {j, l}:
                return 1, j, l
        if all(0 <= x < hc.h for i, x in enumerate(c) if i != j):
            return 2, j, -1
    if len(support) <= 1:
        return 3, (support or [0])[0], -1
    if len(support) == 2 and all(c[i] > 0 for i in support):
        return 4, -1, -1
    if len(support) >= 3 and min(c) >= 0:
        return 5, -1, -1
    return 6, -1, -1


def _degree_and_kept(hc: HeightCoords, k: int) -> tuple[int, frozenset[IntVector]]:
    """The ideal whose standard monomials a point with these coordinates
    keeps (every exponent vector of total degree below the height, and those
    of higher degree that the matching case pattern keeps), as one degree
    ``d`` and the kept monomials: every monomial of degree ``d`` but the kept
    ones generates it."""
    if len(hc.c) != k:
        raise ValueError(f"expected {k} offset coordinates, got {len(hc.c)}")
    if hc.h == 0 and k >= 2:
        raise ValueError("height 0 leaves the kept axis undefined for k >= 2")
    n, h = k + 1, hc.h
    case, j, l = _match(hc)
    shifts = [tuple(x + (t == i) for t, x in enumerate(hc.cvec)) for i in range(n)]
    if case == 1:  # at height 0, the degree-1 monomials but x_l
        return max(h, 1), frozenset({tuple(max(h, 1) * (t == l) for t in range(n))})
    if case == 2:
        return h, frozenset({shifts[j]})
    if case == 3 and h < 2:  # generated by the degree-2 monomials free of x_j
        return 2, frozenset(tuple((t == i) + (t == j) for t in range(n)) for i in range(n))
    return h, frozenset(shifts if case in (3, 4, 5) else ())


def local_ring_basis(
    a: PointConfiguration, sigma: "Face | Sequence[int]"
) -> MonomialSet:
    """Monomial basis of the local ring of the k-plane scheme at the fixed
    point of ``sigma``: the intersection of the per-point standard-monomial
    sets over all configuration points outside ``sigma`` and the apex."""
    return _apex_and_heights(a, sigma)[3]


def _apex_and_heights(
    a: PointConfiguration, sigma: "Face | Sequence[int]"
) -> tuple[Face, IntVector, Heights, MonomialSet]:
    """The validated facet, its apex, every point's heights over them, and
    the facet's local ring basis: the one test of the local-structure
    hypotheses at ``sigma``, shared by all questions there.

    ``sigma`` must be an empty-simplex face of dimension one less than the
    configuration.  The apex is the first point ``w`` off ``sigma``, in
    lexicographic order, over which every configuration point has integral,
    nonnegative heights; such a point exists exactly when the configuration
    is smooth at ``sigma``.  (<=) If ``w`` passes, the rows ``(w - v_0,
    edges)`` generate the difference lattice, so they form a basis of it; the
    quotient by the edge lattice is then Z, the heights are the images of the
    points there, and ``h(w) = 1``, so the semigroup of images is N.  (=>) If
    the configuration is smooth at ``sigma``, the images of the other points
    in that quotient form ``N*g`` with ``g = +-1``, and a point whose image
    is ``g`` passes.
    """
    try:
        face = a.face(sigma)
    except UnsupportedSizeError:
        raise
    except ValueError as exc:
        raise HypothesesViolated(f"sigma is not a face: {exc}") from exc
    k = a.dimension - 1
    if k < 0:
        raise HypothesesViolated("configuration must be at least one-dimensional")
    if face.dim != k or len(face.indices) != k + 1:
        raise HypothesesViolated(
            "sigma must be an empty-simplex face of dimension one less than "
            "the configuration"
        )
    found = face.memo("_apex_search", lambda: _apex_search(face))
    if found is None:
        raise HypothesesViolated("configuration is not smooth at sigma")
    return (face, *found)


def _apex_search(face: Face) -> Optional[tuple[IntVector, Heights, MonomialSet]]:
    """``_apex_and_heights``'s search and basis over a validated facet, or None.

    The basis is one walk over the points off the facet and the apex, taken
    in nondecreasing degree, with no filter.  Let ``J`` be the sum so far,
    with minimal generators ``G`` of degree at most ``d``, and add a point
    whose ideal is generated by ``S``, the degree-``d`` monomials outside its
    kept set.  The minimal generators of the sum lie in ``G`` and ``S``.  A
    member of ``S`` in ``J`` is not minimal.  One outside ``J`` is: no member
    of ``G`` divides it, nor does another member of ``S``, of its degree.
    Each member of ``G`` stays minimal, as ``S`` has no degree below ``d``.
    So the new generators are exactly the degree-``d`` standard monomials of
    ``J`` outside the kept set (the walk's cut at ``d``), the generators stay
    an antichain, and a point of a degree the walk no longer reaches adds
    nothing.  Points of one degree make one cut, by all their kept sets.
    """
    sigma_points = set(face.points)
    for w in sorted(face.config.points):
        if w in sigma_points:
            continue
        try:
            height_of = _heights_over(face, w)
            heights = {u: height_of(u) for u in face.config.points}
        except HypothesesViolated:
            continue
        kept_at: dict[int, frozenset[IntVector]] = {}
        for u in set(heights) - sigma_points - {w}:
            d, kept = _degree_and_kept(heights[u], face.dim)
            kept_at[d] = kept_at.get(d, kept) & kept
        return w, heights, _walk(face.dim + 1, kept_at)
    return None


def multiplicity(a: PointConfiguration, sigma: "Face | Sequence[int]") -> int:
    """Multiplicity of the isolated fixed plane: the basis cardinality."""
    basis = local_ring_basis(a, sigma)
    if not basis.is_finite:
        raise HypothesesViolated("fixed point is not isolated")
    return len(basis.finite_part)


def _is_nonneg_multiple(delta: IntVector, direction: IntVector) -> bool:
    if not any(delta):
        return True
    t = next((i for i, x in enumerate(direction) if x), None)
    if t is None or delta[t] % direction[t]:
        return False
    n = delta[t] // direction[t]
    return n >= 0 and all(x == n * d for x, d in zip(delta, direction))


def multiplicity_by_height(
    a: PointConfiguration, sigma: "Face | Sequence[int]"
) -> int:
    """Multiplicity of an isolated fixed plane from the height filtration.

    Requires a second configuration point of height one besides the apex.
    Returns the smallest m at which the set of points of height at most m is
    contained in none of the translated rays ``sigma + N*(w - v_i)``.
    """
    if not local_ring_basis(a, sigma).is_finite:
        raise HypothesesViolated("fixed point is not isolated")
    face, w, heights, _ = _apex_and_heights(a, sigma)
    height = {u: hc.h for u, hc in heights.items()}
    if not any(h == 1 and u != w for u, h in height.items()):
        raise HypothesesViolated("no second configuration point at height one")
    vs = face.points
    directions = [tuple(x - y for x, y in zip(w, v)) for v in vs]
    for m in range(1, max(height.values()) + 1):
        layer = [u for u, h in height.items() if h <= m]
        if not any(
            all(
                any(
                    _is_nonneg_multiple(tuple(x - y for x, y in zip(u, v)), d)
                    for v in vs
                )
                for u in layer
            )
            for d in directions
        ):
            return m
    raise HypothesesViolated(
        "every height layer lies on the translated rays; the fixed point "
        "cannot be isolated"
    )
