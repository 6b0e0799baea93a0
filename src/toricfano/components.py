"""Irreducible components of the scheme of k-planes on an embedded toric variety.

Each irreducible component of the k-plane scheme corresponds to a maximal
Cayley structure on the defining point configuration.  This module turns
those structures into concrete component data: dimensions, distinguished
point configurations, torus-fixed points, affine chart semigroups with a
smoothness test, pairwise component intersections, and the component
connectivity graph.
"""

from __future__ import annotations

import weakref
from itertools import combinations, product
from typing import Iterable, Sequence

from .cayley import CayleyStructure, maximal_cayley_structures
from .intlinalg import IntVector, is_free_semigroup
from .pointconfig import Face, PointConfiguration, Record


class FanoComponent(Record):
    """One irreducible component of the k-plane scheme.

    ``pi`` is the maximal Cayley structure indexing the component, ``k`` the
    plane dimension, ``dimension`` the component's dimension, and
    ``fixed_points`` the torus-fixed points lying on it (as faces of the
    configuration).  ``id`` is a stable hash of the canonical form of ``pi``,
    usable as a graph vertex or report key.
    """

    pi: CayleyStructure
    k: int
    dimension: int
    fixed_points: tuple[Face, ...]
    id: str


class ChartSemigroup(Record):
    """Affine semigroup of a torus-invariant chart of one component.

    The chart is determined by a Cayley structure ``pi``, a transversal
    ``sigma_tilde`` picking one point per block, and a subset ``sigma`` of
    ``k + 1`` of those points.  Generators live in ``Z^(d + e)`` where ``d``
    is the coordinate dimension of the points and ``e = |sigma| * (l - k)``
    counts one extra coordinate per pair (point of sigma, transversal point
    outside sigma).  ``ambient_rank`` is the rank of the lattice the
    semigroup naturally spans directions in: the difference lattice of the
    configuration times ``Z^e``.

    ``labels[i]`` records which points define ``generators[i]``: either
    ``("gamma", u)`` for the plain difference generator of point ``u``, or
    ``("gamma2", v, u)`` for the generator of point ``u`` twisted by the
    extra coordinate attached to ``v`` in ``sigma``.
    """

    pi: CayleyStructure
    sigma_tilde: tuple[int, ...]
    sigma: tuple[int, ...]
    generators: tuple[IntVector, ...]
    labels: tuple[tuple, ...]
    ambient_rank: int


class ConnectivityGraph(Record):
    """Undirected graph on component ids recording which components meet."""

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]

    def connected_components(self) -> tuple[tuple[str, ...], ...]:
        """Vertex sets of the connected components, each sorted, sorted by head."""
        adjacent: dict[str, list[str]] = {v: [] for v in self.vertices}
        for a, b in self.edges:
            adjacent[a].append(b)
            adjacent[b].append(a)
        seen: set[str] = set()
        groups: list[tuple[str, ...]] = []
        for start in self.vertices:
            if start in seen:
                continue
            stack, group = [start], set()
            while stack:
                v = stack.pop()
                if v in group:
                    continue
                group.add(v)
                stack.extend(adjacent[v])
            seen |= group
            groups.append(tuple(sorted(group)))
        return tuple(sorted(groups))

    def is_connected(self) -> bool:
        return len(self.connected_components()) <= 1


def component_id(pi: CayleyStructure) -> str:
    """Stable identifier derived from the canonical form of the structure."""
    import hashlib  # here, so that mult and most of verify never load OpenSSL

    key = repr((pi.face.indices, pi.blocks)).encode()
    return hashlib.sha256(key).hexdigest()[:12]


def component_dimension(pi: CayleyStructure, k: int) -> int:
    """Dimension of the component of k-planes indexed by ``pi``.

    With ``m`` the dimension of the structure's face and ``l + 1`` its number
    of blocks, the component has dimension ``m - l + (k+1)(l-k)``.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k > pi.l:
        raise ValueError(f"k={k} exceeds the number of blocks minus one (l={pi.l})")
    m = pi.face.dim
    return m - pi.l + (k + 1) * (pi.l - k)


def component_points(pi: CayleyStructure) -> PointConfiguration:
    """Point configuration of the (toric) family of maximal planes of ``pi``.

    Its points are all sums picking one configuration point from each block,
    deduplicated.  The associated toric variety is the family of l-planes
    carved out by ``pi`` (the component for ``k = l``); for ``k < l`` the
    component is only locally toric and carries no single such configuration.
    """
    config = pi.config
    sums = {
        tuple(sum(coords) for coords in zip(*(config.points[i] for i in choice)))
        for choice in product(*pi.blocks)
    }
    return PointConfiguration(sorted(sums))


def component_fixed_points(pi: CayleyStructure, k: int) -> tuple[Face, ...]:
    """Torus-fixed points of the component: empty k-simplex faces inside the
    structure's face (its ``faces_inside``) whose ``k + 1`` points lie in
    pairwise distinct blocks."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k > pi.l:
        raise ValueError(f"k={k} exceeds the number of blocks minus one (l={pi.l})")
    return tuple(
        f
        for f in pi.face.faces_inside
        if len(f.indices) == k + 1 and f.dim == k and pi.injective_on(f.indices)
    )


def components(a: PointConfiguration, k: int) -> tuple[FanoComponent, ...]:
    """All irreducible components of the scheme of k-planes on the toric
    variety of ``a``, one per maximal Cayley structure with at least ``k + 1``
    blocks, sorted by the structure's (face indices, blocks)."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return tuple(
        FanoComponent(
            pi=pi,
            k=k,
            dimension=component_dimension(pi, k),
            fixed_points=component_fixed_points(pi, k),
            id=component_id(pi),
        )
        for pi in maximal_cayley_structures(a, k)
    )


def chart_semigroup(
    pi: CayleyStructure, sigma_tilde: Iterable[int], sigma: Iterable[int]
) -> ChartSemigroup:
    """Semigroup of the chart of the component at the data (sigma_tilde, sigma).

    ``sigma_tilde`` must pick exactly one point from each block of ``pi`` and
    ``sigma`` must be a subset of it of size ``k + 1``.  For every point ``u``
    of the structure's face let ``lam(u)`` be the transversal point sharing
    its block.  The generators are ``u - lam(u)`` (padded with zeros) when
    ``lam(u)`` lies in ``sigma``, and otherwise, for each ``v`` in ``sigma``,
    ``u - lam(u)`` plus the unit vector of the extra coordinate indexed by
    the pair ``(v, lam(u))``.
    """
    config = pi.config
    st = tuple(sorted(set(sigma_tilde)))
    s = tuple(sorted(set(sigma)))
    face_set = set(pi.face.indices)
    if not set(st) <= face_set:
        raise ValueError("sigma_tilde must consist of points of the structure's face")
    if len(st) != pi.l + 1 or len({pi.block_of[i] for i in st}) != pi.l + 1:
        raise ValueError("sigma_tilde must pick exactly one point from each block")
    if not set(s) <= set(st):
        raise ValueError("sigma must be a subset of sigma_tilde")
    if not s:
        raise ValueError("sigma must be nonempty")
    rep_of_block = {pi.block_of[i]: i for i in st}
    outside = tuple(w for w in st if w not in set(s))
    pair_index = {(v, w): n for n, (v, w) in enumerate(product(s, outside))}
    e = len(pair_index)
    gens: list[IntVector] = []
    labels: list[tuple] = []
    for u in pi.face.indices:
        lam = rep_of_block[pi.block_of[u]]
        diff = tuple(x - y for x, y in zip(config.points[u], config.points[lam]))
        if lam in s:
            gens.append(diff + (0,) * e)
            labels.append(("gamma", u))
        else:
            for v in s:
                extra = [0] * e
                extra[pair_index[(v, lam)]] = 1
                gens.append(diff + tuple(extra))
                labels.append(("gamma2", v, u))
    return ChartSemigroup(
        pi=pi,
        sigma_tilde=st,
        sigma=s,
        generators=tuple(gens),
        labels=tuple(labels),
        ambient_rank=config.dimension + e,
    )


def chart_generators_reduced(c: ChartSemigroup) -> tuple[IntVector, ...]:
    """Distinct nonzero generators in coordinates of the ambient lattice.

    The point-space part of each generator is rewritten in a basis of the
    configuration's difference lattice; the extra coordinates are kept as-is.
    The resulting vectors have length ``c.ambient_rank``.
    """
    config = c.pi.config
    d = len(config.points[0])
    out: set[IntVector] = set()
    for g in c.generators:
        if not any(g):
            continue
        coords = config.difference_coordinates(g[:d])
        if coords is None:  # impossible: differences lie in the lattice
            raise AssertionError("chart generator outside the difference lattice")
        out.add(coords + g[d:])
    return tuple(sorted(out))


# configuration -> {reduced chart generators: free?}; weak, so it keeps no
# configuration alive
_free_charts: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def chart_is_smooth(c: ChartSemigroup) -> bool:
    """Whether the affine chart is a smooth (free) semigroup chart.

    True iff some linearly independent subset of the distinct nonzero
    generators spans the whole semigroup by nonnegative integer combinations
    and generates a direct summand of the ambient lattice.  The answer
    depends only on the reduced generators, and many charts of one
    configuration share them, so each distinct set is decided once per
    configuration.
    """
    gens = chart_generators_reduced(c)
    known = _free_charts.setdefault(c.pi.config, {})
    if gens not in known:
        known[gens] = is_free_semigroup(gens)
    return known[gens]


def components_intersection(
    a: PointConfiguration, pi1: CayleyStructure, pi2: CayleyStructure, k: int
) -> tuple[CayleyStructure, ...]:
    """Maximal common refinements describing the intersection of two components.

    Returns the maximal elements (for the domination order) among all Cayley
    structures with at least ``k + 1`` blocks lying below both inputs.  The
    intersection of the two components is the union of the k-plane families
    of the returned structures; an empty tuple means the components are
    disjoint.  They are ``CayleyPoset.intersection`` filtered to ``l >= k``: a
    restriction never adds blocks, so a candidate with ``l >= k`` is removed
    only by a candidate with ``l >= k``, and filtering after the rule gives
    the same result as filtering before it.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    for pi in (pi1, pi2):
        if pi.config != a:
            raise ValueError("structures must belong to the given configuration")
        if pi.l < k:
            raise ValueError("structures must have at least k+1 blocks")
    return tuple(q for q in a.cayley_poset.intersection(pi1, pi2) if q.l >= k)


def connectivity_graph(comps: Sequence[FanoComponent]) -> ConnectivityGraph:
    """Graph on the ids of the given components, ``components(a, k)``; two
    are adjacent iff they share a torus-fixed point, i.e. some empty k-simplex
    face inside both faces on which both structures are injective."""
    fixed = [{f.indices for f in c.fixed_points} for c in comps]
    edges = [
        tuple(sorted((c1.id, c2.id)))
        for (c1, f1), (c2, f2) in combinations(zip(comps, fixed), 2)
        if f1 & f2
    ]
    return ConnectivityGraph(
        vertices=tuple(c.id for c in comps), edges=tuple(sorted(edges))
    )


def is_covered_by_k_planes(a: PointConfiguration, k: int) -> bool:
    """Whether the toric variety of ``a`` is covered by k-planes: true iff the
    full configuration carries a Cayley structure with at least ``k + 1``
    blocks, so exactly when some maximal one there does: a finest structure
    refines it, and no face lies above the full face."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return any(p.l >= k and len(p.face.indices) == len(a.points) for p in a.cayley_poset.maximal)
