"""Independent oracles for the fast paths of the other modules.

Everything here recomputes from first principles: affine relation lattices
of faces (each face's kernel computed once), planes of chart
parametrizations sampled at exact rationals, and a search over set
partitions of a face that extends only blocks passing the block-sum test
(each distinct block tested once per call).  Both plane checks, of block
planes and of chart samples, build their planes through one path and test
each against the relations of its own face, the face its nonzero columns
span: off that face's torus a lattice basis decides nothing (see
``relations_vanish_on``).  A chart is validated once per call; its sampled
planes hold integer (numerator, denominator) pairs, never a ``Fraction``,
and trial ``i`` of every chart reads a prefix of one memoized stream seeded
from ``seed`` and ``i``.  The tests hold the fast paths to agreement with
these.
"""

from __future__ import annotations

import random
from functools import cache, lru_cache
from itertools import combinations
from math import gcd
from typing import Mapping, Sequence

from .cayley import CayleyStructure
from .components import _chart_data
from .intlinalg import (
    IntVector,
    UnsupportedSizeError,
    _homogenized_rows,
    integer_kernel_basis,
)
from .pointconfig import Face, PointConfiguration, Record

BRUTE_FORCE_MAX_POINTS = 12
_SAMPLE_RANGE = 97
_DRAWS_MEMO_SIZE = 1_024  # trial streams kept per process; bounded for library loops over seeds


class RelationBasis(Record):
    """Basis of the affine relations among a face's points.

    Each vector is indexed like the face's points; its entries sum to zero
    and weight the points to a zero vector sum.  The basis spans the full
    (saturated) relation lattice.
    """

    face: Face
    vectors: tuple[IntVector, ...]


def _diagonal_minor(nonzero: Sequence[Sequence[bool]]) -> bool:
    """Whether every row of the nonzero pattern is alone nonzero in some column."""
    alone = {col.index(True) for col in zip(*nonzero, strict=True) if sum(col) == 1}
    return len(alone) == len(nonzero)


def relation_basis(a: PointConfiguration, tau: "Face | Sequence[int]") -> RelationBasis:
    """Saturated basis of the affine relation lattice of the face's points.

    The oracle's own kernel, not ``Face.relations``; computed once per face,
    since ``verify`` asks for every face's basis and ``brute_force_cayley``
    for its face's again."""
    face = a.face(tau)
    vectors = face.memo(
        "_relation_vectors",
        lambda: integer_kernel_basis(_homogenized_rows(face.points)) if face.indices else (),
    )
    return RelationBasis(face=face, vectors=vectors)


def verify_cayley_plane(relations: RelationBasis, pi: CayleyStructure) -> bool:
    """Whether the block plane of the partition lies on the toric variety.

    The block plane has one row per block, holding each point's character
    from its block's first point: the chart plane whose transversal and
    ``sigma`` are the blocks' first points.  It is built at the torus point
    of trial 0 of seed 0, as ``verify_chart_sample`` draws it, and decided
    by ``relations_vanish_on`` against ``relations``, the basis of the
    partition's face.  The point does not change the verdict: the torus
    moves the block plane at one point onto the block plane at any other
    (scaling a row changes no plane), and it maps the variety onto itself.
    """
    if relations.face != pi.face:
        raise ValueError("relation basis belongs to a different face")
    heads = tuple(b[0] for b in pi.blocks)
    build = _chart_plane_builder(pi, heads, heads)
    return relations_vanish_on(relations, build(_trial_pairs(0, 0, pi.config.ambient_dim), {}))


def _chart_plane_builder(pi: CayleyStructure, sigma_tilde: Sequence[int], sigma: Sequence[int]):
    """Validate the chart data once; the returned function builds the plane
    of a chart point at a torus point and coefficients, each given as
    (numerator, denominator) pairs of positive integers.  A plane is a tuple
    of rows, one per point of ``sigma``, each holding one such pair per
    configuration point; the pairs are not reduced.

    Rows are indexed by the points of ``sigma``; the column of a face point
    whose block representative lies in ``sigma`` carries the character value
    of its offset in that row only, while a column represented outside
    ``sigma`` spreads the character value across all rows weighted by the
    coefficient attached to the (row point, representative) pair.  Columns
    off the face are zero.  Every other entry is nonzero, so the full-row-rank
    certificate is checked once, on the nonzero pattern shared by all planes.
    """
    st, s = _chart_data(pi, sigma_tilde, sigma)
    a = pi.config
    rep_of_block = {pi.block_of[i]: i for i in st}
    # per face point: (index, representative, the offset's nonzero
    # (coordinate, exponent) pairs, its one row or None for every row)
    columns = []
    for idx in pi.face.indices:
        rep = rep_of_block[pi.block_of[idx]]
        offset = [(t, x - y) for t, (x, y) in enumerate(zip(a.points[idx], a.points[rep])) if x != y]
        columns.append((idx, rep, tuple(offset), s.index(rep) if rep in s else None))
    # sigma's own columns give it: each point of sigma represents its block
    if not _diagonal_minor([[row in (r, None) for *_, row in columns] for r in range(len(s))]):
        raise ValueError("chart plane has no diagonal minor")

    def build(t, coefficients):
        rows = [[(0, 1)] * len(a.points) for _ in s]
        for idx, rep, offset, row in columns:
            num = den = 1  # the character of the offset at t is num / den
            for coord, e in offset:
                n, d = t[coord]
                if e > 0:
                    num, den = num * n**e, den * d**e
                else:
                    num, den = num * d**-e, den * n**-e
            if row is not None:
                rows[row][idx] = (num, den)
            else:
                for entries, v in zip(rows, s):
                    n, d = coefficients[(v, rep)]
                    entries[idx] = (num * n, den * d)
        return tuple(map(tuple, rows))

    return build


def relations_vanish_on(
    relations: RelationBasis, plane: Sequence[Sequence[tuple[int, int]]]
) -> bool:
    """Whether the plane lies on the toric variety with support exactly the
    face of ``relations``: its nonzero columns are the face's points, and
    every relation of the face's basis is identically zero on them, as a
    polynomial in the spanning coefficients.

    The plane holds one row per spanning point, and each row one exact entry
    per configuration point, as an integer (numerator, denominator) pair with
    a positive denominator; any other entry, or a row of another length, is a
    ``ValueError`` naming it.

    A point lies on the variety exactly when its support is a face and it
    satisfies the binomials of that face's relation lattice; the plane does
    exactly when its generic point, the combination of its rows by
    variables y, does.  That point's support is the plane's nonzero columns;
    when these are the face's points, it lies on the face's torus, where a
    lattice basis suffices: column c of the face is a nonzero linear form
    F_c in y, a unit of Q(y), and u -> product of F_c^(u_c) is a group
    homomorphism from the lattice to the units, trivial on the lattice
    exactly when it is on a basis.  So the verdict does not depend on which
    basis of the face's lattice is given.  Off the torus a basis decides
    nothing, which is why the support must be the basis's own face.

    Relation u vanishes when the products of F_c^(u_c) over u_c > 0 and of
    F_c^(-u_c) over u_c < 0 are equal.  Each side is (product of lead_c^m)
    times the product of the F_c / lead_c, lead_c being F_c's first nonzero
    entry.  Two such sides are equal exactly when their scalars and multisets
    of normalized forms are: Q[y] is a unique factorization domain, a nonzero
    linear form is irreducible, two are associates exactly when proportional,
    and the lead picks one per class.  In the plane's integer pairs, with
    lead p/q, the entry n/d of F_c / lead_c is (n q)/(d p); cut by the gcd to
    a positive denominator it is the one such pair of its value, so these
    pairs key the normalized forms.  A side's scalar is a pair N/D with
    D > 0, so two scalars are equal exactly when N1 D2 = N2 D1.
    """
    a = relations.face.config
    for r, row in enumerate(plane):
        if len(row) != len(a.points):
            raise ValueError(f"plane row {r} has {len(row)} entries, not one per point")
        for c, entry in enumerate(row):
            if not (
                type(entry) is tuple
                and len(entry) == 2
                and type(entry[0]) is int
                and type(entry[1]) is int
                and entry[1] > 0
            ):
                raise ValueError(
                    f"plane entry {entry!r} at row {r}, column {c} is not an (int, int) pair"
                    " with a positive denominator"
                )
    ids: dict[tuple, int] = {}  # F_c / lead_c, by its nonzero entries -> its id
    forms = {}  # per nonzero column c: (p, q, id of F_c / lead_c)
    for c, column in enumerate(zip(*plane)):
        key = None  # F_c / lead_c's nonzero entries, once the lead p/q is found
        for r, (n, d) in enumerate(column):
            if not n:
                continue
            if key is None:
                p, q, key = n, d, [r]
                unit = 1 if p > 0 else -1  # n/d over p/q is (unit n q)/(unit d p), denominator > 0
            else:
                g = unit * gcd(n * q, d * p)
                key.append((r, n * q // g, d * p // g))
        if key is not None:
            forms[c] = (p, q, ids.setdefault(tuple(key), len(ids)))
    if tuple(forms) != relations.face.indices:  # the support is not the face
        return False

    def vanishes(vec) -> bool:
        # N1 D2 and N2 D1, each side's scalar being N/D, and per normalized
        # form its exponent on the left minus its exponent on the right
        lhs = rhs = 1
        exponents: dict[int, int] = {}
        for (p, q, form_id), m in zip(forms.values(), vec):
            if not m:
                continue
            if m > 0:
                lhs, rhs = lhs * p**m, rhs * q**m
            else:
                lhs, rhs = lhs * q**-m, rhs * p**-m
            exponents[form_id] = exponents.get(form_id, 0) + m
        return lhs == rhs and not any(exponents.values())

    return all(map(vanishes, relations.vectors))


def verify_chart_sample(
    relations: RelationBasis,
    pi: CayleyStructure,
    sigma_tilde: Sequence[int],
    sigma: Sequence[int],
    trials: int = 25,
    seed: int = 0,
) -> bool:
    """Whether sampled points of the chart all lie on the toric variety.

    Draws ``trials`` pseudo-random rational specializations of the torus
    and coefficient parameters (numerators and denominators up to 97) and
    decides each plane by ``relations_vanish_on`` against ``relations``, the
    basis of the structure's face, which every chart plane has as its
    support.  Trial ``i`` seeds its own generator from ``seed`` and ``i``, so
    runs are reproducible and order-independent, and every chart's trial
    ``i`` reads a prefix of the same memoized draws.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if relations.face != pi.face:
        raise ValueError("relation basis belongs to a different face")
    build = _chart_plane_builder(pi, sigma_tilde, sigma)
    dim, s = pi.config.ambient_dim, tuple(sorted(sigma))
    keys = [(v, w) for v in s for w in sorted(sigma_tilde) if w not in s]
    for trial in range(trials):
        pairs = _trial_pairs(seed, trial, dim + len(keys))
        if not relations_vanish_on(relations, build(pairs[:dim], dict(zip(keys, pairs[dim:])))):
            return False
    return True


def _trial_pairs(seed: int, trial: int, count: int) -> list[tuple[int, int]]:
    """The first ``count`` (numerator, denominator) pairs of the trial's stream,
    each numerator drawn before its denominator."""
    draws = iter(_sample_draws(seed * 1_000_003 + trial, 2 * count))
    return list(zip(draws, draws))


@lru_cache(maxsize=_DRAWS_MEMO_SIZE)
def _sample_draws(seed: int, count: int) -> tuple[int, ...]:
    """The first ``count`` values of ``random.Random(seed).randint(1, _SAMPLE_RANGE)``,
    by ``_randbelow``'s rule: as many random bits as the range has, redrawn until below it.

    Memoized: every chart's trial ``i`` reads a prefix of the same stream, so
    the charts of one ``verify`` share their trials' draws."""
    bits, width, draws = random.Random(seed).getrandbits, _SAMPLE_RANGE.bit_length(), []
    while len(draws) < count:
        if (r := bits(width)) < _SAMPLE_RANGE:
            draws.append(1 + r)
    return tuple(draws)


def brute_force_cayley(
    a: PointConfiguration, tau: "Face | Sequence[int]", l_min: int = 1
) -> tuple[CayleyStructure, ...]:
    """All Cayley structures on the face, by a search over blocks that pass.

    The smallest unplaced point's block is chosen among the unplaced points,
    and the search recurses only if the block's entries sum to zero in every
    relation of its own basis (not ``Face.relations``, no echelon order: this
    is the slow oracle).  Partitions of at least ``l_min + 1`` blocks are kept.
    A partition qualifies exactly when each of its blocks passes, and it is
    reached exactly once: by its blocks in order of smallest element, which
    is ``CayleyStructure``'s canonical order.  Each distinct block's test
    runs once per call.
    """
    face = a.face(tau)
    if len(face.indices) > BRUTE_FORCE_MAX_POINTS:
        raise UnsupportedSizeError(
            f"brute-force enumeration is capped at {BRUTE_FORCE_MAX_POINTS} points"
        )
    relations = relation_basis(a, face).vectors
    position = {idx: pos for pos, idx in enumerate(face.indices)}

    @cache
    def zero_sum(block: tuple[int, ...]) -> bool:  # blocks are sorted tuples
        return _block_sums_to_zero(relations, position, block)

    found = []

    def extend(blocks: list[tuple[int, ...]], rest: tuple[int, ...]) -> None:
        if not rest:
            if len(blocks) >= l_min + 1:
                found.append(CayleyStructure(face, blocks))
            return
        first, others = rest[0], rest[1:]
        for size in range(len(others) + 1):
            for chosen in combinations(others, size):
                if zero_sum(block := (first, *chosen)):
                    extend(blocks + [block], tuple(i for i in others if i not in chosen))

    extend([], face.indices)
    return tuple(sorted(found, key=lambda p: p.blocks))


def _block_sums_to_zero(
    relations: Sequence[IntVector], position: Mapping[int, int], block: Sequence[int]
) -> bool:
    """Whether the block's entries sum to zero in every relation."""
    return all(sum(vec[position[i]] for i in block) == 0 for vec in relations)
