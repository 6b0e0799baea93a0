"""Independent oracles for the fast paths of the other modules.

Everything here recomputes from first principles: affine relation lattices
of faces (built once per face per run and passed to the plane, vanishing and
chart-sample checks), the block-plane parametrization substituted into the
binomial relations, exact rational sampling of chart parametrizations, and
a search over set partitions of a face that extends only blocks passing the
block-sum test (each distinct block tested once per call).  A chart is
validated, and its planes' full row rank certified, once per call; each
sampled plane holds integer (numerator, denominator) pairs drawn per trial,
and is decided by unique factorization of its column forms with integer
cross-multiplication, never a ``Fraction``.  The tests hold the fast paths
to agreement with these.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache, cached_property
from itertools import combinations
from math import gcd, lcm
from typing import Mapping, Sequence

from .cayley import CayleyStructure
from .components import chart_semigroup
from .intlinalg import (
    IntVector,
    UnsupportedSizeError,
    integer_kernel_basis,
    matrix_rank,
)
from .pointconfig import Face, PointConfiguration, Record

BRUTE_FORCE_MAX_POINTS = 12
SWEEP_MAX_POINTS = 7  # the verify command's sweep over every set partition
_SAMPLE_RANGE = 97


class RelationBasis(Record):
    """Basis of the affine relations among a face's points.

    Each vector is indexed like the face's points; its entries sum to zero
    and weight the points to a zero vector sum.  The basis spans the full
    (saturated) relation lattice.
    """

    face: Face
    vectors: tuple[IntVector, ...]


class PlaneParametrization(Record, eq=False):
    """A specialized plane, one matrix row per spanning point, one column
    per configuration point, exact rational entries (each an ``int`` or a
    ``Fraction``), full row rank.  ``entries`` holds them as integer
    (numerator, denominator) pairs, denominators positive; ``matrix`` is
    their ``Fraction`` view."""

    entries: tuple[tuple[tuple[int, int], ...], ...]

    def __init__(self, matrix):
        rows = tuple(tuple(map(_entry_pair, row)) for row in matrix)
        object.__setattr__(self, "entries", rows)
        # Every row alone nonzero in some column gives a diagonal minor, so
        # full rank; otherwise the HNF of the rows cleared of denominators decides.
        if not _diagonal_minor([[n != 0 for n, _ in row] for row in rows]):
            scales = [lcm(*(d for _, d in row)) for row in rows]
            cleared = [[n * (c // d) for n, d in row] for row, c in zip(rows, scales)]
            if matrix_rank(cleared) != len(rows):
                raise ValueError("plane matrix must have full row rank")

    @cached_property
    def matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(n, d) for n, d in row) for row in self.entries)


def _entry_pair(x) -> tuple[int, int]:
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise ValueError(f"plane entry {x!r} is not an int or a Fraction")
    return x.numerator, x.denominator


def _diagonal_minor(nonzero: Sequence[Sequence[bool]]) -> bool:
    """Whether every row of the nonzero pattern is alone nonzero in some column."""
    alone = {col.index(True) for col in zip(*nonzero, strict=True) if sum(col) == 1}
    return len(alone) == len(nonzero)


def relation_basis(a: PointConfiguration, tau: "Face | Sequence[int]") -> RelationBasis:
    """Saturated basis of the affine relation lattice of the face's points."""
    face = a.face(tau)
    if not face.indices:
        return RelationBasis(face=face, vectors=())
    vectors = integer_kernel_basis(face.subconfiguration().homogenized)
    return RelationBasis(face=face, vectors=vectors)


def _substituted_sides(
    pi: CayleyStructure, relation: Sequence[int]
) -> tuple[tuple, tuple]:
    """Both sides of the binomial relation after the block substitution.

    Each point variable becomes (character for point - block representative)
    times the variable of its block; a side is summarized by its total
    character exponent and its block-exponent vector.
    """
    face = pi.face
    d = face.config.ambient_dim
    block_of = pi.block_of
    reps = [face.config.points[b[0]] for b in pi.blocks]
    sides = []
    for sign in (1, -1):
        char = [0] * d
        block_exp = [0] * len(pi.blocks)
        for pos, idx in enumerate(face.indices):
            mult = relation[pos] * sign
            if mult <= 0:
                continue
            b = block_of[idx]
            p = face.config.points[idx]
            for t in range(d):
                char[t] += mult * (p[t] - reps[b][t])
            block_exp[b] += mult
        sides.append((tuple(char), tuple(block_exp)))
    return sides[0], sides[1]


def verify_cayley_plane(relations: RelationBasis, pi: CayleyStructure) -> bool:
    """Whether the block plane of the partition lies on the toric variety.

    Substitutes the plane's parametrization into each binomial relation of
    ``relations``, the partition's face's basis, and demands formal equality.
    Checking a basis of the face's relation lattice suffices: both side
    summaries are additive in the relation vector.  Relations of the full
    configuration with support off the face vanish identically on the
    plane — the face witness forces every such relation to touch the
    complement on both sides, where all plane coordinates are zero.
    """
    if relations.face != pi.face:
        raise ValueError("relation basis belongs to a different face")
    for vec in relations.vectors:
        lhs, rhs = _substituted_sides(pi, vec)
        if lhs != rhs:
            return False
    return True


def _chart_plane_builder(pi: CayleyStructure, sigma_tilde: Sequence[int], sigma: Sequence[int]):
    """Validate the chart data once; the returned function builds the plane
    of a chart point at a torus point and coefficients, each given as
    (numerator, denominator) pairs of positive integers.

    Rows are indexed by the points of ``sigma``; the column of a face point
    whose block representative lies in ``sigma`` carries the character value
    of its offset in that row only, while a column represented outside
    ``sigma`` spreads the character value across all rows weighted by the
    coefficient attached to the (row point, representative) pair.  Columns
    off the face are zero.  Every other entry is nonzero, so the full-row-rank
    certificate is checked once, on the nonzero pattern shared by all planes.
    """
    chart_semigroup(pi, sigma_tilde, sigma)  # validates the chart data
    a = pi.config
    s = tuple(sorted(sigma))
    rep_of_block = {pi.block_of[i]: i for i in sorted(sigma_tilde)}
    columns = []  # (index, representative, offset, its one row or None for every row)
    for idx in pi.face.indices:
        rep = rep_of_block[pi.block_of[idx]]
        offset = tuple(x - y for x, y in zip(a.points[idx], a.points[rep]))
        columns.append((idx, rep, offset, s.index(rep) if rep in s else None))
    # sigma's own columns give it: each point of sigma represents its block
    if not _diagonal_minor([[row in (r, None) for *_, row in columns] for r in range(len(s))]):
        raise ValueError("chart plane has no diagonal minor")

    def build(t, coefficients):
        rows = [[(0, 1)] * len(a.points) for _ in s]
        for idx, rep, offset, row in columns:
            num = den = 1  # the character of the offset at t is num / den
            for (n, d), e in zip(t, offset):
                if e > 0:
                    num, den = num * n**e, den * d**e
                elif e < 0:
                    num, den = num * d**-e, den * n**-e
            if row is not None:
                rows[row][idx] = (num, den)
            else:
                for entries, v in zip(rows, s):
                    n, d = coefficients[(v, rep)]
                    entries[idx] = (num * n, den * d)
        plane = object.__new__(PlaneParametrization)  # its rank is certified above
        object.__setattr__(plane, "entries", tuple(map(tuple, rows)))
        return plane

    return build


def relations_vanish_on(relations: RelationBasis, plane: PlaneParametrization) -> bool:
    """Whether every relation of the full configuration's basis is identically
    zero on the plane, as a polynomial in the spanning coefficients.

    Column c is a linear form F_c in the row variables y; relation u
    vanishes when the products of F_c^(u_c) over u_c > 0 and of F_c^(-u_c)
    over u_c < 0 are equal.  A side with a zero column is zero; any other is
    (product of lead_c^m) times the product of the F_c / lead_c, lead_c being
    F_c's first nonzero entry.  Two such sides are equal exactly when their
    scalars and multisets of normalized forms are: Q[y] is a unique
    factorization domain, a nonzero linear form is irreducible, two are
    associates exactly when proportional, and the lead picks one per class.
    In the plane's integer pairs, with lead p/q, the entry n/d of F_c / lead_c
    is (n q)/(d p); cut by the gcd to a positive denominator it is the one
    such pair of its value, so these pairs key the normalized forms.  A side's
    scalar is a pair N/D with D > 0 (0/1 for a zero side, with no forms), so
    two scalars are equal exactly when N1 D2 = N2 D1.
    """
    a = relations.face.config
    if len(relations.face.indices) != len(a.points):
        raise ValueError("relation basis must be the full configuration's")
    if any(len(row) != len(a.points) for row in plane.entries):
        raise ValueError("plane matrix must have one column per point")
    ids: dict[tuple, int] = {}  # F_c / lead_c, by its nonzero entries -> its id
    forms = []  # per column: None if zero, else (p, q, id of F_c / lead_c)
    for col in range(len(a.points)):
        nonzero = [(r, row[col]) for r, row in enumerate(plane.entries) if row[col][0]]
        if not nonzero:
            forms.append(None)
            continue
        (first, (p, q)), rest = nonzero[0], nonzero[1:]
        unit = 1 if p > 0 else -1  # n/d over p/q is (unit n q)/(unit d p), denominator > 0
        key = [first]
        for r, (n, d) in rest:
            g = unit * gcd(n * q, d * p)
            key.append((r, n * q // g, d * p // g))
        forms.append((p, q, ids.setdefault(tuple(key), len(ids))))

    def side(vec, sign):
        num, den, factors = 1, 1, {}
        for form, mult in zip(forms, vec):
            if (m := sign * mult) > 0:
                if form is None:
                    return 0, 1, {}
                num, den = num * form[0] ** m, den * form[1] ** m
                factors[form[2]] = factors.get(form[2], 0) + m
        return num, den, factors

    def vanishes(vec) -> bool:
        (n1, d1, f1), (n2, d2, f2) = side(vec, 1), side(vec, -1)
        return f1 == f2 and n1 * d2 == n2 * d1

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
    checks every relation of ``relations`` (the full configuration's basis)
    vanishes identically on the plane.  Trial ``i`` seeds its own generator
    from ``seed`` and ``i``, so runs are reproducible and order-independent.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if relations.face.config != pi.config:
        raise ValueError("relation basis belongs to a different configuration")
    build = _chart_plane_builder(pi, sigma_tilde, sigma)
    dim, s = pi.config.ambient_dim, tuple(sorted(sigma))
    keys = [(v, w) for v in s for w in sorted(sigma_tilde) if w not in s]
    for trial in range(trials):
        draws = iter(_sample_draws(seed * 1_000_003 + trial, 2 * (dim + len(keys))))
        pairs = list(zip(draws, draws))  # numerator, then denominator
        if not relations_vanish_on(relations, build(pairs[:dim], dict(zip(keys, pairs[dim:])))):
            return False
    return True


def _sample_draws(seed: int, count: int) -> list[int]:
    """The first ``count`` values of ``random.Random(seed).randint(1, _SAMPLE_RANGE)``,
    by ``_randbelow``'s rule: as many random bits as the range has, redrawn until below it."""
    bits, width, draws = random.Random(seed).getrandbits, _SAMPLE_RANGE.bit_length(), []
    while len(draws) < count:
        if (r := bits(width)) < _SAMPLE_RANGE:
            draws.append(1 + r)
    return draws


def all_set_partitions(items: Sequence[int]):
    """Every partition of the items into unordered nonempty blocks."""
    if not items:
        yield []
        return
    first = items[0]
    for part in all_set_partitions(items[1:]):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1 :]
        yield [[first]] + part


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
