"""Independent oracles for the fast paths of the other modules.

Everything here recomputes from first principles: affine relation lattices
of faces (built once per face per run and passed to the plane, vanishing and
chart-sample checks), the block-plane parametrization substituted into the
binomial relations, exact rational sampling of chart parametrizations
(validated once per call, built from integer draws) decided by unique
factorization of the column forms, and a search over set partitions of a
face that extends only blocks passing the block-sum test (each distinct
block tested once per call).  The tests hold the fast paths to agreement with these.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import lcm
from typing import Mapping, Sequence

from .cayley import CayleyStructure
from .components import chart_semigroup
from .intlinalg import (
    IntVector,
    UnsupportedSizeError,
    integer_kernel_basis,
    matrix_rank,
)
from .pointconfig import Face, PointConfiguration

BRUTE_FORCE_MAX_POINTS = 12
SWEEP_MAX_POINTS = 7  # the verify command's sweep over every set partition
_SAMPLE_RANGE = 97


@dataclass(frozen=True)
class RelationBasis:
    """Basis of the affine relations among a face's points.

    Each vector is indexed like the face's points; its entries sum to zero
    and weight the points to a zero vector sum.  The basis spans the full
    (saturated) relation lattice.
    """

    face: Face
    vectors: tuple[IntVector, ...]


@dataclass(frozen=True)
class PlaneParametrization:
    """A specialized plane, one matrix row per spanning point, one column
    per configuration point, exact rational entries, full row rank."""

    matrix: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        rows = tuple(
            tuple(x if isinstance(x, Fraction) else Fraction(x) for x in row) for row in self.matrix
        )
        object.__setattr__(self, "matrix", rows)
        # Every row alone nonzero in some column gives a diagonal minor, so
        # full rank; otherwise the HNF of the rows cleared of denominators decides.
        nonzero = [[i for i, x in enumerate(col) if x] for col in zip(*rows, strict=True)]
        if len({nz[0] for nz in nonzero if len(nz) == 1}) != len(rows):
            scales = [lcm(*(x.denominator for x in row)) for row in rows]
            if matrix_rank([[int(x * c) for x in r] for r, c in zip(rows, scales)]) != len(rows):
                raise ValueError("plane matrix must have full row rank")


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
    (numerator, denominator) pairs.

    Rows are indexed by the points of ``sigma``; the column of a face point
    whose block representative lies in ``sigma`` carries the character value
    of its offset in that row only, while a column represented outside
    ``sigma`` spreads the character value across all rows weighted by the
    coefficient attached to the (row point, representative) pair.  Columns
    off the face are zero.
    """
    chart_semigroup(pi, sigma_tilde, sigma)  # validates the chart data
    a = pi.config
    s = tuple(sorted(sigma))
    rep_of_block = {pi.block_of[i]: i for i in sorted(sigma_tilde)}
    reps = [(idx, rep_of_block[pi.block_of[idx]]) for idx in pi.face.indices]
    exponents = [tuple(x - y for x, y in zip(a.points[i], a.points[rep])) for i, rep in reps]

    zero = Fraction(0)

    def build(t, coefficients):
        rows = [[zero] * len(a.points) for _ in s]
        for (idx, rep), exponent in zip(reps, exponents):
            num = den = 1  # the character of idx - rep at t is num / den
            for (n, d), e in zip(t, exponent):
                num *= n**e if e > 0 else d**-e
                den *= d**e if e > 0 else n**-e
            for row, v in zip(rows, s):
                if rep == v:
                    row[idx] = Fraction(num, den)
                elif rep not in s:
                    n, d = coefficients[(v, rep)]
                    row[idx] = Fraction(num * n, den * d)
        return PlaneParametrization(matrix=tuple(map(tuple, rows)))

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
    """
    a = relations.face.config
    if len(relations.face.indices) != len(a.points):
        raise ValueError("relation basis must be the full configuration's")
    if any(len(row) != len(a.points) for row in plane.matrix):
        raise ValueError("plane matrix must have one column per point")
    ids: dict[tuple, int] = {}  # F_c / lead_c, by its nonzero entries -> its id
    forms = []  # per column: None if zero, else (lead_c, id of F_c / lead_c)
    for col in range(len(a.points)):
        nonzero = [(r, row[col]) for r, row in enumerate(plane.matrix) if row[col]]
        if not nonzero:
            forms.append(None)
            continue
        (first, lead), rest = nonzero[0], nonzero[1:]
        key = (first, *((r, x / lead) for r, x in rest))
        forms.append((lead, ids.setdefault(key, len(ids))))

    def side(vec, sign):
        num, den, factors = 1, 1, Counter()
        for form, mult in zip(forms, vec):
            if (m := sign * mult) > 0:
                if form is None:
                    return None
                num, den = num * form[0].numerator**m, den * form[0].denominator**m
                factors[form[1]] += m
        return Fraction(num, den), factors

    return all(side(vec, 1) == side(vec, -1) for vec in relations.vectors)


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
    s = tuple(sorted(sigma))
    outside = tuple(i for i in sorted(sigma_tilde) if i not in set(s))
    for trial in range(trials):
        rng = random.Random(seed * 1_000_003 + trial)

        def draw() -> tuple[int, int]:  # numerator, then denominator
            return rng.randint(1, _SAMPLE_RANGE), rng.randint(1, _SAMPLE_RANGE)

        torus = tuple(draw() for _ in range(pi.config.ambient_dim))
        coeffs = {(v, w): draw() for v in s for w in outside}
        if not relations_vanish_on(relations, build(torus, coeffs)):
            return False
    return True


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
