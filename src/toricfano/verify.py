"""Independent oracles for the fast paths of the other modules.

Everything here recomputes from first principles: affine relation lattices
of faces (each face's kernel computed once, the bases passed to the plane,
vanishing and chart-sample checks), the block-plane parametrization
substituted into the binomial relations, exact rational sampling of chart
parametrizations, and a search over set partitions of a face that extends
only blocks passing the block-sum test (each distinct block tested once per
call).  A chart is validated, and its planes' full row rank certified, once
per call; each sampled plane is a tuple of rows of integer (numerator,
denominator) pairs drawn per trial, and is decided by unique factorization
of its column forms with integer cross-multiplication, never a ``Fraction``.
Trial ``i`` of every chart reads a prefix of the one stream seeded from
``seed`` and ``i``, its length set by the chart's parameter count, so the
draws are memoized per (stream, length) and shared across charts: each
chart reads exactly the values it would draw from its own generator.  A
block plane's sides get the same block exponents exactly when the relation
sums to zero on every block, so that test runs before the characters.
The tests hold the fast paths to agreement with these.
"""

from __future__ import annotations

import random
from functools import cache, lru_cache
from itertools import combinations
from math import gcd
from typing import Mapping, Sequence

from .cayley import CayleyStructure
from .components import chart_semigroup
from .intlinalg import (
    IntVector,
    UnsupportedSizeError,
    _homogenized_rows,
    integer_kernel_basis,
)
from .pointconfig import Face, PointConfiguration, Record

BRUTE_FORCE_MAX_POINTS = 12
SWEEP_MAX_POINTS = 7  # the verify command's sweep over every set partition
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
    # the sides' block-exponent vectors agree exactly when the relation sums
    # to zero on every block, a test far cheaper than the characters
    position = {idx: pos for pos, idx in enumerate(pi.face.indices)}
    if not all(_block_sums_to_zero(relations.vectors, position, block) for block in pi.blocks):
        return False
    for vec in relations.vectors:
        lhs, rhs = _substituted_sides(pi, vec)
        if lhs != rhs:
            return False
    return True


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
    chart_semigroup(pi, sigma_tilde, sigma)  # validates the chart data
    a = pi.config
    s = tuple(sorted(sigma))
    rep_of_block = {pi.block_of[i]: i for i in sorted(sigma_tilde)}
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
    """Whether every relation of the full configuration's basis is identically
    zero on the plane, as a polynomial in the spanning coefficients.

    The plane holds one row per spanning point, and each row one exact entry
    per configuration point, as an integer (numerator, denominator) pair with
    a positive denominator; any other entry, or a row of another length, is a
    ``ValueError`` naming it.

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
    forms = []  # per column: None if zero, else (p, q, id of F_c / lead_c)
    for column in zip(*plane):
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
        forms.append(None if key is None else (p, q, ids.setdefault(tuple(key), len(ids))))

    def vanishes(vec) -> bool:
        # N1 D2 and N2 D1, each side's scalar being N/D, and per normalized
        # form its exponent on the left minus its exponent on the right
        lhs = rhs = 1
        exponents: dict[int, int] = {}
        zero_left = zero_right = False
        for form, m in zip(forms, vec):
            if not m:
                continue
            if form is None:
                if m > 0:
                    zero_left = True
                else:
                    zero_right = True
                continue
            p, q, form_id = form
            if m > 0:
                lhs, rhs = lhs * p**m, rhs * q**m
            else:
                lhs, rhs = lhs * q**-m, rhs * p**-m
            exponents[form_id] = exponents.get(form_id, 0) + m
        if zero_left or zero_right:
            return zero_left and zero_right
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
    checks every relation of ``relations`` (the full configuration's basis)
    vanishes identically on the plane.  Trial ``i`` seeds its own generator
    from ``seed`` and ``i``, so runs are reproducible and order-independent,
    and every chart's trial ``i`` reads a prefix of the same memoized draws.
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
