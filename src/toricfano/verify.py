"""Independent oracles for the fast paths of the other modules.

Everything here recomputes from first principles: affine relation lattices
of faces (each face's kernel computed once), planes of chart
parametrizations sampled at exact rationals, and a search over set
partitions of a face that extends only blocks passing the block-sum test
(each distinct block tested once per call).  Both plane checks, of block
planes and of chart samples, build their planes through one path and test
each against the relations of its own face, the face its nonzero columns
span: off that face's torus a lattice basis decides nothing (see
``relations_vanish_on``).  That path samples the generators of
``chart_semigroup``, built once per call, so the chart checked is the one
the package reports, not a second derivation of it.  A sampled plane is
only its nonzero columns, each a tuple of integer (row, numerator,
denominator) triples, never a ``Fraction``, and ``relations_vanish_on``
checks and decides it in one pass.  Trial ``i`` of every chart reads a
prefix of one stream seeded from ``seed`` and ``i``, its pairs memoized.
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
    build, width = _chart_plane_builder(pi, heads, heads)
    return relations_vanish_on(relations, build(_trial_pairs(0, 0, width)))


def _chart_plane_builder(pi: CayleyStructure, sigma_tilde: Sequence[int], sigma: Sequence[int]):
    """Build ``chart_semigroup``'s chart once; return the function that builds
    the plane of a chart point, in ``relations_vanish_on``'s form, from pairs
    of positive integers, one per coordinate of the generators, and how many
    it reads.

    Rows are indexed by the points of ``sigma``.  Each generator gives one
    entry, its monomial at the pairs: ``("gamma2", v, u)`` in row ``v`` of
    column ``u``, ``("gamma", u)`` in the row of the point of ``sigma`` in
    ``u``'s block.  Columns off the face are zero, so left out.  Every plane
    has full row rank: a point ``v`` of ``sigma`` represents its block, so its
    one generator ``("gamma", v)`` is zero and column ``v`` is 1 in row ``v``
    alone, and ``sigma``'s columns are the identity.
    """
    chart = chart_semigroup(pi, sigma_tilde, sigma)
    row_of = {v: r for r, v in enumerate(chart.sigma)}
    row_of_block = {pi.block_of[v]: r for v, r in row_of.items()}
    # per face point, in order: its entries' rows and monomials' nonzero (coordinate, exponent) pairs
    columns: dict[int, list] = {}
    for label, gen in zip(chart.labels, chart.generators):
        row = row_of[label[1]] if label[0] == "gamma2" else row_of_block[pi.block_of[label[1]]]
        columns.setdefault(label[-1], []).append((row, [(t, e) for t, e in enumerate(gen) if e]))

    def build(pairs):
        plane = []
        for point, entries in columns.items():
            column = []
            for row, monomial in entries:
                num = den = 1  # the monomial at the pairs is num / den
                for t, e in monomial:
                    n, d = pairs[t]
                    if e > 0:
                        num, den = num * n**e, den * d**e
                    else:
                        num, den = num * d**-e, den * n**-e
                column.append((row, num, den))
            plane.append((point, tuple(column)))
        return tuple(plane)

    return build, len(chart.generators[0])


def relations_vanish_on(relations: RelationBasis, plane) -> bool:
    """Whether the plane lies on the toric variety with support exactly the
    face of ``relations``: its nonzero columns are the face's points, and
    every relation of the face's basis is identically zero on them, as a
    polynomial in the spanning coefficients.

    The plane is its nonzero columns in increasing point order,
    ``((point, ((row, numerator, denominator), ...)), ...)``, each column's
    nonzero entries in increasing row order as int triples, the numerator
    nonzero and the denominator positive.  Each column and entry is checked
    as it is read, and each relation vector must have one entry per point of
    the face; anything else is a ``ValueError`` naming it.

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
    size = len(relations.face.indices)
    for vec in relations.vectors:
        if len(vec) != size:
            raise ValueError(f"relation vector {vec!r} has {len(vec)} entries, not the face's {size}")
    end = len(relations.face.config.points)
    ids: dict[tuple, int] = {}  # F_c / lead_c, by its rows and entries -> its id
    support, forms = [-1], []  # -1 and the columns, and per column (p, q, id of F_c / lead_c)
    for column in plane:
        point, entries = column if type(column) is tuple and len(column) == 2 else (-1, ())
        if not (type(point) is int and support[-1] < point < end and type(entries) is tuple and entries):
            raise ValueError(f"plane column {column!r} is not (point, entries) in order and in range")
        key, last = None, -1  # F_c / lead_c's rows and entries, once the lead p/q is read
        for entry in entries:
            r, n, d = entry if type(entry) is tuple and len(entry) == 3 else (None, None, None)
            if not (type(r) is type(n) is type(d) is int and last < r and n and d > 0):
                raise ValueError(
                    f"plane entry {entry!r} in column {point} is not an int triple (row, numerator,"
                    " denominator) with the row past the column's last, the numerator nonzero"
                    " and the denominator positive"
                )
            last = r
            if key is None:
                p, q, key = n, d, [r]
                unit = 1 if p > 0 else -1  # n/d over p/q is (unit n q)/(unit d p), denominator > 0
            else:
                g = unit * gcd(n * q, d * p)
                key.append((r, n * q // g, d * p // g))
        support.append(point)
        forms.append((p, q, ids.setdefault(tuple(key), len(ids))))
    if tuple(support[1:]) != relations.face.indices:
        return False

    def vanishes(vec) -> bool:
        # N1 D2 and N2 D1, each side's scalar being N/D, and per normalized
        # form its exponent on the left minus its exponent on the right
        lhs = rhs = 1
        exponents: dict[int, int] = {}
        for (p, q, form_id), m in zip(forms, vec):
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
    ``i`` reads a prefix of the same memoized draws.  The draws are keyed by
    the chart data without repeats, so a repeated index changes no plane.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if relations.face != pi.face:
        raise ValueError("relation basis belongs to a different face")
    build, width = _chart_plane_builder(pi, sigma_tilde, sigma)
    for trial in range(trials):
        if not relations_vanish_on(relations, build(_trial_pairs(seed, trial, width))):
            return False
    return True


@lru_cache(maxsize=_DRAWS_MEMO_SIZE)
def _trial_pairs(seed: int, trial: int, count: int) -> tuple[tuple[int, int], ...]:
    """The first ``count`` (numerator, denominator) pairs of the trial's stream,
    each numerator drawn before its denominator.

    Memoized: the charts of one ``verify`` read only a few counts, so each
    trial's stream is drawn a few times per run, not once per chart."""
    draws = iter(_sample_draws(seed * 1_000_003 + trial, 2 * count))
    return tuple(zip(draws, draws))


def _sample_draws(seed: int, count: int) -> tuple[int, ...]:
    """The first ``count`` values of ``random.Random(seed).randint(1, _SAMPLE_RANGE)``,
    by ``_randbelow``'s rule: as many random bits as the range has, redrawn until below it."""
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
