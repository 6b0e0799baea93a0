"""Seeded benchmark inputs: classical families built here, fixtures read from
``tests/data``, each moved by a seeded point permutation, a small unimodular
change of coordinates and a translation.

The transformations change nothing mathematical (the Fano scheme of a point
configuration is invariant under affine unimodular maps and relabelling), so
the reference answers in ``reference.py`` hold for every seed; only the
program's input bytes change.
"""

from __future__ import annotations

import itertools
import json
import os
import random

DEFAULT_SEED = 0
_MAX_ENTRY = 2  # largest |entry| of the unimodular matrix
_MAX_SHIFT = 3  # largest |entry| of the translation


def segre(a: int, b: int) -> list[tuple[int, ...]]:
    """Delta_a x Delta_b in Z^(a+b): the Segre embedding of P^a x P^b."""
    left = [tuple(int(i == j) for j in range(1, a + 1)) for i in range(a + 1)]
    right = [tuple(int(i == j) for j in range(1, b + 1)) for i in range(b + 1)]
    return [p + q for p in left for q in right]


def veronese(d: int, n: int) -> list[tuple[int, ...]]:
    """Lattice points of d * Delta_n in Z^n: the d-uple embedding of P^n."""
    return [p for p in itertools.product(range(d + 1), repeat=n) if sum(p) <= d]


def hypersimplex(k: int, n: int) -> list[tuple[int, ...]]:
    """Delta(k, n): the 0/1 vectors of Z^n with exactly k ones."""
    return [
        tuple(int(i in ones) for i in range(n))
        for ones in itertools.combinations(range(n), k)
    ]


def read_fixture(root: str, filename: str) -> dict:
    with open(os.path.join(root, "tests", "data", filename), encoding="utf-8") as fh:
        return json.load(fh)


def unimodular(rng: random.Random, d: int) -> list[list[int]]:
    """A random d x d integer matrix of determinant +-1 with small entries:
    a product of elementary row operations, each kept only if it leaves
    every entry within ``_MAX_ENTRY``."""
    m = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(3 * d if d > 1 else 0):
        i, j = rng.sample(range(d), 2)
        s = rng.choice((-1, 1))
        row = [x + s * y for x, y in zip(m[i], m[j])]
        if max(abs(x) for x in row) <= _MAX_ENTRY:
            m[i] = row
    return m


def transform(points, seed: int, salt: str) -> tuple[list[list[int]], list[int]]:
    """Permute, change coordinates and translate.

    Returns the new point list and ``new_index`` with
    ``new_points[new_index[i]]`` the image of ``points[i]``.
    """
    rng = random.Random(f"{seed}:{salt}")
    d = len(points[0])
    u = unimodular(rng, d)
    shift = [rng.randint(-_MAX_SHIFT, _MAX_SHIFT) for _ in range(d)]
    order = list(range(len(points)))
    rng.shuffle(order)  # order[new] = old
    new_index = [0] * len(points)
    for new, old in enumerate(order):
        new_index[old] = new
    moved = [
        [sum(r * x for r, x in zip(row, points[old])) + t for row, t in zip(u, shift)]
        for old in order
    ]
    return moved, new_index


# name -> how to build the untransformed points (and, for fixtures, the file)
FAMILIES = {
    "birkhoff3": ("fixture", "birkhoff.json"),
    "five": ("fixture", "five.json"),
    "hypersimplex_2_4": ("hypersimplex", (2, 4)),
    "hypersimplex_2_5": ("hypersimplex", (2, 5)),
    "veronese_2_3": ("veronese", (2, 3)),
    "veronese_3_2": ("veronese", (3, 2)),
    "segre_1_3": ("segre", (1, 3)),
    "segre_1_4": ("segre", (1, 4)),
    "segre_2_2": ("segre", (2, 2)),
}

_POINTS_OF = {"segre": segre, "veronese": veronese, "hypersimplex": hypersimplex}


def base_input(root: str, name: str) -> dict:
    """The untransformed input object ``{"name", "points"[, "expect"]}``."""
    kind, arg = FAMILIES[name]
    if kind == "fixture":
        raw = read_fixture(root, arg)
        obj = {"name": name, "points": [list(p) for p in raw["points"]]}
        if "expect" in raw:
            obj["expect"] = raw["expect"]
        return obj
    return {"name": name, "points": [list(p) for p in _POINTS_OF[kind](*arg)]}


def generate(root: str, names, seed: int) -> dict[str, tuple[dict, list[int]]]:
    """name -> (transformed input object, new_index of every original point)."""
    out = {}
    for name in names:
        obj = base_input(root, name)
        points, new_index = transform(obj["points"], seed, name)
        out[name] = (dict(obj, points=points), new_index)
    return out


def write_inputs(root: str, names, seed: int, workdir: str) -> dict[str, tuple[str, list[int]]]:
    """Generate the inputs and write them as JSON files in ``workdir``.

    Returns name -> (file path, new_index).
    """
    os.makedirs(workdir, exist_ok=True)
    paths = {}
    for name, (obj, new_index) in generate(root, names, seed).items():
        path = os.path.join(workdir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        paths[name] = (path, new_index)
    return paths
