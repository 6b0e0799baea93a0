"""Compute ``reference_oracle.json`` with the package's brute-force oracle.

Usage, from the repository root: ``python3 perfbench/make_reference.py``

For each input the Cayley structures of every face come from
``toricfano.verify.brute_force_cayley`` (raw set-partition search).  From
them, by definition and without the package's fast paths: the components for
``k`` are the structures with at least k+1 blocks that no other such
structure dominates; a component on an m-dimensional face with l+1 blocks has
dimension m - l + (k+1)(l-k); two components meet iff they share a torus
fixed point (an empty k-simplex face inside both faces on which both
structures are injective); the pieces are the connected components of that
graph.  The oracle answers are stored for B_3 and the hypersimplices; for the
Segre and Veronese inputs they are compared with the closed forms in
``reference.py`` instead, and the script fails on any disagreement.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.dont_write_bytecode = True

import inputs  # noqa: E402
import reference  # noqa: E402
from toricfano.pointconfig import PointConfiguration  # noqa: E402
from toricfano.verify import brute_force_cayley  # noqa: E402

STORED = ("birkhoff3", "hypersimplex_2_4", "hypersimplex_2_5")
CLOSED_FORM = {
    "segre_1_3": reference.segre_answer(1, 3),
    "segre_1_4": reference.segre_answer(1, 4),
    "segre_2_2": reference.segre_answer(2, 2),
    "veronese_2_3": reference.no_planes(3),
    "veronese_3_2": reference.no_planes(2),
}


def dominated(p, q) -> bool:
    """p <= q: p's face lies in q's and each block of q meets p's face
    inside one block of p."""
    if p is q or not set(p.face.indices) <= set(q.face.indices):
        return False
    block_of = {i: n for n, block in enumerate(p.blocks) for i in block}
    return all(len({block_of[i] for i in block if i in block_of}) <= 1 for block in q.blocks)


def pieces(vertices: list, edges: list[tuple[int, int]]) -> int:
    parent = list(range(len(vertices)))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    for i, j in edges:
        parent[find(i)] = find(j)
    return len({find(i) for i in range(len(vertices))})


def oracle_answer(points) -> dict[int, dict]:
    a = PointConfiguration([tuple(p) for p in points])
    every = [s for f in a.faces() if f.indices for s in brute_force_cayley(a, f, 1)]
    out = {}
    for k in range(1, a.dimension + 1):
        tall = [s for s in every if len(s.blocks) >= k + 1]
        comps = [p for p in tall if not any(p != q and dominated(p, q) for q in tall)]
        simplices = [f.indices for f in a.faces() if len(f.indices) == k + 1 and f.dim == k]

        def fixed(c):
            inside = set(c.face.indices)
            return {
                s
                for s in simplices
                if set(s) <= inside and len({c.block_of[i] for i in s}) == len(s)
            }

        fixed_sets = [fixed(c) for c in comps]
        edges = [
            (i, j)
            for i in range(len(comps))
            for j in range(i + 1, len(comps))
            if fixed_sets[i] & fixed_sets[j]
        ]
        out[k] = {
            "count": len(comps),
            "dims": sorted(c.face.dim - c.l + (k + 1) * (c.l - k) for c in comps),
            "pieces": pieces(comps, edges),
        }
    return out


def main() -> int:
    answers = {}
    for name in STORED + tuple(CLOSED_FORM):
        start = time.perf_counter()
        got = oracle_answer(inputs.base_input(ROOT, name)["points"])
        print(f"{name}: {time.perf_counter() - start:.1f} s", file=sys.stderr)
        if name in CLOSED_FORM:
            if got != CLOSED_FORM[name]:
                print(f"{name}: oracle {got} != closed form {CLOSED_FORM[name]}", file=sys.stderr)
                return 1
        else:
            answers[name] = got
    reference.check_expect_block(ROOT, answers)
    doc = {
        "provenance": (
            "perfbench/make_reference.py: toricfano.verify.brute_force_cayley on every "
            "face of the untransformed input; components, dimensions and the fixed-point "
            "graph recomputed from their definitions. The same run matched the Segre and "
            "Veronese closed forms and the birkhoff.json expect block."
        ),
        "answers": answers,
    }
    with open(reference.ORACLE_FILE, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
