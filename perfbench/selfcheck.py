"""Checks on the benchmark itself.

Usage, from the repository root: ``python3 perfbench/selfcheck.py``

1. A deliberately wrong reference answer (a component count off by one) and a
   corrupted report are each counted as a failed operation.
2. The input generator is deterministic for a seed and varies with it.
3. The mathematical answers match the reference on two different seeds.
4. Two traced passes with the same seed give identical counters.

The checks use a cheap operation list that still covers analyze (with and
without planes, with the top-k local scheme), mult and verify.
"""

from __future__ import annotations

import copy
import os
import shutil
import sys
import tempfile

sys.dont_write_bytecode = True

import inputs  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402

CHEAP_OPS = (
    ("analyze", "hypersimplex_2_4"),
    ("analyze", "veronese_3_2"),
    ("mult", "five"),
    ("verify", "hypersimplex_2_4"),
)


def cheap_run(root: str, seed: int, workdir: str) -> run.Run:
    r = run.Run(root, "poset-wide", seed, workdir)
    r.ops = CHEAP_OPS
    r.names = sorted({name for _, name in CHEAP_OPS})
    r.setup_once()
    return r


def main() -> int:
    root = os.getcwd()
    os.makedirs(os.path.join(root, ".bench_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selfcheck-", dir=os.path.join(root, ".bench_work"))
    results: list[tuple[str, bool]] = []
    try:
        # 1. wrong answers are counted
        r = cheap_run(root, 1, workdir)
        r.answers = copy.deepcopy(r.answers)
        r.answers["hypersimplex_2_4"][1]["count"] += 1
        r.run_pass(traced=False)
        results.append(
            (
                "mutated count is one failure in the error rate",
                r.attempted == len(CHEAP_OPS)
                and len(r.failures) == 1
                and r.failures[0].startswith("analyze hypersimplex_2_4"),
            )
        )
        corrupted = reference.problem(("mult", "five"), 0, b"multiplicity: 2", r.answers)
        bad_exit = reference.problem(("verify", "five"), 6, b"{}", r.answers)
        results.append(("corrupted report and bad exit code fail", bool(corrupted and bad_exit)))

        # 2. the generator is a function of the seed
        names = sorted(inputs.FAMILIES)
        same = inputs.generate(root, names, 7) == inputs.generate(root, names, 7)
        differs = all(
            inputs.generate(root, [n], 7)[n] != inputs.generate(root, [n], 8)[n] for n in names
        )
        results.append(("generator deterministic per seed, different across seeds", same and differs))

        # 3. and 4. answers on two seeds; counters on two traced passes
        counters = []
        for seed in (2, 3):
            r = cheap_run(root, seed, workdir)
            r.run_pass(traced=False)
            results.append((f"seed {seed}: every answer matches the reference", not r.failures))
            if seed == 3:
                for _ in range(2):
                    p = r.run_pass(traced=True)
                    counters.append((p["calls"], p["counts"]))
                results.append(("traced passes ran without failures", not r.failures))
        results.append(("two traced passes give identical counters", counters[0] == counters[1]))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, ok in results:
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    return 0 if all(ok for _, ok in results) else 1


if __name__ == "__main__":
    sys.exit(main())
