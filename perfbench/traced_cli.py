"""Run ``toricfano.cli.main`` with timing and counting wrappers installed.

Usage: ``PYTHONPATH=src python3 perfbench/traced_cli.py OUT.json CLI-ARGS...``

Every function in ``TRACED`` is replaced by a wrapper at each of its binding
sites: the package imports functions by name into several modules, so the
wrapper goes into every ``toricfano`` module whose namespace holds the
original.  Modules are looked up in ``sys.modules`` because the package root
rebinds ``toricfano.components`` to the function of that name.  Per label the
wrapper records calls and self time (span minus the time of nested wrapped
spans), plus a few outcome counts; the totals are written to ``OUT.json``
when the command returns.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

# (module, function, label); two functions may share a label
TRACED = (
    ("pointconfig", "_enumerate_faces", "pointconfig.faces"),
    ("cayley", "enumerate_cayley_structures", "cayley.enumerate_cayley_structures"),
    ("cayley", "maximal_cayley_structures", "cayley.maximal_cayley_structures"),
    ("cayley", "leq", "cayley.leq"),
    ("cayley", "is_cayley_structure", "cayley.is_cayley_structure"),
    ("components", "components", "components.components"),
    ("components", "component_fixed_points", "components.component_fixed_points"),
    ("components", "chart_is_smooth", "components.chart_is_smooth"),
    ("components", "components_intersection", "components.components_intersection"),
    ("components", "connectivity_graph", "components.connectivity_graph"),
    ("components", "is_covered_by_k_planes", "components.is_covered_by_k_planes"),
    ("localscheme", "choose_w", "localscheme.choose_w"),
    ("localscheme", "local_ring_basis", "localscheme.local_ring_basis"),
    ("localscheme", "multiplicity_by_height", "localscheme.multiplicity_by_height"),
    ("verify", "brute_force_cayley", "verify.brute_force_cayley"),
    ("verify", "verify_cayley_plane", "verify.verify_cayley_plane"),
    ("verify", "verify_chart_sample", "verify.verify_chart_sample"),
    ("verify", "relations_vanish_on", "verify.relations_vanish_on"),
    ("verify", "relation_basis", "verify.relation_basis"),
    ("intlinalg", "hermite_normal_form", "intlinalg.hermite_normal_form"),
    ("intlinalg", "rational_solve", "intlinalg.rational_solve"),
    ("cli", "render_json", "cli.render"),
    ("cli", "render_text", "cli.render"),
)

LABELS = tuple(dict.fromkeys(label for _, _, label in TRACED))

# outcome counts kept beside calls and self time
COUNTS = (
    "pointconfig.faces.count",  # faces built
    "cayley.structures",  # structures returned by enumerate_cayley_structures
    "cayley.maximal.enumerated",  # ... of which enumerated inside maximality
    "cayley.maximal.kept",  # structures returned by maximal_cayley_structures
    "components.chart_is_smooth.smooth",  # charts found smooth
    "components.intersection.nonempty",  # intersections found nonempty
)

_MAXIMAL = "cayley.maximal_cayley_structures"


def _outcome(label: str, result, parent: str, counts: Counter) -> None:
    if label == "pointconfig.faces":
        counts["pointconfig.faces.count"] += len(result)
    elif label == "cayley.enumerate_cayley_structures":
        counts["cayley.structures"] += len(result)
        if parent == _MAXIMAL:
            counts["cayley.maximal.enumerated"] += len(result)
    elif label == _MAXIMAL:
        counts["cayley.maximal.kept"] += len(result)
    elif label == "components.chart_is_smooth":
        counts["components.chart_is_smooth.smooth"] += bool(result)
    elif label == "components.components_intersection":
        counts["components.intersection.nonempty"] += bool(result)


class Tracer:
    """Calls, self time and outcome counts per label, for one process."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack = [["", 0.0]]  # [label, time covered by child spans]

    def wrap(self, label: str, fn):
        calls, self_s, counts, stack = self.calls, self.self_s, self.counts, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [label, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                stack.pop()
                stack[-1][1] += span
                calls[label] += 1
                self_s[label] += span - frame[1]
            _outcome(label, result, stack[-1][0], counts)
            return result

        return wrapper

    def install(self) -> None:
        package = [m for name, m in sys.modules.items() if name.split(".")[0] == "toricfano"]
        for module, name, label in TRACED:
            original = getattr(sys.modules[f"toricfano.{module}"], name)
            wrapped = self.wrap(label, original)
            for m in package:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapped)

    def totals(self) -> dict:
        return {
            "calls": {label: self.calls[label] for label in LABELS},
            "self_s": {label: self.self_s[label] for label in LABELS},
            "counts": {name: self.counts[name] for name in COUNTS},
        }


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    import toricfano.cli  # noqa: F401  (loads every toricfano module)

    tracer = Tracer()
    tracer.install()
    try:
        return sys.modules["toricfano.cli"].main(argv)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.totals(), fh)


if __name__ == "__main__":
    sys.exit(main())
