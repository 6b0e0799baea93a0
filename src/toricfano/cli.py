"""Command-line front-end: analyze, mult, and verify subcommands.

Input is a lattice point configuration, either as a JSON object
``{"name": ..., "points": [[...], ...]}`` or as plain text with one
whitespace-separated integer row per point.  Reports are built as JSON
objects first (the source of truth, schema version 1, deterministic byte
output) and the text format is derived from them.

``main`` parses the arguments, writes the report and returns the exit code:
0 success, 2 parse error, 3 size cap exceeded, 4 invalid k, 5 local-structure
hypotheses violated, 6 verification failure.  ``run``, the ``toricfano``
command and the ``python -m toricfano.cli`` entry, calls it, flushes the
report and ends the process with ``os._exit``, skipping the interpreter's
teardown; it turns a closed stdout into exit 1 with one ``error:`` line.
Library callers and tests call ``main`` and keep the normal teardown.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import Optional, Sequence

from .cayley import (
    CayleyStructure,
    enumerate_cayley_structures,
    is_cayley_structure,
    maximal_cayley_structures,
)
from .components import (
    chart_is_smooth,
    chart_semigroup,
    components,
    components_intersection,
    connectivity_graph,
    is_covered_by_k_planes,
)
from .intlinalg import UnsupportedSizeError, is_saturated
from .localscheme import (
    HypothesesViolated,
    choose_w,
    height_coordinates,
    local_ring_basis,
    multiplicity_by_height,
    s_u_case,
)
from .pointconfig import MAX_POINTS as DEFAULT_MAX_POINTS, PointConfiguration
from .verify import (
    BRUTE_FORCE_MAX_POINTS,
    SWEEP_MAX_POINTS,
    all_set_partitions,
    brute_force_cayley,
    relation_basis,
    verify_cayley_plane,
    verify_chart_sample,
)

SCHEMA_VERSION = 1
EXIT_OK = 0
EXIT_OUTPUT_CLOSED = 1
EXIT_PARSE = 2
EXIT_SIZE = 3
EXIT_BAD_K = 4
EXIT_HYPOTHESES = 5
EXIT_VERIFY_FAILED = 6


class CliError(Exception):
    """An error with a dedicated process exit code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _is_json_int(x) -> bool:
    # bool is a subclass of int, and int() would truncate floats
    return isinstance(x, int) and not isinstance(x, bool)


def _decimal(text: str) -> int:
    """The integer ``text`` writes in optionally signed ASCII digits, padded by
    whitespace; ``int`` alone also reads ``1_0`` and other scripts' digits."""
    if not re.fullmatch(r"[+-]?[0-9]+", text.strip()):
        raise argparse.ArgumentTypeError(f"not a decimal integer: {text!r}")
    return int(text)


def _check_expect(expect) -> None:
    """Reject a malformed ``"expect"`` block before ``verify`` runs an oracle."""

    def count(v) -> bool:
        return _is_json_int(v) and v >= 0

    def per_k(valid):  # an object from k >= 1, written in decimal, to values
        return lambda t: isinstance(t, dict) and all(
            k.isdecimal() and k == str(int(k)) and k != "0" and valid(v) for k, v in t.items()
        )

    forms = {
        "component_counts": ("an object from k >= 1 to nonnegative integers", per_k(count)),
        "connected": ("an object from k >= 1 to booleans", per_k(lambda v: isinstance(v, bool))),
        "dimension": ("a nonnegative integer", count),
    }
    if not isinstance(expect, dict):
        raise CliError(EXIT_PARSE, '"expect" must be an object')
    for key, value in expect.items():
        if key not in forms:
            raise CliError(EXIT_PARSE, f'"expect" has an unknown key {key!r}')
        form, valid = forms[key]
        if not valid(value):
            raise CliError(EXIT_PARSE, f'"expect.{key}" must be {form}, got {value!r}')


def load_input(path: str, max_points: int) -> tuple[Optional[str], dict, PointConfiguration]:
    """Read a configuration file; returns (name, raw object, configuration)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(EXIT_PARSE, f"cannot read {path}: {exc}") from exc
    raw: dict = {}
    try:
        parsed = json.loads(text)
    except json.JSONDecodeError:
        parsed = None
    if isinstance(parsed, dict):
        raw = parsed
        if "points" not in raw:
            raise CliError(EXIT_PARSE, 'JSON input must contain a "points" array')
        rows = raw["points"]
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise CliError(EXIT_PARSE, '"points" must be an array of arrays')
        name = raw.get("name")
        if name is not None and not isinstance(name, str):
            raise CliError(EXIT_PARSE, '"name" must be a string')
        for row in rows:
            for x in row:
                if not _is_json_int(x):
                    raise CliError(EXIT_PARSE, f"points must be integers, got {x!r}")
        _check_expect(raw.get("expect", {}))
    else:
        name = None
        try:
            rows = [[_decimal(x) for x in line.split()] for line in text.splitlines() if line.strip()]
        except argparse.ArgumentTypeError as exc:
            raise CliError(EXIT_PARSE, f"points must be integers: {exc}") from exc
    if not rows:
        raise CliError(EXIT_PARSE, "input contains no points")
    if len(rows) > max_points:
        raise CliError(
            EXIT_SIZE,
            f"{len(rows)} points exceeds the cap of {max_points} (see --max-points)",
        )
    try:
        a = PointConfiguration(rows)
    except ValueError as exc:
        raise CliError(EXIT_PARSE, str(exc)) from exc
    return name, raw, a


def _structure_entry(pi: CayleyStructure) -> dict:
    return {
        "face": list(pi.face.indices),
        "blocks": [list(b) for b in pi.blocks],
    }


def _component_entry(comp) -> dict:
    fixed = []
    for face in comp.fixed_points:
        # extend the simplex to a transversal by adding the smallest index of
        # each block it does not already meet
        met = {comp.pi.block_of[i] for i in face.indices}
        extras = [blk[0] for j, blk in enumerate(comp.pi.blocks) if j not in met]
        sigma_tilde = tuple(sorted(set(face.indices) | set(extras)))
        chart = chart_semigroup(comp.pi, sigma_tilde, face.indices)
        fixed.append(
            {"indices": list(face.indices), "smooth_chart": chart_is_smooth(chart)}
        )
    return {
        "id": comp.id,
        "face": list(comp.pi.face.indices),
        "blocks": [list(b) for b in comp.pi.blocks],
        "l": comp.pi.l,
        "dimension": comp.dimension,
        "fixed_points": fixed,
    }


def _input_entry(a: PointConfiguration) -> dict:
    return {
        "points": [list(p) for p in a.points],
        "n": len(a.points),
        "d": a.ambient_dim,
        "dimension": a.dimension,
    }


def _local_overview(a: PointConfiguration, k: int) -> list[dict]:
    """One summary entry per empty-simplex facet of the configuration."""
    entries = []
    for face in a.fixed_point_faces(k):
        entry: dict = {"face": list(face.indices)}
        try:
            w = choose_w(a, face)
        except HypothesesViolated as exc:
            entry["hypotheses_violated"] = str(exc)
            entries.append(entry)
            continue
        basis = local_ring_basis(a, face)
        entry["w_index"] = a.points.index(w)
        entry["isolated"] = basis.is_finite
        entry["multiplicity"] = basis.cardinality()
        entries.append(entry)
    return entries


def analysis_report(
    a: PointConfiguration, name: Optional[str], ks: Sequence[int]
) -> dict:
    report = {
        "schema": SCHEMA_VERSION,
        "command": "analyze",
        "name": name,
        "input": _input_entry(a),
        "k_reports": [],
    }
    for k in sorted(set(ks)):
        comps = components(a, k)
        graph = connectivity_graph(comps)
        pieces = graph.connected_components()
        intersections = []
        for i in range(len(comps)):
            for j in range(i + 1, len(comps)):
                common = components_intersection(a, comps[i].pi, comps[j].pi, k)
                if common:
                    intersections.append(
                        {
                            "pair": [comps[i].id, comps[j].id],
                            "structures": [_structure_entry(q) for q in common],
                        }
                    )
        section = {
            "k": k,
            "components": [_component_entry(c) for c in comps],
            "intersections": intersections,
            "graph": {
                "vertices": list(graph.vertices),
                "edges": [list(e) for e in graph.edges],
                "connected": len(pieces) <= 1,
                "connected_components": [list(p) for p in pieces],
            },
            "covered_by_k_planes": is_covered_by_k_planes(a, k),
        }
        if k == a.dimension - 1 and k >= 1:
            section["local_scheme"] = _local_overview(a, k)
        report["k_reports"].append(section)
    return report


def mult_report(a: PointConfiguration, name: Optional[str], sigma: Sequence[int]) -> dict:
    """Local-structure report at one facet; raises HypothesesViolated."""
    w = choose_w(a, sigma)  # validates the facet hypotheses
    face = a.face_from_indices(sigma)
    basis = local_ring_basis(a, face)
    per_point = []
    excluded = set(face.points) | {w}
    for idx, u in enumerate(a.points):
        if u in excluded:
            continue
        hc = height_coordinates(a, face, w, u)
        per_point.append(
            {
                "index": idx,
                "height": hc.h,
                "offsets": list(hc.c),
                "case": s_u_case(hc),
            }
        )
    by_height: Optional[int] = None
    height_note: Optional[str] = None
    if basis.is_finite:
        try:
            by_height = multiplicity_by_height(a, face)
        except HypothesesViolated as exc:
            height_note = str(exc)
    return {
        "schema": SCHEMA_VERSION,
        "command": "mult",
        "name": name,
        "input": _input_entry(a),
        "sigma": sorted(int(i) for i in face.indices),
        "w_index": a.points.index(w),
        "w_point": list(w),
        "basis": {
            "ideal": [list(g) for g in basis.ideal_part],
            "finite": basis.is_finite,
            "members": [list(m) for m in basis.finite_part] if basis.is_finite else None,
        },
        "isolated": basis.is_finite,
        "multiplicity": basis.cardinality(),
        "multiplicity_by_height": by_height,
        "height_criterion_note": height_note,
        "points": per_point,
    }


def _verify_checks(a: PointConfiguration, expect: dict, seed: int, trials: int) -> list[dict]:
    checks: list[dict] = []

    def record(cname: str, ok: bool, detail: Optional[str] = None):
        checks.append({"name": cname, "pass": bool(ok), "detail": detail})

    def skipped(cap: int) -> Optional[str]:  # what a passing check left unchecked
        n = sum(len(face.indices) > cap for face in a.faces())
        return f"faces of more than {cap} points not checked: {n}" if n else None

    bases = {face.indices: relation_basis(a, face) for face in a.faces()}
    rb = bases[tuple(range(len(a.points)))]
    rel_ok = all(
        sum(vec) == 0
        and not any(
            sum(m * p[i] for m, p in zip(vec, a.points)) for i in range(a.ambient_dim)
        )
        for vec in rb.vectors
    ) and is_saturated(rb.vectors)
    record("relation_basis_valid", rel_ok)

    structures = {face.indices: enumerate_cayley_structures(face, 1) for face in a.faces()}
    mismatch = None
    for face in a.faces():
        if len(face.indices) > BRUTE_FORCE_MAX_POINTS:
            continue
        if set(brute_force_cayley(a, face, 1)) != set(structures[face.indices]):
            mismatch = f"face {face.indices}"
            break
    record("brute_force_matches_fast", mismatch is None, mismatch or skipped(BRUTE_FORCE_MAX_POINTS))

    bad_plane = None
    for pi in [pi for here in structures.values() for pi in here]:
        if not verify_cayley_plane(bases[pi.face.indices], pi):
            bad_plane = f"face {pi.face.indices}, blocks {pi.blocks}"
            break
    record("cayley_planes_on_variety", bad_plane is None, bad_plane)

    sweep_bad = None
    for face in a.faces():
        if not face.indices or len(face.indices) > SWEEP_MAX_POINTS:
            continue
        for part in all_set_partitions(list(face.indices)):
            pi = CayleyStructure(face, part)
            if verify_cayley_plane(bases[face.indices], pi) != is_cayley_structure(face, part):
                sweep_bad = f"face {face.indices}, partition {part}"
                break
        if sweep_bad:
            break
    record("partition_rejection_sound", sweep_bad is None, sweep_bad or skipped(SWEEP_MAX_POINTS))

    chart_bad = None
    for k in range(1, max(a.dimension, 1) + 1):
        for pi in maximal_cayley_structures(a, k):
            heads = tuple(b[0] for b in pi.blocks)
            if not verify_chart_sample(rb, pi, heads, heads[: k + 1], trials=trials, seed=seed):
                chart_bad = f"k={k}, blocks {pi.blocks}, sigma {heads[: k + 1]}"
                break
        if chart_bad:
            break
    record("chart_samples_on_variety", chart_bad is None, chart_bad)

    def compare(cname: str, got, wanted) -> None:
        record(cname, got == wanted, None if got == wanted else f"expected {wanted}, found {got}")

    # load_input has checked the block: each key is some k >= 1 in decimal
    for key, wanted in sorted(expect.get("component_counts", {}).items()):
        compare(f"expect:component_count:k={key}", len(maximal_cayley_structures(a, int(key))), wanted)
    for key, wanted in sorted(expect.get("connected", {}).items()):
        graph = connectivity_graph(components(a, int(key)))
        compare(f"expect:connected:k={key}", graph.is_connected(), wanted)
    if "dimension" in expect:
        compare("expect:dimension", a.dimension, expect["dimension"])
    return checks


def verify_report(
    a: PointConfiguration,
    name: Optional[str],
    expect: dict,
    seed: int,
    trials: int,
) -> dict:
    checks = _verify_checks(a, expect, seed, trials)
    return {
        "schema": SCHEMA_VERSION,
        "command": "verify",
        "name": name,
        "input": _input_entry(a),
        "seed": seed,
        "trials": trials,
        "checks": checks,
        "passed": all(c["pass"] for c in checks),
    }


def render_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True)


def _is_flat(value) -> bool:
    if not isinstance(value, (dict, list)):
        return True
    if isinstance(value, list):
        return all(not isinstance(v, (dict, list)) for v in value)
    return not value


def _render_value(value, indent: int, lines: list[str]):
    pad = "  " * indent
    if isinstance(value, dict):
        for key in sorted(value):
            inner = value[key]
            if _is_flat(inner):
                lines.append(f"{pad}{key}: {_scalar(inner)}")
            else:
                lines.append(f"{pad}{key}:")
                _render_value(inner, indent + 1, lines)
    elif isinstance(value, list):
        for item in value:
            if _is_flat(item) or (
                isinstance(item, list)
                and all(_is_flat(v) and not isinstance(v, dict) for v in item)
            ):
                lines.append(f"{pad}- {_scalar(item)}")
            else:
                lines.append(f"{pad}-")
                _render_value(item, indent + 1, lines)
    else:
        lines.append(f"{pad}{_scalar(value)}")


def _scalar(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return "[" + ", ".join(_scalar(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{}"
    return str(value)


def render_text(report: dict) -> str:
    lines: list[str] = []
    _render_value(report, 0, lines)
    return "\n".join(lines)


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(render_json(report) + "\n")
    else:
        sys.stdout.write(render_text(report) + "\n")


def _parse_sigma(text: str, n: int) -> tuple[int, ...]:
    """The distinct point indices, each in ``0..n-1``, that ``text`` lists."""
    try:
        sigma = tuple(_decimal(piece) for piece in text.split(","))
    except argparse.ArgumentTypeError as exc:
        raise CliError(EXIT_PARSE, f"--sigma must be comma-separated integers: {exc}")
    if len(set(sigma)) != len(sigma):
        raise CliError(EXIT_PARSE, f"--sigma repeats an index: {text}")
    if not all(0 <= i < n for i in sigma):
        raise CliError(EXIT_PARSE, f"--sigma indices must lie in 0..{n - 1}: {text}")
    return sigma


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toricfano",
        description="Irreducible components of the scheme of k-planes on a "
        "projective toric variety, from its lattice point configuration.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("input", help="path to a JSON or whitespace-row point file")
        p.add_argument(
            "--format", choices=("json", "text"), default="text", help="output format"
        )
        p.add_argument(
            "--max-points",
            type=_decimal,
            default=DEFAULT_MAX_POINTS,
            help="refuse inputs with more points than this",
        )

    p_analyze = sub.add_parser("analyze", help="component structure for given k")
    common(p_analyze)
    p_analyze.add_argument(
        "--k",
        type=_decimal,
        action="append",
        help="plane dimension (repeatable; default 1)",
    )

    p_mult = sub.add_parser("mult", help="local structure at a facet fixed point")
    common(p_mult)
    p_mult.add_argument(
        "--sigma",
        required=True,
        help="comma-separated 0-based indices of the facet's points",
    )

    p_verify = sub.add_parser("verify", help="run the oracle cross-check suite")
    common(p_verify)
    p_verify.add_argument("--seed", type=_decimal, default=0, help="sampling seed")
    p_verify.add_argument("--trials", type=_decimal, default=25, help="samples per chart")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.max_points < 1:
            raise CliError(EXIT_PARSE, f"--max-points must be at least 1, got {args.max_points}")
        name, raw, a = load_input(args.input, args.max_points)
        if args.subcommand == "analyze":
            ks = args.k if args.k else [1]
            for k in ks:
                if k < 1:
                    raise CliError(EXIT_BAD_K, f"k must be at least 1, got {k}")
            report = analysis_report(a, name, ks)
        elif args.subcommand == "mult":
            sigma = _parse_sigma(args.sigma, len(a.points))
            try:
                report = mult_report(a, name, sigma)
            except HypothesesViolated as exc:
                raise CliError(EXIT_HYPOTHESES, f"hypotheses violated: {exc}")
        else:
            if args.trials < 1:
                raise CliError(EXIT_PARSE, f"--trials must be at least 1, got {args.trials}")
            expect = raw.get("expect", {})
            report = verify_report(a, name, expect, args.seed, args.trials)
        _emit(report, args.format)
        return EXIT_OK if report.get("passed", True) else EXIT_VERIFY_FAILED
    except CliError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.code
    except UnsupportedSizeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_SIZE


def run() -> None:
    """The ``toricfano`` command: ``main()``, then an exit without teardown.

    Once the report is flushed nothing is left to do, so the process ends
    with ``os._exit`` instead of finalizing the interpreter, which would clear
    every module and free every face, structure and cache entry one by one
    just before the operating system reclaims the whole process.  Reports go
    only to stdout and stderr, input files are closed when read, and the
    package registers no ``atexit`` handler.  ``SystemExit`` (argparse's
    usage errors, ``--help``) and uncaught exceptions leave ``main`` before
    ``os._exit`` and exit as usual.  A stdout closed by its reader fails the
    write or the flush; that is one ``error:`` line and exit 1.
    """
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError as exc:
        sys.stderr.write(f"error: cannot write the report: {exc}\n")
        code = EXIT_OUTPUT_CLOSED
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
