"""End-to-end tests of the command-line interface."""

import importlib
import importlib.util
import json
import os
import pathlib
import re
import subprocess
import sys
import time
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import test_golden
import toricfano
from toricfano import PointConfiguration, cayley, cli, localscheme, pointconfig, verify
from toricfano.cli import (
    EXIT_BAD_K,
    EXIT_HYPOTHESES,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_SIZE,
    EXIT_VERIFY_FAILED,
    main,
    render_json,
    render_text,
)

DATA = pathlib.Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main([str(x) for x in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, (json.loads(out) if out else None), err


# ---------------------------------------------------------------------------
# analyze


def test_analyze_square_two_rulings(capsys):
    code, report, _ = run_json(capsys, "analyze", DATA / "square.json", "--k", "1")
    assert code == EXIT_OK
    assert report["schema"] == 1
    assert report["name"] == "unit square"
    assert report["input"]["n"] == 4 and report["input"]["dimension"] == 2
    (section,) = report["k_reports"]
    assert section["k"] == 1
    assert len(section["components"]) == 2
    assert all(c["dimension"] == 1 for c in section["components"])
    assert section["graph"]["edges"] == []
    assert len(section["graph"]["connected_components"]) == 2
    assert section["graph"]["connected"] is False
    assert section["intersections"] == []
    assert section["covered_by_k_planes"] is True


def test_analyze_quartic_components_and_local_section(capsys):
    code, report, _ = run_json(capsys, "analyze", DATA / "quartic.json", "--k", "1")
    assert code == EXIT_OK
    (section,) = report["k_reports"]
    dims = sorted(c["dimension"] for c in section["components"])
    assert dims == [0, 0, 1]
    local = {tuple(entry["face"]): entry for entry in section["local_scheme"]}
    assert set(local) == {(0, 1), (0, 2), (1, 3), (2, 3)}
    assert local[(0, 2)]["isolated"] is False
    assert local[(0, 2)]["multiplicity"] is None
    assert local[(0, 1)]["isolated"] is True
    assert local[(0, 1)]["multiplicity"] == 1
    assert local[(1, 3)]["isolated"] is False
    # the edge {(1,0),(1,2)} has lattice length two, so the variety is
    # singular there and the local-scheme hypotheses do not apply
    assert "isolated" not in local[(2, 3)]
    assert local[(2, 3)]["hypotheses_violated"] == "configuration is not smooth at sigma"


def test_analyze_simplex_top_k(capsys):
    code, report, _ = run_json(capsys, "analyze", DATA / "triangle.json", "--k", "2")
    assert code == EXIT_OK
    (section,) = report["k_reports"]
    assert len(section["components"]) == 1
    assert section["components"][0]["dimension"] == 0
    assert "local_scheme" not in section


def test_analyze_birkhoff_k2(capsys):
    code, report, _ = run_json(capsys, "analyze", DATA / "birkhoff.json", "--k", "2")
    assert code == EXIT_OK
    (section,) = report["k_reports"]
    comps = section["components"]
    assert len(comps) == 15
    dims = sorted(c["dimension"] for c in comps)
    assert dims == [2] * 6 + [3] * 9
    assert section["graph"]["connected"] is True
    assert section["covered_by_k_planes"] is True
    # edges pair up exactly the components with nonempty intersection
    edge_pairs = {tuple(sorted(e)) for e in section["graph"]["edges"]}
    inter_pairs = {tuple(sorted(x["pair"])) for x in section["intersections"]}
    assert edge_pairs == inter_pairs


def test_analyze_multiple_k_sorted(capsys):
    code, report, _ = run_json(
        capsys, "analyze", DATA / "square.json", "--k", "2", "--k", "1"
    )
    assert code == EXIT_OK
    assert [s["k"] for s in report["k_reports"]] == [1, 2]
    assert report["k_reports"][1]["components"] == []


def test_analyze_text_matches_json(capsys):
    code_j, report, _ = run_json(capsys, "analyze", DATA / "square.json", "--k", "1")
    code_t, out_t, _ = run(capsys, "analyze", DATA / "square.json", "--k", "1")
    assert code_j == code_t == EXIT_OK
    assert out_t == render_text(report) + "\n"


def test_analyze_byte_identical_across_runs(capsys):
    _, first, _ = run(capsys, "analyze", DATA / "quartic.json", "--k", "1", "--format", "json")
    _, second, _ = run(capsys, "analyze", DATA / "quartic.json", "--k", "1", "--format", "json")
    assert first == second


def test_analyze_text_input_file(capsys):
    code, report, _ = run_json(capsys, "analyze", DATA / "quartic.txt", "--k", "1")
    assert code == EXIT_OK
    assert report["name"] is None
    assert report["input"]["points"] == [[0, 0], [0, 1], [1, 0], [1, 2]]


def test_analyze_invalid_k(capsys):
    code, out, err = run(capsys, "analyze", DATA / "square.json", "--k", "0")
    assert code == EXIT_BAD_K
    assert "k must be at least 1" in err


def test_analyze_default_k_is_one(capsys):
    code, report, _ = run_json(capsys, "analyze", DATA / "square.json")
    assert code == EXIT_OK
    assert [s["k"] for s in report["k_reports"]] == [1]


def test_analyze_empty_fano_scheme_is_connected(capsys, tmp_path):
    # the Veronese surface (2 Delta_2) holds no line; "connected" means at
    # most one connected component, so an empty scheme is connected
    path = tmp_path / "veronese.txt"
    path.write_text("0 0\n1 0\n2 0\n0 1\n1 1\n0 2\n")
    code, report, _ = run_json(capsys, "analyze", path, "--k", "1")
    assert code == EXIT_OK
    (section,) = report["k_reports"]
    assert section["components"] == []
    assert section["graph"]["connected"] is True
    assert section["graph"]["connected_components"] == []
    assert section["covered_by_k_planes"] is False


# ---------------------------------------------------------------------------
# mult


def test_mult_quartic_embedded_point(capsys):
    code, report, _ = run_json(capsys, "mult", DATA / "quartic.json", "--sigma", "0,2")
    assert code == EXIT_OK
    assert report["command"] == "mult"
    assert report["sigma"] == [0, 2]
    assert report["w_index"] == 1 and report["w_point"] == [0, 1]
    assert report["isolated"] is False
    assert report["multiplicity"] is None
    assert report["basis"]["ideal"] == [[0, 2], [1, 1]]
    assert report["basis"]["finite"] is False
    assert report["points"] == [
        {"index": 3, "height": 2, "offsets": [-1], "case": 1}
    ]


def test_mult_five_point_multiplicity_two(capsys):
    code, report, _ = run_json(capsys, "mult", DATA / "five.json", "--sigma", "0,1")
    assert code == EXIT_OK
    assert report["isolated"] is True
    assert report["multiplicity"] == 2
    assert report["multiplicity_by_height"] == 2
    assert report["basis"]["members"] == [[0, 0], [1, 0]]
    cases = {p["index"]: p["case"] for p in report["points"]}
    assert cases == {3: 1, 4: 6}


def test_mult_non_face_sigma_exits_five(capsys):
    code, out, err = run(capsys, "mult", DATA / "quartic.json", "--sigma", "0,3")
    assert code == EXIT_HYPOTHESES
    assert "hypotheses violated" in err
    assert "not a face" in err


@pytest.mark.parametrize("sigma", ["0,99", "-1,0"])
def test_mult_sigma_index_outside_the_points_exits_two(capsys, sigma):
    # quartic has points 0..3; valid indices that form no face exit 5 (above)
    code, out, err = run(capsys, "mult", DATA / "quartic.json", f"--sigma={sigma}")
    assert code == EXIT_PARSE
    assert out == ""
    assert "indices must lie in 0..3" in err


def test_mult_non_smooth_sigma_exits_five(capsys):
    # the edge {(1,0),(1,2)} of the quartic has lattice length two
    code, out, err = run(capsys, "mult", DATA / "quartic.json", "--sigma", "2,3")
    assert code == EXIT_HYPOTHESES
    assert out == ""
    assert "not smooth at sigma" in err


@pytest.mark.parametrize(
    "argv, facets",
    [
        (["mult", DATA / "five.json", "--sigma", "0,1"], 1),
        (["analyze", DATA / "birkhoff.json", "--k", "3"], 9),
    ],
    ids=["mult-five", "analyze-birkhoff"],
)
def test_local_reports_validate_each_facet_and_find_its_apex_once(
    capsys, monkeypatch, argv, facets
):
    # the apex search is the smoothness test: no separate is_smooth_at call;
    # the public functions the CLI calls share one search per facet
    calls = Counter()

    def counted(name, function):
        def wrapper(*args):
            calls[name] += 1
            return function(*args)

        return wrapper

    monkeypatch.setattr(
        PointConfiguration,
        "is_smooth_at",
        counted("is_smooth_at", PointConfiguration.is_smooth_at),
    )
    monkeypatch.setattr(
        localscheme, "_apex_search", counted("apex", localscheme._apex_search)
    )
    code, _, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert calls == {"apex": facets}
    # the CLI reaches the local scheme through its public functions only
    private = {
        name
        for name, value in vars(cli).items()
        if name.startswith("_")
        and not name.startswith("__")
        and getattr(localscheme, name, None) is value
    }
    assert private == set()


def test_mult_builds_the_local_ring_basis_once(capsys, monkeypatch):
    # multiplicity_by_height reads the basis mult_report built: one per-point
    # ideal for each of the two points of five outside sigma (0, 1) and its apex
    calls = Counter()
    original = localscheme._degree_and_kept

    def counted(hc, k):
        calls["ideal"] += 1
        return original(hc, k)

    monkeypatch.setattr(localscheme, "_degree_and_kept", counted)
    code, report, _ = run_json(capsys, "mult", DATA / "five.json", "--sigma", "0,1")
    assert code == EXIT_OK
    assert report["multiplicity_by_height"] is not None
    assert calls == {"ideal": 2}


def test_analyze_builds_the_components_once_per_k(capsys, monkeypatch):
    # the graph joins the components the report already holds
    calls = Counter()
    module = importlib.import_module("toricfano.components")
    original = module.components

    def counted(a, k):
        calls[k] += 1
        return original(a, k)

    monkeypatch.setattr(module, "components", counted)
    monkeypatch.setattr(cli, "components", counted)
    ks = [arg for k in range(1, 5) for arg in ("--k", str(k))]
    code, _, _ = run(capsys, "analyze", DATA / "birkhoff.json", *ks)
    assert code == EXIT_OK
    assert calls == {1: 1, 2: 1, 3: 1, 4: 1}


def test_verify_builds_each_relation_basis_once_per_run(capsys, monkeypatch):
    # one basis per face for the run, plus the brute-force oracle's own; the
    # chart samples share the run's full basis
    bases = Counter()
    relation_basis = verify.relation_basis

    def counted_basis(a, tau):
        rb = relation_basis(a, tau)
        bases[rb.face.indices] += 1
        return rb

    monkeypatch.setattr(cli, "relation_basis", counted_basis)
    monkeypatch.setattr(verify, "relation_basis", counted_basis)
    code, _, _ = run(capsys, "verify", DATA / "birkhoff.json", "--trials", "2")
    assert code == EXIT_OK
    assert len(bases) == 50
    assert all(n <= 2 for n in bases.values()), bases


def test_verify_asks_no_is_cayley_structure(capsys, monkeypatch):
    # the oracles build their structures from the run's own enumeration and
    # the brute-force search, never through is_cayley_structure: 471 for B_3
    calls = Counter()
    init, is_cayley_structure = cayley.CayleyStructure.__init__, cayley.is_cayley_structure

    def counted_init(self, face, blocks):
        calls["CayleyStructure"] += 1
        init(self, face, blocks)

    def counted_check(face, blocks):
        calls["is_cayley_structure"] += 1
        return is_cayley_structure(face, blocks)

    monkeypatch.setattr(cayley.CayleyStructure, "__init__", counted_init)
    for module in (cayley, cli, verify):
        if hasattr(module, "is_cayley_structure"):
            monkeypatch.setattr(module, "is_cayley_structure", counted_check)
    code, _, _ = run(capsys, "verify", DATA / "birkhoff.json")
    assert code == EXIT_OK
    assert calls["is_cayley_structure"] == 0
    assert calls["CayleyStructure"] <= 471, calls


def test_verify_samples_each_chart_once(capsys, monkeypatch):
    # every k filters one set of charts: (pi, heads[:s]) for 2 <= s <= l + 1
    sampled = []
    verify_chart_sample = cli.verify_chart_sample

    def recorded(relations, pi, sigma_tilde, sigma, **kwargs):
        sampled.append((pi, tuple(sigma)))
        return verify_chart_sample(relations, pi, sigma_tilde, sigma, **kwargs)

    monkeypatch.setattr(cli, "verify_chart_sample", recorded)
    code, _, _ = run(capsys, "verify", DATA / "birkhoff.json", "--trials", "2")
    assert code == EXIT_OK
    _, _, a = cli.load_input(str(DATA / "birkhoff.json"), cli.DEFAULT_MAX_POINTS)
    expected = {
        (pi, tuple(b[0] for b in pi.blocks)[:s])
        for pi in a.cayley_poset.maximal
        for s in range(2, pi.l + 2)
    }
    assert len(sampled) == len(set(sampled)), Counter(sampled).most_common(3)
    assert set(sampled) == expected


def test_analyze_joins_each_pair_once_per_face(monkeypatch):
    # intersections do not depend on k, which only filters them: 1,329 joins
    # for B_3, against 2,037 when each k joined again
    joins = Counter()
    join = cayley._join

    def counted(face, pi1, pi2):
        joins[face.indices, pi1.blocks, pi2.blocks] += 1
        return join(face, pi1, pi2)

    monkeypatch.setattr(cayley, "_join", counted)
    name, _, a = cli.load_input(str(DATA / "birkhoff.json"), cli.DEFAULT_MAX_POINTS)
    cli.analysis_report(a, name, [1, 2, 3, 4])
    assert joins and max(joins.values()) == 1, joins.most_common(3)
    assert sum(joins.values()) == 1329


def test_analyze_intersects_exactly_the_graph_edges(monkeypatch):
    # two components meet exactly when they share a fixed point, so analyze
    # intersects only the graph's edges: 105/63/0/0 pairs on B_3 for k = 1..4,
    # against 105/105/36/0 when it intersected every pair
    calls = Counter()
    intersect = cli.components_intersection

    def counted(a, pi1, pi2, k):
        common = intersect(a, pi1, pi2, k)
        assert common, (k, pi1, pi2)
        calls[k] += 1
        return common

    monkeypatch.setattr(cli, "components_intersection", counted)
    name, _, a = cli.load_input(str(DATA / "birkhoff.json"), cli.DEFAULT_MAX_POINTS)
    sections = cli.analysis_report(a, name, [1, 2, 3, 4])["k_reports"]
    edges = [len(s["graph"]["edges"]) for s in sections]
    assert [len(s["intersections"]) for s in sections] == edges == [105, 63, 0, 0]
    assert [calls[s["k"]] for s in sections] == edges


def test_analyze_builds_a_structure_only_per_answer(monkeypatch):
    # intersections compare joins by block counts and maximality compares
    # block tuples; a CayleyStructure is built only for a structure returned
    answers = {
        cayley.CayleyPoset.intersection.__code__: "intersection",
        cayley.CayleyPoset.__dict__["maximal"].func.__code__: "maximal",
    }
    built = Counter()
    init = cayley.CayleyStructure.__init__

    def counted(self, face, blocks):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code not in answers:
            frame = frame.f_back
        if frame is not None:
            built[answers[frame.f_code]] += 1
        init(self, face, blocks)

    monkeypatch.setattr(cayley.CayleyStructure, "__init__", counted)
    name, _, a = cli.load_input(str(DATA / "birkhoff.json"), cli.DEFAULT_MAX_POINTS)
    cli.analysis_report(a, name, [1, 2, 3, 4])
    returned = sum(len(found) for found in a.cayley_poset._intersection.values())
    assert built == {"intersection": returned, "maximal": len(a.cayley_poset.maximal)}
    assert built == {"intersection": 135, "maximal": 15}


def test_maximality_and_verify_search_each_face_for_blocks_once(monkeypatch):
    # the blocks are kept with the face, so the poset's atoms and verify's
    # enumeration of every structure share one search per face
    searched = Counter()
    blocks = pointconfig.Face.__dict__["cayley_blocks"]
    search = blocks.func

    def counted(face):
        searched[face.indices] += 1
        return search(face)

    monkeypatch.setattr(blocks, "func", counted)
    _, raw, a = cli.load_input(str(DATA / "birkhoff.json"), cli.DEFAULT_MAX_POINTS)
    cayley.maximal_cayley_structures(a, 1)
    checks = cli._verify_checks(a, raw["expect"], seed=0, trials=2)
    assert all(c["pass"] for c in checks)
    assert searched == Counter(f.indices for f in a.faces())


def test_mult_bad_sigma_string(capsys):
    code, _, err = run(capsys, "mult", DATA / "quartic.json", "--sigma", "0;2")
    assert code == EXIT_PARSE


def test_mult_repeated_sigma_index_exits_two(capsys):
    # read as 0,1 this is a smooth facet of five, so the repeat must not be dropped
    code, out, err = run(capsys, "mult", DATA / "five.json", "--sigma", "0,0,1")
    assert code == EXIT_PARSE
    assert out == ""
    assert "repeats an index" in err


# ---------------------------------------------------------------------------
# verify


def test_verify_square_passes(capsys):
    code, report, _ = run_json(capsys, "verify", DATA / "square.json", "--trials", "5")
    assert code == EXIT_OK
    assert report["passed"] is True
    names = {c["name"] for c in report["checks"]}
    assert {
        "relation_basis_valid",
        "brute_force_matches_fast",
        "cayley_planes_on_variety",
        "chart_samples_on_variety",
    } <= names
    assert all(c["pass"] for c in report["checks"])


def test_verify_quartic_passes(capsys):
    code, report, _ = run_json(capsys, "verify", DATA / "quartic.json", "--trials", "5")
    assert code == EXIT_OK
    assert report["passed"] is True


def test_verify_birkhoff_with_expectations(capsys):
    code, report, _ = run_json(
        capsys, "verify", DATA / "birkhoff.json", "--trials", "2", "--seed", "5"
    )
    assert code == EXIT_OK
    assert report["passed"] is True
    names = {c["name"] for c in report["checks"]}
    assert "expect:component_count:k=1" in names
    assert "expect:component_count:k=3" in names
    assert "expect:connected:k=2" in names
    assert "expect:dimension" in names


def test_verify_corrupted_expectation_fails(capsys):
    code, report, _ = run_json(capsys, "verify", DATA / "corrupted.json", "--trials", "2")
    assert code == EXIT_VERIFY_FAILED
    assert report["passed"] is False
    failing = [c for c in report["checks"] if not c["pass"]]
    assert [c["name"] for c in failing] == ["expect:component_count:k=1"]
    assert "expected 3, found 2" in failing[0]["detail"]


def test_verify_names_a_non_cayley_chart_among_the_maximal_structures(capsys, monkeypatch, tmp_path):
    # a maximality that lets the non-Cayley blocks ((1,), (3, 7)) of r12x5(8)'s
    # face (1, 3, 7) through: their plane satisfies every relation of the full
    # configuration's basis, but not its face's, which verify tests it against
    from test_verify import random_configuration

    path = tmp_path / "r12x5-8.txt"
    path.write_text("\n".join(" ".join(map(str, p)) for p in random_configuration(12, 5, 8).points))
    maximal = cli.maximal_cayley_structures

    def leaky(a, k):
        witness = cayley.CayleyStructure(a.face_from_indices((1, 3, 7)), [(1,), (3, 7)])
        return maximal(a, k) + ((witness,) if k == 1 else ())

    monkeypatch.setattr(cli, "maximal_cayley_structures", leaky)
    code, report, _ = run_json(capsys, "verify", path, "--trials", "1")
    assert code == EXIT_VERIFY_FAILED
    failing = {c["name"]: c["detail"] for c in report["checks"] if not c["pass"]}
    assert failing == {"chart_samples_on_variety": "k=1, blocks ((1,), (3, 7)), sigma (1, 3)"}


def hypersimplex_2_5(tmp_path):
    """Delta(2, 5), the 0/1 vectors of Z^5 with two ones, as a points file."""
    path = tmp_path / "delta25.txt"
    rows = [[int(i in (s, t)) for i in range(5)] for s in range(5) for t in range(s + 1, 5)]
    path.write_text("\n".join(" ".join(map(str, row)) for row in rows))
    return path


@pytest.mark.parametrize(
    "change, detail",
    [
        (lambda vectors: vectors[:-1], "found 4 vectors, expected 5"),
        (lambda vectors: (*vectors, vectors[0]), "found 6 vectors, expected 5"),
        (lambda vectors: ((vectors[0][0] + 1, *vectors[0][1:]), *vectors[1:]), "is not a relation"),
        (lambda vectors: (tuple(2 * m for m in vectors[0]), *vectors[1:]), "not saturated"),
    ],
    ids=["one short", "one over", "not a relation", "not saturated"],
)
def test_verify_names_the_witness_against_a_relation_basis(
    capsys, monkeypatch, tmp_path, change, detail
):
    # every basis verify reads, changed: too few or too many vectors, a
    # vector that is no relation, or a lattice that is not saturated
    relation_basis = cli.relation_basis

    def changed(a, tau):
        rb = relation_basis(a, tau)
        return verify.RelationBasis(face=rb.face, vectors=change(rb.vectors) if rb.vectors else ())

    monkeypatch.setattr(cli, "relation_basis", changed)
    code, report, _ = run_json(capsys, "verify", hypersimplex_2_5(tmp_path), "--trials", "1")
    assert code == EXIT_VERIFY_FAILED
    check = next(c for c in report["checks"] if c["name"] == "relation_basis_valid")
    assert check["pass"] is False and detail in check["detail"], check
    if detail == "is not a relation":
        a = PointConfiguration(tuple(map(tuple, report["input"]["points"])))
        vec = change(relation_basis(a, tuple(range(10))).vectors)[0]
        assert check["detail"] == f"vector {vec} is not a relation"


@pytest.mark.parametrize(
    "change, problem",
    [
        (lambda vectors: vectors[:-1], "found {short} vectors, expected {rank}"),
        (lambda vectors: ((vectors[0][0] + 1, *vectors[0][1:]), *vectors[1:]), "vector {first} is not a relation"),
    ],
    ids=["one short", "not a relation"],
)
def test_verify_checks_the_relation_basis_of_every_face(capsys, monkeypatch, tmp_path, change, problem):
    # the full face's basis kept, and each proper face's with more than one
    # vector changed (5 faces of Delta(2,5)): the plane checks read these
    # bases, so the largest such face is named
    relation_basis = cli.relation_basis

    def changed(a, tau):
        rb = relation_basis(a, tau)
        if len(rb.face.indices) == len(a.points) or len(rb.vectors) < 2:
            return rb
        return verify.RelationBasis(face=rb.face, vectors=change(rb.vectors))

    monkeypatch.setattr(cli, "relation_basis", changed)
    code, report, _ = run_json(capsys, "verify", hypersimplex_2_5(tmp_path), "--trials", "1")
    assert code == EXIT_VERIFY_FAILED
    a = PointConfiguration(tuple(map(tuple, report["input"]["points"])))
    proper = [f for f in a.faces() if len(f.indices) < len(a.points) and len(relation_basis(a, f).vectors) > 1]
    assert len(proper) == 5
    vectors = relation_basis(a, proper[-1]).vectors
    wanted = problem.format(short=len(vectors) - 1, rank=len(vectors), first=change(vectors)[0])
    check = next(c for c in report["checks"] if c["name"] == "relation_basis_valid")
    assert check == {
        "name": "relation_basis_valid",
        "pass": False,
        "detail": f"face {proper[-1].indices}: {wanted}",
    }


@pytest.mark.parametrize(
    "change, found",
    [
        (lambda found: found[:1] + found, "found 2 times by the fast path, 1 by brute force"),
        (lambda found: found[1:], "found only by brute force"),
    ],
    ids=["duplicated", "missing"],
)
def test_verify_names_the_structure_brute_force_disputes(capsys, monkeypatch, change, found):
    # the fast path's structures, changed on every face: the first structure
    # twice, or left out; brute force finds each once
    enumerate_cayley_structures = cli.enumerate_cayley_structures
    monkeypatch.setattr(
        cli, "enumerate_cayley_structures", lambda face, l: change(enumerate_cayley_structures(face, l))
    )
    code, report, _ = run_json(capsys, "verify", DATA / "birkhoff.json", "--trials", "1")
    assert code == EXIT_VERIFY_FAILED
    check = next(c for c in report["checks"] if c["name"] == "brute_force_matches_fast")
    a = PointConfiguration(tuple(map(tuple, report["input"]["points"])))
    face = next(face for face in a.faces() if enumerate_cayley_structures(face, 1))
    first = min(pi.blocks for pi in enumerate_cayley_structures(face, 1))
    assert check == {
        "name": "brute_force_matches_fast",
        "pass": False,
        "detail": f"face {face.indices}, blocks {first} {found}",
    }


def test_verify_names_a_structure_only_the_fast_path_finds(capsys, monkeypatch):
    # the quartic's horizontal partition is no Cayley structure
    a = PointConfiguration(tuple(map(tuple, json.loads((DATA / "quartic.json").read_text())["points"])))
    horizontal = cayley.CayleyStructure(a.face_from_indices((0, 1, 2, 3)), [(0, 2), (1, 3)])
    enumerate_cayley_structures = cli.enumerate_cayley_structures

    def leaky(face, l):
        found = enumerate_cayley_structures(face, l)
        return found + (horizontal,) if face == horizontal.face else found

    monkeypatch.setattr(cli, "enumerate_cayley_structures", leaky)
    code, report, _ = run_json(capsys, "verify", DATA / "quartic.json", "--trials", "1")
    assert code == EXIT_VERIFY_FAILED
    check = next(c for c in report["checks"] if c["name"] == "brute_force_matches_fast")
    assert check["detail"] == "face (0, 1, 2, 3), blocks ((0, 2), (1, 3)) found only by the fast path"


def test_verify_counts_the_faces_a_passing_check_skipped(capsys, tmp_path):
    # 13 points on a line: the full face exceeds the brute-force cap (12);
    # every other face is checked
    path = tmp_path / "line13.txt"
    path.write_text("\n".join(str(i) for i in range(13)))
    code, report, _ = run_json(capsys, "verify", path, "--trials", "1")
    assert code == EXIT_OK
    details = {c["name"]: c["detail"] for c in report["checks"] if c["pass"]}
    assert details["brute_force_matches_fast"] == "faces of more than 12 points not checked: 1"
    assert details["cayley_planes_on_variety"] is None
    # nothing skipped, nothing said
    code, report, _ = run_json(capsys, "verify", DATA / "five.json", "--trials", "1")
    assert code == EXIT_OK
    assert all(c["detail"] is None for c in report["checks"])


def test_verify_seeded_runs_identical(capsys):
    _, first, _ = run(
        capsys, "verify", DATA / "five.json", "--trials", "3", "--seed", "9", "--format", "json"
    )
    _, second, _ = run(
        capsys, "verify", DATA / "five.json", "--trials", "3", "--seed", "9", "--format", "json"
    )
    assert first == second


# ---------------------------------------------------------------------------
# input handling and exit codes


def test_missing_file_is_parse_error(capsys):
    code, _, err = run(capsys, "analyze", DATA / "does-not-exist.json")
    assert code == EXIT_PARSE
    assert "cannot read" in err


def test_json_without_points_is_parse_error(capsys):
    code, _, err = run(capsys, "analyze", DATA / "bad.json")
    assert code == EXIT_PARSE
    assert "points" in err


def test_text_with_non_integers_is_parse_error(capsys):
    code, _, err = run(capsys, "analyze", DATA / "bad.txt")
    assert code == EXIT_PARSE


def test_duplicate_points_rejected(capsys, tmp_path):
    path = tmp_path / "dup.json"
    path.write_text(json.dumps({"points": [[0, 0], [0, 0]]}))
    code, _, err = run(capsys, "analyze", path)
    assert code == EXIT_PARSE
    assert "duplicate" in err


def test_size_cap_exit(capsys, tmp_path):
    path = tmp_path / "big.txt"
    path.write_text("\n".join(f"{i} {i * i}" for i in range(15)))
    code, _, err = run(capsys, "analyze", path)
    assert code == EXIT_SIZE
    assert "exceeds the cap" in err


def test_size_cap_flag(capsys):
    code, _, err = run(capsys, "analyze", DATA / "square.json", "--max-points", "3")
    assert code == EXIT_SIZE


@pytest.mark.parametrize(
    "argv", [["analyze"], ["verify"], ["mult", "--sigma", "0,1,2,3,4,5,6"]], ids=lambda v: v[0]
)
def test_dimension_cap_exits_3_for_every_subcommand(capsys, tmp_path, argv):
    # 8 points fit the point cap; face enumeration refuses dimension 7
    path = tmp_path / "simplex7.txt"
    path.write_text("\n".join(" ".join(str(int(i == j)) for j in range(7)) for i in range(-1, 7)))
    code, out, err = run(capsys, argv[0], path, *argv[1:])
    assert code == EXIT_SIZE
    assert out == "" and "dimension at most 6" in err


@pytest.mark.parametrize(
    "argv", [["mult", "--sigma", "0,1,2"], ["analyze", "--k", "2"]], ids=lambda v: v[0]
)
def test_local_ring_past_the_walk_cap_exits_3_at_once(capsys, monkeypatch, tmp_path, argv):
    # the walk of tall(80)'s local ring lists the 88,560 monomials below degree 80
    monkeypatch.setattr(localscheme, "MAX_WALK", 1000)
    path = tmp_path / "tall80.txt"
    path.write_text("0 0 0\n1 0 0\n0 1 0\n0 0 1\n0 0 80\n")
    start = time.perf_counter()
    code, out, err = run(capsys, argv[0], path, *argv[1:])
    assert time.perf_counter() - start < 2
    assert code == EXIT_SIZE
    assert out == "" and "at most 1000 monomials" in err


def test_fixture_points_match_expected_birkhoff(capsys):
    from test_pointconfig import birkhoff_points

    raw = json.loads((DATA / "birkhoff.json").read_text())
    assert [tuple(p) for p in raw["points"]] == list(birkhoff_points())


@pytest.mark.parametrize(
    "points",
    [
        [[1.5, 0], [0, 1], [0, 0]],  # would be truncated to (1, 0)
        [[1.0, 0], [0, 1], [0, 0]],
        [[True, 0], [0, 1], [0, 0]],  # JSON booleans are not coordinates
        [["1", 0], [0, 1], [0, 0]],
    ],
    ids=["fraction", "float", "boolean", "string"],
)
def test_non_integer_json_coordinates_rejected(capsys, tmp_path, points):
    path = tmp_path / "points.json"
    path.write_text(json.dumps({"points": points}))
    code, out, err = run(capsys, "analyze", path)
    assert code == EXIT_PARSE
    assert out == ""
    assert "points must be integers" in err


@pytest.mark.parametrize(
    "expect, message",
    [
        ([], '"expect" must be an object'),
        (None, '"expect" must be an object'),
        (3, '"expect" must be an object'),
        ({"component_counts": []}, '"expect.component_counts" must be an object'),
        ({"connected": [True]}, '"expect.connected" must be an object'),
        ({"component_counts": {"0": 2}}, '"expect.component_counts" must be an object'),
        ({"component_counts": {"x": 2}}, '"expect.component_counts" must be an object'),
        ({"connected": {"01": True}}, '"expect.connected" must be an object'),
        ({"component_counts": {"1": "2"}}, '"expect.component_counts" must be an object'),
        ({"component_counts": {"1": -1}}, '"expect.component_counts" must be an object'),
        ({"component_counts": {"1": True}}, '"expect.component_counts" must be an object'),
        ({"connected": {"1": 1}}, '"expect.connected" must be an object'),
        ({"dimension": "2"}, '"expect.dimension" must be a nonnegative integer'),
        ({"dimension": 2.0}, '"expect.dimension" must be a nonnegative integer'),
        ({"dimensions": 2}, "unknown key 'dimensions'"),
    ],
    ids=[
        "empty-list",
        "null",
        "number",
        "counts-list",
        "connected-list",
        "zero-k",
        "non-integer-k",
        "padded-k",
        "string-count",
        "negative-count",
        "boolean-count",
        "integer-connected",
        "string-dimension",
        "float-dimension",
        "unknown-key",
    ],
)
def test_malformed_expect_rejected(capsys, tmp_path, monkeypatch, expect, message):
    def no_oracle(*args):
        raise AssertionError("an oracle ran before the expect block was checked")

    monkeypatch.setattr(cli, "relation_basis", no_oracle)
    path = tmp_path / "expect.json"
    path.write_text(json.dumps({"points": [[0, 0], [0, 1], [1, 0], [1, 1]], "expect": expect}))
    code, out, err = run(capsys, "verify", path, "--trials", "1")
    assert code == EXIT_PARSE
    assert out == ""
    assert message in err


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_rejects_fewer_than_one_trial(capsys, trials):
    code, out, err = run(capsys, "verify", DATA / "square.json", "--trials", trials)
    assert code == EXIT_PARSE
    assert out == ""
    assert "--trials must be at least 1" in err


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize(
    "argv", [["analyze"], ["verify"], ["mult", "--sigma", "0,1"]], ids=lambda v: v[0]
)
def test_max_points_below_one_exits_2(capsys, argv, value):
    # such a cap refuses every input: it is malformed, not a size limit hit
    code, out, err = run(capsys, argv[0], DATA / "five.json", *argv[1:], "--max-points", value)
    assert code == EXIT_PARSE
    assert out == ""
    assert "--max-points must be at least 1" in err


# Integers on the command line and in text input are optionally signed ASCII
# decimal digits: int() alone reads "1_0" as 10 and "١" (Arabic-Indic one) as 1.
NOT_DECIMAL = ["1_0", "١", "٠", "0x1", "1.0", "+-1"]


@pytest.mark.parametrize("value", NOT_DECIMAL)
def test_text_rows_take_only_decimal_integers(capsys, tmp_path, value):
    path = tmp_path / "rows.txt"
    path.write_text(f"{value} 0\n0 1\n2 2\n", encoding="utf-8")
    code, out, err = run(capsys, "analyze", path)
    assert code == EXIT_PARSE
    assert out == ""
    assert "not a decimal integer" in err


@pytest.mark.parametrize("value", NOT_DECIMAL)
def test_sigma_takes_only_decimal_integers(capsys, value):
    code, out, err = run(capsys, "mult", DATA / "five.json", "--sigma", f"0,{value}")
    assert code == EXIT_PARSE
    assert out == ""
    assert "not a decimal integer" in err


@pytest.mark.parametrize(
    "argv",
    [["analyze", "--k"], ["analyze", "--max-points"], ["verify", "--seed"], ["verify", "--trials"]],
    ids=lambda v: v[1],
)
@pytest.mark.parametrize("value", NOT_DECIMAL)
def test_integer_options_take_only_decimal_integers(capsys, argv, value):
    with pytest.raises(SystemExit) as exit_info:
        main([argv[0], str(DATA / "square.json"), argv[1], value])
    assert exit_info.value.code == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not a decimal integer" in captured.err


def test_decimal_integers_may_be_signed_and_padded(capsys, tmp_path):
    path = tmp_path / "rows.txt"
    path.write_text("+0 -0\n0 1\n1 0\n1 +1\n", encoding="utf-8")
    code, report, _ = run_json(capsys, "analyze", path, "--k", " +1 ", "--max-points", "04")
    assert code == EXIT_OK
    assert report["input"]["points"] == [[0, 0], [0, 1], [1, 0], [1, 1]]
    assert [s["k"] for s in report["k_reports"]] == [1]
    code, report, _ = run_json(capsys, "mult", DATA / "five.json", "--sigma", " 0, +1")
    assert code == EXIT_OK
    assert report["sigma"] == [0, 1]


# An integer of more digits than CPython converts (sys.get_int_max_str_digits,
# 4,300 by default) makes int() and json.loads raise ValueError
TOO_LONG = "1" * 5000


def test_json_input_with_an_integer_too_long_to_convert_exits_2(capsys, tmp_path):
    path = tmp_path / "long.json"
    path.write_text(f'{{"points": [[{TOO_LONG}, 0], [0, 1], [1, 1]]}}', encoding="utf-8")
    code, out, err = run(capsys, "analyze", path)
    limit = sys.get_int_max_str_digits()
    message = f"error: JSON input has an integer of more than {limit} digits\n"
    assert (code, out, err) == (EXIT_PARSE, "", message)


def test_a_text_row_with_an_integer_too_long_to_convert_exits_2(capsys, tmp_path):
    path = tmp_path / "long.txt"
    path.write_text(f"{TOO_LONG} 0\n0 1\n1 1\n", encoding="utf-8")
    code, out, err = run(capsys, "analyze", path)
    limit = sys.get_int_max_str_digits()
    message = f"error: points must be integers: an integer of more than {limit} digits\n"
    assert (code, out, err) == (EXIT_PARSE, "", message)


def test_a_sigma_index_too_long_to_convert_exits_2(capsys):
    code, out, err = run(capsys, "mult", DATA / "five.json", "--sigma", TOO_LONG)
    limit = sys.get_int_max_str_digits()
    message = f"error: --sigma must be comma-separated integers: an integer of more than {limit} digits\n"
    assert (code, out, err) == (EXIT_PARSE, "", message)


SUBCOMMANDS = [["analyze"], ["verify"], ["mult", "--sigma", "0,2"]]


@pytest.mark.parametrize("argv", SUBCOMMANDS, ids=lambda v: v[0])
@pytest.mark.parametrize(
    "data, offset",
    [
        (b"0 0\n1 0\n0 1\xff\n", 11),
        (b'{"points": [[0, 0], [1, 0], [0, 1]], "name": "\xe2\x82"}', 46),
        (b"\xef\xbb\xbf0 0\n\xc0\x80 0\n0 1\n", 7),  # the offset counts the byte-order mark
    ],
    ids=["text", "json", "bom"],
)
def test_input_that_is_not_utf8_exits_2_naming_the_byte(capsys, tmp_path, argv, data, offset):
    path = tmp_path / "latin.txt"
    path.write_bytes(data)
    code, out, err = run(capsys, argv[0], path, *argv[1:])
    assert (code, out, err) == (EXIT_PARSE, "", f"error: cannot read {path}: not UTF-8 at byte offset {offset}\n")


DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("argv", SUBCOMMANDS, ids=lambda v: v[0])
@pytest.mark.parametrize(
    "text",
    [
        f'{{"points": {DEEP}}}',
        DEEP,
        f'{{"points": [[0, 0], [1, 0], [0, 1]], "expect": {DEEP}}}',
    ],
    ids=["points", "array", "expect"],
)
def test_json_nested_too_deeply_exits_2(capsys, tmp_path, argv, text):
    path = tmp_path / "deep.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, argv[0], path, *argv[1:])
    assert (code, out, err) == (EXIT_PARSE, "", "error: JSON input nests too deeply\n")


@pytest.mark.parametrize("argv", SUBCOMMANDS, ids=lambda v: v[0])
def test_a_json_array_at_the_top_level_exits_2(capsys, tmp_path, argv):
    # JSON, so not text rows, and not an object holding "points"
    path = tmp_path / "array.json"
    path.write_text("[[0, 0], [1, 0], [0, 1]]")
    code, out, err = run(capsys, argv[0], path, *argv[1:])
    assert (code, out, err) == (EXIT_PARSE, "", 'error: JSON input must be an object with "points"\n')


def test_a_bare_integer_is_a_one_point_text_input(capsys, tmp_path):
    # "7" is also a JSON document, but only an object is read as JSON input
    path = tmp_path / "one.txt"
    path.write_text("7\n")
    code, report, _ = run_json(capsys, "analyze", path)
    assert code == EXIT_OK
    assert report["input"]["points"] == [[7]]


NESTED_980 = "[" * 980 + "]" * 980  # just inside what json.loads parses


@pytest.mark.parametrize(
    "text",
    [
        f'{{"points": [[0, 0], [1, 0], [0, 1]], "expect": {{"dimension": {NESTED_980}}}}}',
        f'{{"points": [[0, 0], [1, 0], [0, 1]], "expect": {{"{"k" * 5_000}": 1}}}}',
        f'{{"points": [[0, {NESTED_980}], [1, 0], [0, 1]]}}',
        f"0 0\n1 {'x' * 5_000}\n0 1\n",
    ],
    ids=["expect-value", "expect-key", "coordinate", "text-row"],
)
def test_an_error_naming_a_rejected_value_is_one_short_line(tmp_path, text):
    # in a fresh interpreter, as the command runs: a deep test stack would
    # stop json.loads at a lower depth
    path = tmp_path / "long.json"
    path.write_text(text)
    child = _child("-m", "toricfano.cli", "verify", str(path), text=True)
    assert (child.returncode, child.stdout) == (EXIT_PARSE, "")
    assert child.stderr.startswith("error: ") and child.stderr.count("\n") == 1
    assert len(child.stderr) <= 120, child.stderr


@pytest.mark.parametrize("fixture", ["quartic.json", "quartic.txt"])
@pytest.mark.parametrize("argv", SUBCOMMANDS, ids=lambda v: v[0])
def test_a_leading_byte_order_mark_is_ignored(capsys, tmp_path, fixture, argv):
    # some editors write UTF-8 files with one; RFC 8259 lets a JSON parser ignore it
    path = tmp_path / fixture
    path.write_bytes(b"\xef\xbb\xbf" + (DATA / fixture).read_bytes())
    plain = run(capsys, argv[0], DATA / fixture, *argv[1:])
    assert plain[0] == EXIT_OK
    assert run(capsys, argv[0], path, *argv[1:]) == plain


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command", ["analyze", "verify"])
def test_a_name_with_a_lone_surrogate_exits_2_in_both_formats(capsys, tmp_path, command, fmt):
    # JSON escapes can spell a lone surrogate, which no UTF-8 text report can print
    path = tmp_path / "surrogate.json"
    path.write_text('{"points": [[0, 0], [1, 0], [0, 1]], "name": "\\ud800"}', encoding="utf-8")
    code, out, err = run(capsys, command, path, "--format", fmt)
    assert (code, out, err) == (EXIT_PARSE, "", 'error: "name" must be Unicode text\n')
    # an escaped surrogate pair is one character, and a name like any other
    path.write_text('{"points": [[0, 0], [1, 0], [0, 1]], "name": "\\ud83d\\ude00"}', encoding="utf-8")
    assert run(capsys, command, path, "--format", fmt)[0] == EXIT_OK


NAME_CONTROLS = {
    "newline": "\\n",
    "NUL": "\\u0000",
    "unit separator": "\\u001f",
    "DEL": "\\u007f",
    "next line": "\\u0085",
    "C1 end": "\\u009f",
    "line separator": "\\u2028",
    "paragraph separator": "\\u2029",
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command", ["analyze", "verify", "mult"])
@pytest.mark.parametrize("escape", NAME_CONTROLS.values(), ids=NAME_CONTROLS.keys())
def test_a_name_with_a_control_character_exits_2_in_both_formats(capsys, tmp_path, command, fmt, escape):
    # a line break in the name would forge a key of the text report
    path = tmp_path / "control.json"
    path.write_text(
        '{"points": [[0, 0], [1, 0], [0, 1]], "name": "a%sk_reports: forged"}' % escape,
        encoding="utf-8",
    )
    options = ("--sigma", "0,1") if command == "mult" else ()
    code, out, err = run(capsys, command, path, *options, "--format", fmt)
    assert (code, out, err) == (EXIT_PARSE, "", 'error: "name" must not contain control characters\n')


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command", ["analyze", "verify"])
def test_a_printable_non_ascii_name_is_accepted(capsys, tmp_path, command, fmt):
    # only controls are refused: a no-break space and a Greek capital are text
    name = "\u0394(2,5)\u00a0B"
    path = tmp_path / "named.json"
    path.write_text(json.dumps({"points": [[0, 0], [1, 0], [0, 1]], "name": name}), encoding="utf-8")
    code, out, _ = run(capsys, command, path, "--format", fmt)
    assert code == EXIT_OK
    if fmt == "json":
        assert json.loads(out)["name"] == name
    else:
        assert f"name: {name}" in out.splitlines()


# ---------------------------------------------------------------------------
# the JSON writer


@pytest.mark.parametrize("name", sorted(p.name for p in test_golden.GOLDEN.glob("*.json")))
def test_render_json_writes_what_json_dumps_writes_for_every_golden_report(name):
    report = json.loads((test_golden.GOLDEN / name).read_text(encoding="utf-8"))
    assert render_json(report) == json.dumps(report, indent=2, sort_keys=True)


def test_render_json_writes_what_json_dumps_writes_for_every_benchmark_report(tmp_path):
    # the 13 operations of perfbench/run.py's workloads on their seed-0 inputs,
    # in a child that writes no bytecode into perfbench/
    code = (
        "import contextlib, io, json, sys; sys.path.insert(0, 'perfbench')\n"
        "import run\n"
        "from toricfano.cli import main, render_json\n"
        "done, wrong = 0, []\n"
        "for workload, ops in sorted(run.WORKLOADS.items()):\n"
        "    bench = run.Run('.', workload, 0, sys.argv[1])\n"
        "    bench.paths = run.inputs.write_inputs('.', bench.names, 0, sys.argv[1])\n"
        "    for op in ops:\n"
        "        out = io.StringIO()\n"
        "        with contextlib.redirect_stdout(out):\n"
        "            main(bench.argv(op))\n"
        "        report = json.loads(out.getvalue())\n"
        "        done += 1\n"
        "        if render_json(report) != json.dumps(report, indent=2, sort_keys=True):\n"
        "            wrong.append(op)\n"
        "print(done, wrong)"
    )
    child = _child("-B", "-c", code, str(tmp_path), text=True)
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "13 []"


# every kind of character json.dumps escapes or keeps: ASCII, control
# characters, any Unicode, and lone surrogates
JSON_TEXT = st.text(st.characters() | st.characters(categories=["Cc", "Cs"]))
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64)
    | JSON_TEXT
    | st.lists(st.integers() | st.booleans()),
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(JSON_TEXT, inner),
    max_leaves=20,
)


@settings(max_examples=100, deadline=None)
@given(JSON_VALUES)
def test_render_json_writes_what_json_dumps_writes(value):
    assert render_json(value) == json.dumps(value, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# package surface


def test_every_exported_name_resolves_and_is_named_in_the_readme_library():
    readme = (DATA.parents[1] / "README.md").read_text(encoding="utf-8")
    library = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    prose = re.sub(r"```.*?```", "", library, flags=re.S)
    named = set(re.findall(r"\w+", " ".join(re.findall(r"`([^`]+)`", prose))))
    for name in toricfano.__all__:
        assert getattr(toricfano, name) is not None
        assert name in named, name


def test_every_traced_function_resolves():
    # the benchmark's per-layer labels bind these functions by name
    path = DATA.parents[1] / "perfbench" / "traced_cli.py"
    spec = importlib.util.spec_from_file_location("traced_cli", path)
    traced_cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced_cli)
    for module, function, _ in traced_cli.TRACED:
        found = getattr(importlib.import_module(f"toricfano.{module}"), function, None)
        assert callable(found), (module, function)


def test_the_benchmark_reference_oracle_still_matches_its_answers():
    # perfbench/make_reference.py derives the benchmark's answers from the
    # package's brute-force oracle; main() would rewrite reference_oracle.json,
    # so the child compares oracle_answer alone with the stored and closed
    # forms, and writes no bytecode into perfbench/
    code = (
        "import sys; sys.path.insert(0, 'perfbench')\n"
        "import inputs, make_reference as m, reference\n"
        "stored = reference.load_oracle()\n"
        "wanted = {**{name: stored[name] for name in m.STORED}, **m.CLOSED_FORM}\n"
        "wrong = [name for name, answer in wanted.items()\n"
        "         if m.oracle_answer(inputs.base_input(m.ROOT, name)['points']) != answer]\n"
        "print(len(wanted), wrong)"
    )
    child = _child("-B", "-c", code, text=True)
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "8 []"


def _child_env(unbuffered: bool = False) -> dict:
    """The environment of a fresh interpreter on the package's source; its
    stdout is block-buffered unless asked, as it is when nothing sets
    PYTHONUNBUFFERED, so that a report left unflushed would be lost."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(DATA.parents[1] / "src")
    return dict(env, PYTHONUNBUFFERED="1") if unbuffered else env


def _child(*args, **kwargs) -> subprocess.CompletedProcess:
    """A fresh interpreter on the package's source, run from the repository root."""
    return subprocess.run(
        [sys.executable, *args], env=_child_env(), cwd=DATA.parents[1], capture_output=True, **kwargs
    )


def test_importing_the_command_line_loads_no_dataclasses_or_inspect():
    # every command starts a fresh interpreter, and these two cost about a
    # quarter of the package's import: inspect alone pulls in ast, dis and
    # tokenize; fractions brings decimal, and hashlib brings OpenSSL
    code = (
        "import sys; before = set(sys.modules); import toricfano.cli; print(sorted("
        "{'dataclasses', 'inspect', 'fractions', 'decimal', 'hashlib'} & (set(sys.modules) - before)))"
    )
    child = _child("-c", code, text=True)
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "[]"


def test_mult_loads_neither_hashlib_nor_fractions():
    # only component ids hash, and they import their SHA-256 module when first
    # called; only the Fraction reference rational_solve makes a Fraction:
    # verify's sampled planes are integer pairs
    for argv in (
        ["mult", "tests/data/five.json", "--sigma", "0,1"],
        ["verify", "tests/data/five.json"],
    ):
        code = (
            "import contextlib, io, sys; from toricfano.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = main({argv!r})\n"
            "print(code, sorted({'hashlib', '_sha2', '_sha256', 'fractions'} & set(sys.modules)))"
        )
        child = _child("-c", code, text=True)
        assert child.returncode == 0, child.stderr
        assert child.stdout.strip() == "0 []", argv


def test_no_command_loads_hashlib():
    # component ids hash with CPython's own SHA-256 (_sha2, or _sha256 before
    # 3.12); hashlib would map OpenSSL's _hashlib into every such command
    for argv in (
        ["analyze", "tests/data/birkhoff.json", *test_golden._every_k(4)],
        ["verify", "tests/data/birkhoff.json"],  # its connected expectation computes ids
        ["mult", "tests/data/five.json", "--sigma", "0,1"],
    ):
        code = (
            "import contextlib, io, sys; from toricfano.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = main({argv!r})\n"
            "print(code, sorted({'hashlib', '_hashlib'} & set(sys.modules)))"
        )
        child = _child("-c", code, text=True)
        assert child.returncode == 0, child.stderr
        assert child.stdout.strip() == "0 []", argv


# ---------------------------------------------------------------------------
# the command's exit


@pytest.mark.parametrize("name, argv", test_golden.CASES, ids=[c[0] for c in test_golden.CASES])
def test_the_command_writes_every_golden_report(name, argv):
    # python -m toricfano.cli ends in os._exit, so the report must be flushed first
    child = _child("-m", "toricfano.cli", argv[0], f"tests/data/{argv[1]}", *argv[2:])
    assert (child.returncode, child.stderr) == (EXIT_OK, b"")
    assert child.stdout == (test_golden.GOLDEN / name).read_bytes()


@pytest.mark.parametrize(
    "argv, exit_code",
    [
        (["verify", "tests/data/corrupted.json", "--format", "json"], EXIT_VERIFY_FAILED),
        (["analyze", "tests/data/five.json", "--k", "0"], EXIT_BAD_K),
        (["analyze", "tests/data/five.json", "--max-points", "0"], EXIT_PARSE),
        (["analyze", "tests/data/square.json", "--max-points", "3"], EXIT_SIZE),
        (["mult", "tests/data/quartic.json", "--sigma", "2,3"], EXIT_HYPOTHESES),
    ],
)
def test_the_command_exits_with_what_main_returns(capsys, argv, exit_code):
    child = _child("-m", "toricfano.cli", *argv, text=True)
    code, out, err = run(capsys, *argv)
    assert (child.returncode, child.stdout, child.stderr) == (code, out, err)
    assert code == exit_code


def test_the_command_skips_interpreter_teardown():
    # an atexit handler runs at interpreter teardown, which os._exit skips
    code = (
        "import atexit, runpy, sys\n"
        "atexit.register(print, 'teardown ran', file=sys.stderr)\n"
        "sys.argv = ['toricfano', 'mult', 'tests/data/five.json', '--sigma', '0,1', '--format', 'json']\n"
        "runpy.run_module('toricfano.cli', run_name='__main__')\n"
    )
    child = _child("-c", code)
    assert (child.returncode, child.stderr) == (EXIT_OK, b"")
    assert child.stdout == (test_golden.GOLDEN / "mult-five.json").read_bytes()


@pytest.mark.parametrize("unbuffered", [False, True], ids=["fails-at-flush", "fails-at-write"])
def test_a_closed_stdout_is_one_error_line_and_exit_1(unbuffered):
    # the read end is closed before the child starts, so its output fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        child = subprocess.Popen(
            [sys.executable, "-m", "toricfano.cli", "mult", "tests/data/five.json", "--sigma", "0,1"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=_child_env(unbuffered),
            cwd=DATA.parents[1],
            text=True,
        )
    finally:
        os.close(write_end)
    err = child.communicate(timeout=60)[1]
    assert child.returncode == cli.EXIT_OUTPUT_CLOSED == 1
    assert err.startswith("error: cannot write the report:") and err.count("\n") == 1, err
