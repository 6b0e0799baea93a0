"""Reference answers, each with its source, and the checker that holds every
CLI report to them.

Only properties invariant under the benchmark's input transformations are
compared: per ``k`` the component count, the sorted component dimensions and
the number of connected pieces of the Fano scheme; the multiplicity and
isolatedness reported by ``mult``; the verdict of ``verify``.  Formatting,
``schema``, ids and index-valued fields are ignored.  An empty Fano scheme is
recognised by its piece count (0), never by the report's ``connected`` flag.

Sources:

* Segre ``Delta_a x Delta_b`` (P^a x P^b): every k-plane lies in a fibre, so
  there is a component P^a x G(k, b) of dimension a + (k+1)(b-k) for k <= b
  and G(k, a) x P^b of dimension b + (k+1)(a-k) for k <= a, and they are
  disjoint.
* Veronese ``d Delta_n`` with d >= 2 contains no lines, so no k-planes.
* Birkhoff B_3 and the hypersimplices Delta(2, n): the brute-force oracle
  ``toricfano.verify.brute_force_cayley`` on every face with the maximality,
  dimension and fixed-point graph computed from their definitions, stored in
  ``reference_oracle.json`` by ``make_reference.py``.  The B_3 counts and
  connectedness agree with the fixture's ``expect`` block, checked on load.
* ``mult`` at a B_3 facet: the toric variety of B_3 is the cubic hypersurface
  x1 x2 x3 = y1 y2 y3 in P^5 and a facet gives the 3-plane {x_i = y_j = 0}.
  Nearby 3-planes x_i = a(.), y_j = b(.) make the cubic read
  a * x x' - b * y y', whose monomials cannot cancel, so the plane is a
  reduced isolated point: multiplicity 1.
* ``mult five.json --sigma 0,1``: multiplicity 2, the hand-derived value the
  test suite also holds the package to.
* ``verify``: every check passes, since the package is correct on these
  inputs and each check compares it with an oracle.
"""

from __future__ import annotations

import json
import os

from inputs import read_fixture

ORACLE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference_oracle.json")

# the B_3 fixture's points 0 and 3 are the two permutation matrices with a 1
# in entry (1, 1); the other four span the facet x_11 = 0
MULT_SIGMA = {"birkhoff3": (1, 2, 4, 5), "five": (0, 1)}
MULT_EXPECTED = {"birkhoff3": 1, "five": 2}


def segre_answer(a: int, b: int) -> dict[int, dict]:
    out = {}
    for k in range(1, a + b + 1):
        dims = []
        if k <= b:
            dims.append(a + (k + 1) * (b - k))
        if k <= a:
            dims.append(b + (k + 1) * (a - k))
        out[k] = {"count": len(dims), "dims": sorted(dims), "pieces": len(dims)}
    return out


def no_planes(dim: int) -> dict[int, dict]:
    return {k: {"count": 0, "dims": [], "pieces": 0} for k in range(1, dim + 1)}


def load_oracle() -> dict[str, dict[int, dict]]:
    with open(ORACLE_FILE, encoding="utf-8") as fh:
        raw = json.load(fh)
    return {
        name: {int(k): entry for k, entry in entry_by_k.items()}
        for name, entry_by_k in raw["answers"].items()
    }


def check_expect_block(root: str, oracle: dict) -> None:
    """The oracle's B_3 answers must agree with the fixture's own claims."""
    expect = read_fixture(root, "birkhoff.json")["expect"]
    b3 = oracle["birkhoff3"]
    for k, count in expect["component_counts"].items():
        if b3[int(k)]["count"] != count:
            raise ValueError(f"reference: B_3 count at k={k} disagrees with the fixture")
    for k, connected in expect["connected"].items():
        if (b3[int(k)]["pieces"] == 1) != connected:
            raise ValueError(f"reference: B_3 connectedness at k={k} disagrees with the fixture")
    if expect["dimension"] != max(b3):
        raise ValueError("reference: B_3 dimension disagrees with the fixture")


def analyze_answers(root: str) -> dict[str, dict[int, dict]]:
    """name -> k -> {"count", "dims", "pieces"}, for every k from 1 to dim."""
    oracle = load_oracle()
    check_expect_block(root, oracle)
    answers = dict(oracle)
    answers.update(
        segre_1_3=segre_answer(1, 3),
        segre_1_4=segre_answer(1, 4),
        segre_2_2=segre_answer(2, 2),
        veronese_2_3=no_planes(3),
        veronese_3_2=no_planes(2),
    )
    return answers


def _analyze_problem(report: dict, answer: dict[int, dict]) -> str | None:
    sections = report.get("k_reports")
    if [s.get("k") for s in sections] != sorted(answer):
        return f"k sections {[s.get('k') for s in sections]}"
    for s in sections:
        want = answer[s["k"]]
        got = {
            "count": len(s["components"]),
            "dims": sorted(c["dimension"] for c in s["components"]),
            "pieces": len(s["graph"]["connected_components"]),
        }
        if got != want:
            return f"k={s['k']}: got {got}, expected {want}"
    return None


def problem(op: tuple[str, str], returncode: int, stdout: bytes, answers: dict) -> str | None:
    """Why the operation's result is wrong, or None when it matches."""
    command, name = op
    if returncode != 0:
        return f"exit code {returncode}"
    try:
        report = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    try:
        if command == "analyze":
            return _analyze_problem(report, answers[name])
        if command == "mult":
            want = MULT_EXPECTED[name]
            if report["multiplicity"] != want or report["isolated"] is not True:
                return f"multiplicity {report['multiplicity']}, expected {want}"
            return None
        if report["passed"] is not True or not all(c["pass"] for c in report["checks"]):
            return "verify reported a failing check"
        return None
    except (KeyError, TypeError, AttributeError) as exc:
        return f"report lacks a field: {exc!r}"
