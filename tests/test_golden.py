"""Golden reports: the command line's output, byte for byte.

Each case runs one command and compares its whole stdout with a stored
report under ``tests/data/golden``.  The reports pin every component,
intersection, graph edge, chart verdict and local-scheme entry, so a change
meant to make the program faster cannot change what it prints.

To regenerate the stored reports (only when a change of output is intended)::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import pathlib
import sys

import pytest

from toricfano.cli import EXIT_OK, main

DATA = pathlib.Path(__file__).parent / "data"
GOLDEN = DATA / "golden"


def _every_k(dimension):
    return [arg for k in range(1, dimension + 1) for arg in ("--k", str(k))]


# (stored report, command line relative to tests/data)
CASES = [
    ("analyze-square.json", ["analyze", "square.json", *_every_k(2), "--format", "json"]),
    ("analyze-quartic.json", ["analyze", "quartic.json", *_every_k(2), "--format", "json"]),
    ("analyze-five.json", ["analyze", "five.json", *_every_k(2), "--format", "json"]),
    ("analyze-triangle.json", ["analyze", "triangle.json", *_every_k(2), "--format", "json"]),
    ("analyze-birkhoff.json", ["analyze", "birkhoff.json", *_every_k(4), "--format", "json"]),
    ("analyze-quartic-txt.json", ["analyze", "quartic.txt", *_every_k(2), "--format", "json"]),
    ("analyze-quartic.txt", ["analyze", "quartic.json", *_every_k(2), "--format", "text"]),
    ("mult-five.json", ["mult", "five.json", "--sigma", "0,1", "--format", "json"]),
    ("verify-birkhoff.json", ["verify", "birkhoff.json", "--format", "json"]),
    ("verify-five.json", ["verify", "five.json", "--format", "json"]),
    ("verify-quartic.json", ["verify", "quartic.json", "--format", "json"]),
    ("verify-square.json", ["verify", "square.json", "--format", "json"]),
    ("verify-triangle.json", ["verify", "triangle.json", "--format", "json"]),
]


def run_case(argv):
    """Exit code and stdout of one command, input paths taken from tests/data."""
    args = [argv[0], str(DATA / argv[1]), *argv[2:]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(args)
    return code, out.getvalue()


@pytest.mark.parametrize("name, argv", CASES, ids=[c[0] for c in CASES])
def test_report_matches_golden(name, argv):
    code, out = run_case(argv)
    assert code == EXIT_OK
    assert out == (GOLDEN / name).read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES:
        code, out = run_case(argv)
        if code != EXIT_OK:
            sys.exit(f"{name}: exit code {code}")
        (GOLDEN / name).write_text(out, encoding="utf-8")
        print(f"wrote {name} ({len(out)} bytes)")
