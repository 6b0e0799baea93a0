"""Layered benchmark of the toricfano command line.

Usage, from the repository root:

    python3 perfbench/run.py --workload poset-wide --seed 0 --seconds 30 --trace 0

A run generates the workload's inputs from ``--seed`` (see ``inputs.py``),
then runs passes over the workload's operation list for ``--seconds``
seconds.  Every operation is a fresh ``python -m toricfano.cli`` process,
started only after the previous one has exited (a closed loop with one
client), so nothing memoised in one process reaches the next.  Every report
is checked against ``reference.py``.

The run is pinned to one CPU.  Each child process runs in slices of
``SLICE_S``; between slices it is stopped and a fixed calibration workload is
timed (``calibrate.py``), and each slice's wall time is scaled to seconds at
the calibration's reference speed.  The hosts share their cores, so raw wall
times drift by tens of percent over minutes; the scaled times do not.  Every
time metric below is in scaled seconds; the raw wall time of a pass is
printed as wall_s for reference.

``--trace 0`` prints the end-to-end metrics: run_s (median seconds of a
pass), max_op_s (median over passes of the slowest operation), setup_s
(median of the set-ups made before the first pass and between passes; each
generates the inputs, then a fresh interpreter imports ``toricfano.cli`` and
loads each input) and peak_rss_mb (median over passes of the largest
resident set of any operation).  ``--trace 1`` alternates untraced passes
with passes through ``traced_cli.py`` and prints the per-layer metrics: per
traced function ``.calls`` and ``.self_s`` (median over traced passes),
outcome counts and ratios, and trace.overhead_ratio.  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; failed / attempted is the error rate.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import select
import signal
import tempfile
import time

sys.dont_write_bytecode = True

import calibrate  # noqa: E402
import inputs  # noqa: E402
import reference  # noqa: E402
import traced_cli  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 8
SETUP_REPEATS_PER_PASS = 4
SLICE_S = 0.25  # how long a child runs between two calibration samples
HARD_LIMIT_S = 170.0  # an operation still running then is killed and fails
VERIFY_ARGS = ("--seed", "0", "--trials", "25")

# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "poset-wide": (
        ("analyze", "birkhoff3"),
        ("analyze", "hypersimplex_2_5"),
        ("analyze", "hypersimplex_2_4"),
        ("analyze", "veronese_2_3"),
        ("analyze", "veronese_3_2"),
        ("mult", "birkhoff3"),
        ("mult", "five"),
    ),
    "chart-deep": (
        ("analyze", "segre_1_4"),
        ("analyze", "segre_1_3"),
        ("analyze", "segre_2_2"),
    ),
    "oracle-sweep": (
        ("verify", "birkhoff3"),
        ("verify", "hypersimplex_2_5"),
        ("verify", "segre_2_2"),
    ),
}


class Run:
    """One benchmark run: its inputs, its operations and their outcomes."""

    def __init__(self, root: str, workload: str, seed: int, workdir: str):
        self.root = root
        self.ops = WORKLOADS[workload]
        self.seed = seed
        self.workdir = workdir
        self.names = sorted({name for _, name in self.ops})
        self.answers = reference.analyze_answers(root)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0")
        self.started = time.monotonic()
        self.attempted = 0
        self.failures: list[str] = []
        self.out_of_time = False
        self.paths: dict[str, tuple[str, list[int]]] = {}

    def run_child(self, argv, stdout, stderr) -> tuple[float, float, int, object]:
        """Run one process on the benchmark's CPU in slices of ``SLICE_S``.

        Between slices the child is stopped and a calibration sample is
        timed (``calibrate.py``); each slice's wall time is scaled by the
        mean of the samples on either side of it.  Returns (wall seconds the
        child ran, scaled seconds, exit code, rusage).
        """
        before = calibrate.sample()
        start = time.perf_counter()  # the first slice includes the spawn
        proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, env=self.env, cwd=self.root)
        try:
            pidfd = os.pidfd_open(proc.pid)
            poller = select.poll()
            poller.register(pidfd, select.POLLIN)
            wall = scaled = 0.0
            while True:
                exited = poller.poll(SLICE_S * 1000)
                if not exited:
                    os.kill(proc.pid, signal.SIGSTOP)
                    info = os.waitid(os.P_PID, proc.pid, os.WSTOPPED | os.WEXITED | os.WNOWAIT)
                    exited = info.si_code not in (os.CLD_STOPPED, os.CLD_TRAPPED)
                    if not exited:
                        os.waitid(os.P_PID, proc.pid, os.WSTOPPED)  # consume the stop
                ran = time.perf_counter() - start
                after = calibrate.sample()
                wall += ran
                scaled += ran * calibrate.REFERENCE_S / ((before + after) / 2)
                before = after
                if exited:
                    break
                if time.monotonic() - self.started >= HARD_LIMIT_S:
                    proc.kill()
                start = time.perf_counter()
                os.kill(proc.pid, signal.SIGCONT)
            os.close(pidfd)
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        return wall, scaled, os.waitstatus_to_exitcode(status), usage

    def setup_once(self) -> float:
        """Generate and write the inputs, then load each in a fresh interpreter;
        returns the scaled seconds."""
        start = time.perf_counter()
        self.paths = inputs.write_inputs(self.root, self.names, self.seed, self.workdir)
        written = time.perf_counter() - start
        loader = (
            "import sys\n"
            "from toricfano.cli import DEFAULT_MAX_POINTS, load_input\n"
            "for path in sys.argv[1:]:\n"
            "    load_input(path, DEFAULT_MAX_POINTS)\n"
        )
        argv = [sys.executable, "-c", loader] + [p for p, _ in self.paths.values()]
        err_path = os.path.join(self.workdir, "stderr")
        with open(err_path, "wb") as err:
            _, scaled, code, _ = self.run_child(argv, subprocess.DEVNULL, err)
        if code != 0:
            with open(err_path, encoding="utf-8", errors="replace") as fh:
                raise RuntimeError(f"loading the inputs failed: {fh.read()}")
        return written + scaled

    def argv(self, op: tuple[str, str]) -> list[str]:
        command, name = op
        path, new_index = self.paths[name]
        if command == "analyze":
            ks = [a for k in sorted(self.answers[name]) for a in ("--k", str(k))]
            return ["analyze", path, "--format", "json"] + ks
        if command == "mult":
            sigma = sorted(new_index[i] for i in reference.MULT_SIGMA[name])
            return ["mult", path, "--format", "json", "--sigma", ",".join(map(str, sigma))]
        return ["verify", path, "--format", "json", *VERIFY_ARGS]

    def run_op(self, op, trace_out: str | None) -> tuple[float, float, float]:
        """Run one operation, check its answer; returns (wall s, scaled s,
        peak RSS MB)."""
        if trace_out is None:
            prefix = [sys.executable, "-m", "toricfano.cli"]
        else:
            prefix = [sys.executable, os.path.join(HERE, "traced_cli.py"), trace_out]
        out_path = os.path.join(self.workdir, "stdout")
        with open(out_path, "wb") as out:
            wall, scaled, code, usage = self.run_child(prefix + self.argv(op), out, subprocess.DEVNULL)
        self.attempted += 1
        with open(out_path, "rb") as fh:
            why = reference.problem(op, code, fh.read(), self.answers)
        if why is not None:
            self.failures.append(f"{op[0]} {op[1]}: {why}")
        if time.monotonic() - self.started >= HARD_LIMIT_S:
            self.out_of_time = True
        return wall, scaled, usage.ru_maxrss / 1024.0

    def run_pass(self, traced: bool) -> dict:
        """One pass over the operation list; traced passes also sum the
        per-process trace totals."""
        walls, scaled, rss = [], [], []
        totals = {"calls": {}, "self_s": {}, "counts": {}}
        trace_out = os.path.join(self.workdir, "trace.json") if traced else None
        for op in self.ops:
            if self.out_of_time:
                break
            failed_before = len(self.failures)
            wall, op_s, peak = self.run_op(op, trace_out)
            walls.append(wall)
            scaled.append(op_s)
            rss.append(peak)
            if traced:
                try:
                    with open(trace_out, encoding="utf-8") as fh:
                        one = json.load(fh)
                    os.remove(trace_out)
                except (OSError, ValueError):
                    if len(self.failures) == failed_before:
                        self.failures.append(f"{op[0]} {op[1]}: no trace totals written")
                    continue
                for group, values in one.items():
                    for key, value in values.items():
                        totals[group][key] = totals[group].get(key, 0) + value
        return {
            "wall_s": sum(walls),
            "run_s": sum(scaled),
            "max_op_s": max(scaled, default=0.0),
            "peak_rss_mb": max(rss, default=0.0),
            **totals,
        }


def describe(name: str, values: list[float], unit: str) -> str:
    med = statistics.median(values)
    return (
        f"{name:<48} {med:12.6g} {unit:<6} "
        f"(median of {len(values)}; min {min(values):.6g}, max {max(values):.6g})"
    )


def layer_metrics(traced: list[dict], plain: list[dict]) -> dict[str, tuple[float, str]]:
    calls = {label: traced[0]["calls"].get(label, 0) for label in traced_cli.LABELS}
    counts = {name: traced[0]["counts"].get(name, 0) for name in traced_cli.COUNTS}
    out: dict[str, tuple[float, str]] = {}
    for label in traced_cli.LABELS:
        out[f"{label}.calls"] = (calls[label], "count")
        out[f"{label}.self_s"] = (statistics.median(p["self_s"].get(label, 0.0) for p in traced), "s")
    for name in ("pointconfig.faces.count", "cayley.structures"):
        out[name] = (counts[name], "count")

    def ratio(top: int, bottom: int) -> tuple[float, str]:
        return (top / bottom if bottom else 0.0, "ratio")

    out["cayley.maximal.kept_ratio"] = ratio(
        counts["cayley.maximal.kept"], counts["cayley.maximal.enumerated"]
    )
    out["components.chart_is_smooth.smooth_ratio"] = ratio(
        counts["components.chart_is_smooth.smooth"], calls["components.chart_is_smooth"]
    )
    out["components.intersection.nonempty_ratio"] = ratio(
        counts["components.intersection.nonempty"], calls["components.components_intersection"]
    )
    traced_s = statistics.median(p["run_s"] for p in traced)
    out["trace.overhead_ratio"] = (traced_s / statistics.median(p["run_s"] for p in plain), "ratio")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # a termination signal unwinds through the handlers that kill the
    # running child (which may be stopped) and remove the work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = os.getcwd()
    if hasattr(os, "sched_setaffinity"):
        # the operations and the calibration samples share one CPU, so that
        # each sample measures the speed the operations around it ran at
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    for needed in ("src/toricfano/cli.py", "tests/data/birkhoff.json", "tests/data/five.json"):
        if not os.path.isfile(os.path.join(root, needed)):
            print(f"error: {needed} not found; run from the repository root", file=sys.stderr)
            return 2

    os.makedirs(os.path.join(root, ".bench_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(root, ".bench_work"))
    try:
        run = Run(root, args.workload, args.seed, workdir)
        setups = [run.setup_once() for _ in range(SETUP_REPEATS)]
        plain: list[dict] = []
        traced: list[dict] = []
        start = time.monotonic()
        while True:
            plain.append(run.run_pass(traced=False))
            if args.trace:
                traced.append(run.run_pass(traced=True))
            if run.out_of_time or time.monotonic() - start >= args.seconds:
                break
            # more set-ups between passes, so that the median samples the
            # whole run and not one moment of a machine whose speed drifts
            setups += [run.setup_once() for _ in range(SETUP_REPEATS_PER_PASS)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for failure in run.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    rows: dict[str, tuple[float, str]] = {}
    if args.trace:
        rows = layer_metrics(traced, plain)
        for name, (value, unit) in rows.items():
            print(f"{name:<48} {value:12.6g} {unit}")
    else:
        series = {
            "run_s": ([p["run_s"] for p in plain], "s"),
            "max_op_s": ([p["max_op_s"] for p in plain], "s"),
            "setup_s": (setups, "s"),
            "wall_s": ([p["wall_s"] for p in plain], "s"),
            "peak_rss_mb": ([p["peak_rss_mb"] for p in plain], "MB"),
        }
        for name, (values, unit) in series.items():
            print(describe(name, values, unit))
            if name != "wall_s":  # unscaled, printed for reference only
                rows[name] = (statistics.median(values), unit)
    failed = len(run.failures)
    print(f"{'error_rate':<48} {failed / max(run.attempted, 1):12.6g} ({failed} of {run.attempted} operations failed)")
    result = {
        "correct": failed == 0 and not run.out_of_time,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in rows.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
