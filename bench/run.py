"""Benchmark of the trivalent pipeline.  Run it from the repository root:

    python3 bench/run.py --workload cold_k6 --seed 1 --seconds 6 --trace 0
    python3 bench/run.py --workload warm_queries --seed 1 --seconds 6 --trace 1
    python3 bench/run.py --self-check

One process, one thread.  It imports the package from ./src, writes only
under ./.bench_work, prints one line per metric and, last, one JSON object
{"correct", "attempted", "failed", "metrics"}.  It exits 1 when any output
check fails and 2 when the package sources are missing.  See README.md.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5
MIN_ROUNDS = 3  # loop rounds, however short --seconds is
# About the reference loop's median time on the host of baseline.json.  Every
# reported time is scaled to the host speed at which the loop takes this long.
REFERENCE_S = 0.001
SAMPLE_S = 0.5  # interval of the reference loop during a long timed call

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_ms": "ms",
    "ops_per_s": "1/s",
    "job_s": "s",
}


def wall_time(fn):
    """Run fn; returns (its result or the exception it raised, wall seconds)."""
    t0 = time.perf_counter()
    try:
        out = fn()
    except Exception as exc:  # an item that raises counts as failed
        out = exc
    return out, time.perf_counter() - t0


class ScaledClock:
    """Times work in seconds of a host running at the reference speed.

    The host's speed drifts by up to 2x over seconds to minutes, and the
    program's speed drifts with it; a time divided by the time of a fixed
    reference loop measured next to it drifts far less.  The loop runs
    before and after every timed call and, during a long call, every
    SAMPLE_S seconds from a timer signal.  The call's wall time, less those
    loops, is scaled by REFERENCE_S over their mean time.
    """

    def __init__(self):
        self.samples = []  # every reference time, for the report
        self._inside = None
        signal.signal(signal.SIGALRM, self._tick)
        self._last = self.reference()

    def reference(self) -> float:
        """Seconds a fixed loop of exact fraction arithmetic takes now.  Of
        the loops tried, this one, whose work (small objects, big-integer
        gcds) is most like the program's, tracked both the graph and the
        linear-algebra items best."""
        t0 = time.perf_counter()
        x, acc = Fraction(1, 3), Fraction(0)
        for i in range(1, 120):
            acc += x * i / (i + 1)
            x = Fraction(x.numerator % 1000003 + 1, x.denominator % 999983 + 2)
        self.samples.append(time.perf_counter() - t0)
        return self.samples[-1]

    def _tick(self, signum, frame):
        if self._inside is not None:
            self._inside.append(self.reference())

    def time(self, fn):
        """Run fn; returns (its result or the exception it raised, scaled
        seconds)."""
        self._inside = []
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        try:
            out, wall = wall_time(fn)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            inside, self._inside = self._inside, None
        before, self._last = self._last, self.reference()
        return out, (wall - sum(inside)) * REFERENCE_S / statistics.mean([before, *inside, self._last])


def time_setup(workload_cls, seed: int, workdir: Path, clock: ScaledClock):
    """Median over SETUP_REPEATS of interpreter start plus import, and input
    generation; returns (scaled seconds, the last prepared workload)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))

    def set_up(r):
        subprocess.run([sys.executable, "-c", "import trivalent.cli"], env=env, cwd=ROOT, check=True)
        w = workload_cls(seed, workdir / f"inputs-{r}")
        w.prepare()
        return w

    samples = []
    for r in range(SETUP_REPEATS):
        w, seconds = clock.time(functools.partial(set_up, r))
        if isinstance(w, Exception):
            raise w
        samples.append(seconds)
    return statistics.median(samples), w


def run_item(fn, check, tally, label, timer=wall_time) -> float:
    """Time one item with `timer`, check its output and count the attempt;
    returns the time."""
    tally["attempted"] += 1
    out, seconds = timer(fn)
    try:
        reason = f"{type(out).__name__}: {out}" if isinstance(out, Exception) else check(out)
    except Exception as exc:  # an output the check cannot read is wrong too
        reason = f"check raised {type(exc).__name__}: {exc}"
    if reason:
        tally["failures"].append(f"{label}: {reason}")
    return seconds


def median_times(items, tally, label, clock, rounds, seconds=0.0):
    """Run all items in order, round after round, for at least `rounds`
    rounds and `seconds` seconds; returns (each item's median scaled time,
    rounds)."""
    runs = []
    start = time.perf_counter()
    while len(runs) < rounds or time.perf_counter() - start < seconds:
        runs.append([run_item(fn, check, tally, f"{label} {i} round {len(runs)}", clock.time)
                     for i, (fn, check) in enumerate(items)])
    return [statistics.median(column) for column in zip(*runs)], len(runs)


def end_to_end(setup_s, job, ops) -> dict:
    values = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "op_p50_ms": statistics.median(ops) * 1000,
        "ops_per_s": len(ops) / sum(ops),
        "job_s": sum(job),
    }
    return {name: (values[name], unit) for name, unit in END_TO_END.items()}


def tail_line(ops) -> str:
    """The 90th percentile, printed but not declared in BENCHMARK.json: it
    rests on the few slowest inputs, which change with the seed.  It is
    reported only with at least ten operations beyond it."""
    if len(ops) < 100:
        return f"op_p90_ms: not reported, {len(ops)} operations"
    return f"op_p90_ms: {statistics.quantiles(ops, n=10)[-1] * 1000:.6g} ms"


def traced_metrics(w, spans_module, dump_path: Path, tally):
    """Per-layer metrics of one pass over the job and the loop.

    Every item runs three times in a row: untraced, traced, untraced.  The
    tracing overhead is the traced time over the mean of the two untraced
    times, so a host that speeds up or slows down steadily biases neither
    side.
    """
    recorder = spans_module.Recorder()

    def traced_time(fn):
        recorder.enabled = True
        try:
            return wall_time(fn)
        finally:
            recorder.enabled = False

    recorder.install()
    traced = untraced = 0.0
    try:
        for label, make_items in (("job", w.job_items), ("op", w.op_items)):
            for i, (fn, check) in enumerate(make_items()):
                recorder.op += 1
                name = f"{label} {i}"
                untraced += run_item(fn, check, tally, name) / 2
                traced += run_item(fn, check, tally, name + " traced", traced_time)
                untraced += run_item(fn, check, tally, name) / 2
    finally:
        recorder.uninstall()
    recorder.dump(dump_path)
    metrics = spans_module.layer_metrics(recorder.spans, traced, untraced)
    for name, share in w.properties().items():
        metrics[f"workload.{name}"] = (share, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="show that every output checker rejects a corrupted output")
    args = parser.parse_args(argv)

    if not (SRC / "trivalent" / "__init__.py").is_file():
        print(f"error: {SRC / 'trivalent'} not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import trivalent

    if not Path(trivalent.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: trivalent imported from {trivalent.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.self_check:
        import selfcheck

        return selfcheck.main(ROOT, WORK, END_TO_END)

    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    workdir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    tally = {"attempted": 0, "failures": []}
    clock = ScaledClock()
    try:
        setup_s, w = time_setup(workloads.WORKLOADS[args.workload], args.seed, workdir, clock)
        if args.trace:
            dump = WORK / f"spans-{args.workload}-seed{args.seed}.json"
            metrics = traced_metrics(w, spans, dump, tally)
            print(f"spans written to {dump.relative_to(ROOT)}")
        else:
            job, job_rounds = median_times(w.job_items(), tally, "job", clock, w.job_rounds)
            ops, op_rounds = median_times(w.op_items(), tally, "op", clock, MIN_ROUNDS, args.seconds)
            metrics = end_to_end(setup_s, job, ops)
            print(f"job: {len(job)} items, median of {job_rounds} rounds")
            print(f"loop: {len(ops)} operations, median of {op_rounds} rounds")
            print(f"reference loop: median {statistics.median(clock.samples) * 1000:.4g} ms over {len(clock.samples)} runs, "
                  f"times scaled to {REFERENCE_S * 1000:.4g} ms")
            print(tail_line(ops))
            for name, share in w.properties().items():
                print(f"input {name}: {share:.4f}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failures = tally["attempted"], tally["failures"]
    for reason in failures[:20]:
        print(f"check failed: {reason}", file=sys.stderr)
    print(f"error_rate: {len(failures) / attempted:.6f} ({len(failures)} of {attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
