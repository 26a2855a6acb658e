"""caloop benchmark: one workload, one process, one JSON line of results.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` runs passes of the workload until S seconds have elapsed and
reports the end-to-end metrics; ``--trace 1`` runs one pass untraced and the
same pass traced, and reports the per-layer metrics.  The last line of
standard output is the result object; a human-readable summary goes to
standard error.  The program is imported from ``src/`` beside this
directory, so the benchmark measures the checkout it sits in.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import select
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from importlib import metadata
from pathlib import Path
from typing import NamedTuple, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 5  # set-up time is the median of this many fresh processes
SEGMENT_S = 0.2  # op time after which the next calibration is taken
CALIBRATION_REF_S = 0.005  # calibration loop time at the reference host speed
PROBE_PAUSE_S = 0.02  # pause between two runs of the concurrent probe's loop


def _import_program() -> None:
    """Put the checkout's ``src/`` first on the path, or fail if it is absent."""
    if not (SRC / "caloop" / "__init__.py").is_file():
        sys.exit(f"error: no caloop sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import caloop

    if Path(caloop.__file__).resolve().parent != SRC / "caloop":
        sys.exit(f"error: imported caloop from {caloop.__file__}, not from {SRC}")


class Outcome(NamedTuple):
    kind: str
    hostile: bool
    verdict: str
    seconds: float  # as measured
    scaled: float  # at the reference host speed; see calibration_seconds


def _arithmetic_loop() -> int:
    a, b, acc = 1, 2, 0
    for i in range(12_500):
        t = (a * i, b + i, 3 - i, i)
        acc += (t[0] * t[1] - t[2]) // 3
        a, b = t[3] & 7, t[0] & 7
    return acc


def _table_loop() -> int:
    table, acc = {}, 0
    for i in range(8_000):
        key = (i, 3 * i, i - 7)
        table[key] = table.get(key, 0) + i * i
        acc += key[1] * key[2] // 3
    return acc


# Small-integer arithmetic on tuples (like the kernel and the parser), and
# a ~1 MB dict of tuples (like Polynomial terms, and process start-up).
CALIBRATION_LOOPS = {"arithmetic": _arithmetic_loop, "table": _table_loop}


def calibration_seconds(kind: str) -> float:
    """Median time of three runs of a fixed pure-Python loop.

    The benchmark's host is shared and its speed drifts by tens of percent
    within seconds.  Every timed stretch of at least ``SEGMENT_S`` (or one
    longer operation) is bracketed by the loop whose working set is most
    like the workload's, and its times are scaled by CALIBRATION_REF_S /
    (mean of the two brackets): the time the stretch would have taken at
    the speed at which the loop takes CALIBRATION_REF_S.  A workload made of
    one long numpy scan is not bracketed, since two brief brackets cannot
    follow the drift through the scan; it is scaled by
    :class:`ConcurrentProbe` instead.  The program under test never runs
    inside the loop, so it cannot change the scale.
    """
    loop, times = CALIBRATION_LOOPS[kind], []
    gc.disable()  # a collection would charge the loop for the workload's heap
    try:
        for _ in range(3):
            start = time.perf_counter()
            loop()
            times.append(time.perf_counter() - start)
    finally:
        gc.enable()
    return statistics.median(times)


def _probe_main() -> None:
    """Child process of :class:`ConcurrentProbe`.

    Runs the arithmetic loop over and over with pauses; a line read from
    standard input during a pause is answered with "<runs> <total seconds>"
    so far, and end of input ends the process.
    """
    loop, runs, total = CALIBRATION_LOOPS["arithmetic"], 0, 0.0
    while True:
        if select.select([sys.stdin], [], [], PROBE_PAUSE_S)[0]:
            if not sys.stdin.readline():
                return
            print(runs, repr(total), flush=True)
        start = time.perf_counter()
        loop()
        total += time.perf_counter() - start
        runs += 1


class ConcurrentProbe:
    """The arithmetic calibration loop, run in a child process on the other
    CPU while a pass runs.

    Brackets before and after an operation cannot follow the host's speed
    through a single 20-30 s numpy scan; a probe that runs throughout it
    can.  The child is busy a fifth of the time (a ~5 ms loop, then a
    ``PROBE_PAUSE_S`` pause), so it leaves the workload's CPU alone and adds
    little memory traffic.  :meth:`pass_scale` turns the mean loop time
    during a pass into the factor that scales the pass to the reference
    speed.
    """

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(BENCH_DIR)!r}); "
             "import run; run._probe_main()"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        try:
            while self.snapshot()[0] < 1:  # started and past its first run
                time.sleep(PROBE_PAUSE_S)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(5)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def snapshot(self) -> tuple:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        runs, total = self.proc.stdout.readline().split()
        return int(runs), float(total)

    def pass_scale(self, before: tuple) -> float:
        """CALIBRATION_REF_S / mean loop time since the ``before`` snapshot."""
        after = self.snapshot()
        while after[0] == before[0]:  # a pass shorter than one run
            time.sleep(PROBE_PAUSE_S)
            after = self.snapshot()
        return CALIBRATION_REF_S / ((after[1] - before[1]) / (after[0] - before[0]))


def run_pass(ops, tracer=None, calibrate: Optional[str] = None, probe=None) -> list:
    """Run one pass of operations; returns one :class:`Outcome` per op.

    A verdict is ``OK``, the op's own reason for a wrong result, or
    ``crash: <exception>`` when the program raised something the op did not
    expect.  ``calibrate`` names the calibration loop that brackets the
    pass's segments; ``probe``, a running :class:`ConcurrentProbe`, scales
    the whole pass instead; with neither, ``scaled`` equals ``seconds``.
    """
    rows, segment_start, segment_time = [], 0, 0.0
    bracket = calibration_seconds(calibrate) if calibrate else None
    probe_start = probe.snapshot() if probe is not None else None

    def close_segment():
        nonlocal bracket, segment_start, segment_time
        after = calibration_seconds(calibrate)
        scale = CALIBRATION_REF_S / ((bracket + after) / 2)
        for row in rows[segment_start:]:
            row[4] = row[3] * scale
        bracket, segment_start, segment_time = after, len(rows), 0.0

    for op in ops:
        if tracer is not None:
            tracer.enter(f"bench.{op.kind}")
        start = time.perf_counter()
        try:
            verdict = op.run()
        except Exception as exc:  # every failure is counted, none aborts the run
            verdict = f"crash: {type(exc).__name__}: {str(exc)[:200]}"
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.exit()
        rows.append([op.kind, op.hostile, verdict, seconds, seconds])
        segment_time += seconds
        if calibrate and segment_time >= SEGMENT_S:
            close_segment()
    if calibrate and segment_start < len(rows):
        close_segment()
    if probe is not None:
        scale = probe.pass_scale(probe_start)
        for row in rows:
            row[4] = row[3] * scale
    return [Outcome(*row) for row in rows]


def _regular(outcomes, field: str = "scaled") -> float:
    return sum(getattr(o, field) for o in outcomes if not o.hostile)


def _failures(outcomes) -> list:
    from workloads import OK

    return [o for o in outcomes if o.verdict != OK]


def _summarize(attempted: int, failures) -> dict:
    """attempted, failed, and how many failures were on regular ops."""
    return {
        "attempted": attempted,
        "failed": len(failures),
        "regular_failed": sum(1 for o in failures if not o.hostile),
        "hostile_failed": sum(1 for o in failures if o.hostile),
        "failures": failures,
    }


def _report_failures(summary) -> None:
    counts: dict = {}
    for o in summary["failures"]:
        reason = o.verdict.split(":")[1].strip() if o.verdict.startswith("crash") else o.verdict
        key = (o.kind, "hostile" if o.hostile else "regular", reason[:120])
        counts[key] = counts.get(key, 0) + 1
    for (kind, role, reason), n in sorted(counts.items()):
        print(f"  failed {n} x {kind} ({role}): {reason}", file=sys.stderr)


def _setup_seconds(argv) -> tuple:
    """Median (raw, scaled) wall time of fresh processes that import caloop
    and build the first pass's inputs."""
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        before = calibration_seconds("table")
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), *argv, "--setup-only"],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
        )
        raw.append(time.perf_counter() - start)
        after = calibration_seconds("table")
        scaled.append(raw[-1] * CALIBRATION_REF_S / ((before + after) / 2))
    return statistics.median(raw), statistics.median(scaled)


def _p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def measure(workload, seed: int, seconds: float) -> tuple:
    """Passes until ``seconds`` have elapsed; returns (metrics, summary).

    Hostile ops are run and counted but left out of the timings.  ``wall_s``
    is the median over passes of the pass's regular-op time.
    """
    pass_times, raw_pass_times, failures = [], [], []
    attempted = samples = 0
    concurrent = workload.calibration == "concurrent"
    with ConcurrentProbe() if concurrent else nullcontext() as probe:
        start = time.perf_counter()
        while not pass_times or time.perf_counter() - start < seconds:
            done = run_pass(workload.make_pass(seed, len(pass_times)),
                            calibrate=None if concurrent else workload.calibration,
                            probe=probe)
            pass_times.append(_regular(done))
            raw_pass_times.append(_regular(done, "seconds"))
            attempted += len(done)
            samples += sum(1 for o in done if not o.hostile)
            failures += _failures(done)
    summary = _summarize(attempted, failures)
    summary.update(passes=len(pass_times), samples=samples,
                   raw_wall_s=statistics.median(raw_pass_times))
    metrics = {
        "wall_s": (statistics.median(pass_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    return metrics, summary


def traced(workload, seed: int) -> tuple:
    """One pass untraced, the same pass traced; per-layer metrics."""
    import layers
    from tracing import Tracer

    plain = run_pass(workload.make_pass(seed, 0))
    tracer = Tracer()
    tracer.install(layers.targets())
    try:
        with_trace = run_pass(workload.make_pass(seed, 0), tracer)
    finally:
        tracer.uninstall()
    OUT_DIR.mkdir(exist_ok=True)
    tracer.dump(str(OUT_DIR / f"trace-{workload.name}-{seed}.jsonl"))

    summary = _summarize(len(with_trace), _failures(with_trace))
    mismatched = [(a.kind, a.verdict, b.verdict) for a, b in zip(plain, with_trace)
                  if a.verdict != b.verdict]
    for kind, untraced_verdict, traced_verdict in mismatched[:5]:
        print(f"  traced verdict differs on {kind}: {untraced_verdict!r} vs "
              f"{traced_verdict!r}", file=sys.stderr)
    summary["mismatched"] = len(mismatched)
    stage_values = {
        stage: sum(o.seconds for o in plain if o.kind in kinds)
        for stage, kinds in workload.stages.items()
    }
    stage_values["stage.op_p90_ms"] = 1000 * _p90([o.seconds for o in plain if not o.hostile])
    overhead = _regular(with_trace, "seconds") - _regular(plain, "seconds")
    metrics = layers.metrics(tracer, workload, stage_values, overhead, summary["hostile_failed"])
    return metrics, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny pass sizes, for tests")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_program()
    import workloads

    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.NAMES}")
    workload = workloads.build(args.workload, smoke=args.smoke)
    if args.setup_only:
        workload.setup(OUT_DIR)
        workload.make_pass(args.seed, 0)
        return 0

    setup = None
    if not args.trace:
        setup = _setup_seconds(
            ["--workload", args.workload, "--seed", str(args.seed)] + ["--smoke"] * args.smoke)
    workload.setup(OUT_DIR)
    if args.trace:
        metrics, summary = traced(workload, args.seed)
        correct = summary["regular_failed"] == 0 and summary["mismatched"] == 0
    else:
        values, summary = measure(workload, args.seed, args.seconds)
        values["setup_s"] = (setup[1], "s")
        summary["raw_setup_s"] = setup[0]
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in values.items()}
        correct = summary["regular_failed"] == 0

    print(
        f"workload {args.workload} seed {args.seed} trace {args.trace}: "
        f"{summary['attempted']} ops, {summary['failed']} failed "
        f"({summary['hostile_failed']} hostile), "
        + (f"{summary['passes']} passes, {summary['samples']} timed ops, unscaled "
           f"wall_s {summary['raw_wall_s']:.4f} setup_s {summary['raw_setup_s']:.4f}; "
           if not args.trace else "")
        + f"python {platform.python_version()}, numpy {metadata.version('numpy')}, "
        f"nproc {os.cpu_count()}",
        file=sys.stderr,
    )
    _report_failures(summary)
    print(json.dumps({
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
