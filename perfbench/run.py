#!/usr/bin/env python3
"""Benchmark of the svassess workbench.

    python3 perfbench/run.py --workload report-grid --seed 0 --seconds 35 --trace 0

Run from the root of a source checkout: the package is imported from
`src/` there, never from an installed copy.  The run builds its inputs
from --seed, runs whole rounds of the workload until --seconds would be
exceeded, checks the program's outputs, and prints one JSON line last:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
Times are calibrated seconds (see calib.py); the raw wall-clock medians
are printed on the line before, for reference.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import shutil
import statistics
import sys
import time
from pathlib import Path

TOP = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent


def seconds_since_process_start() -> float:
    """Time the process has existed, from /proc (10 ms resolution)."""
    stat = Path("/proc/self/stat").read_text()
    start_ticks = int(stat.rsplit(")", 1)[1].split()[19])
    uptime = float(Path("/proc/uptime").read_text().split()[0])
    return max(0.0, uptime - start_ticks / os.sysconf("SC_CLK_TCK"))


def peak_rss_mb() -> float:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


class Bench:
    """Shared state of one run: timed operations and their counts."""

    def __init__(self, work: Path, calibrator):
        self.work = work
        self.calibrator = calibrator
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.timings: dict[str, list[tuple[float, float]]] = {}  # stage -> (t0, t1)
        self.rounds: list[tuple[float, float]] = []

    @contextlib.contextmanager
    def op(self, stage: str | None = None):
        """One attempted operation, timed under `stage` when given."""
        self.attempted += 1
        t0 = self.calibrator.clock()
        try:
            yield
            t1 = self.calibrator.clock()
            if stage is not None:
                self.timings.setdefault(stage, []).append((t0, t1))
        except Exception as exc:  # counted, reported, and the run goes on
            self.failed += 1
            self.errors.append(f"{stage or 'op'}: {type(exc).__name__}: {exc}")

    def cli(self, stage: str | None, *argv: str) -> str:
        """Run `assess <argv>` in-process; returns its standard output."""
        import svassess.cli

        buf = io.StringIO()
        with self.op(stage):
            with contextlib.redirect_stdout(buf):
                rc = svassess.cli.main(list(argv))
            if rc != 0:
                raise RuntimeError(f"assess {' '.join(argv)} exited {rc}")
        return buf.getvalue()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    before_top = seconds_since_process_start() - (time.perf_counter() - TOP)

    src = ROOT / "src"
    if not (src / "svassess" / "__init__.py").is_file():
        print(f"error: no svassess sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import svassess

    if Path(svassess.__file__).resolve().parent != (src / "svassess").resolve():
        print(f"error: imported svassess from {svassess.__file__}, not {src}", file=sys.stderr)
        return 2

    from calib import Calibrator
    from spans import Tracer, metric_names
    from workloads import END_TO_END, STAGES, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    calibrator = Calibrator()
    calibrator.start()
    clock = calibrator.clock
    tracer = Tracer(clock) if args.trace else None
    layers = []  # (r0, r1, per-layer values) of each traced round
    bench = Bench(work, calibrator)
    try:
        workload = WORKLOADS[args.workload](bench, args.seed)
        workload.setup()
        setup_end = clock()
        if tracer:
            tracer.install()
        deadline = clock() + args.seconds
        while True:
            r0 = clock()
            if tracer:
                tracer.reset()
            workload.round()
            r1 = clock()
            bench.rounds.append((r0, r1))
            if tracer:
                layers.append((r0, r1, tracer.snapshot()))
            if r1 + (r1 - r0) > deadline:
                break
        problems = workload.check() + bench.errors
        rss = peak_rss_mb()
    finally:
        calibrator.stop()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    metrics: dict[str, dict] = {}
    raw: dict[str, float] = {}
    if tracer:
        for name, unit in metric_names():
            values = []
            for r0, r1, snap in layers:
                v = snap.get(name, 0)
                values.append(calibrator.calibrate(v, r0, r1) if unit == "s" else v)
            metrics[name] = {"value": statistics.median(values), "unit": unit}
    else:
        setup_wall = before_top + (setup_end - TOP)
        metrics["setup_s"] = calibrator.calibrate(setup_wall, TOP, setup_end)
        raw["setup_s"] = setup_wall
        units = dict(END_TO_END)
        for name, stage in STAGES.items():
            timings = bench.timings[stage]
            scale = 1000.0 if units[name] == "ms" else 1.0
            metrics[name] = statistics.median(
                calibrator.calibrate(t1 - t0, t0, t1) for t0, t1 in timings) * scale
            raw[name] = statistics.median(t1 - t0 for t0, t1 in timings) * scale
        metrics["peak_rss_mb"] = rss
        metrics["bundle_kb"] = statistics.median(workload.bundle_kb)
        metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}

    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    # reference figures, not metrics: raw wall medians, the round time
    # (compare --trace 0 and 1 for the tracing overhead) and the spread of
    # the calibration loop's time over the run
    loop_q = calibrator.loop_quartiles()
    round_walls = [r1 - r0 for r0, r1 in bench.rounds]
    round_cal = [calibrator.calibrate(r1 - r0, r0, r1) for r0, r1 in bench.rounds]
    print(
        f"{args.workload} seed={args.seed} rounds={len(bench.rounds)} "
        f"round_wall_median_s={statistics.median(round_walls):.4f} "
        f"round_calibrated_median_s={statistics.median(round_cal):.4f} "
        f"calibration_samples={calibrator.samples()} "
        f"loop_quartiles_ms=[{', '.join(f'{q * 1000:.3f}' for q in loop_q)}] "
        "raw_wall=" + json.dumps({k: round(v, 6) for k, v in raw.items()})
    )
    print(json.dumps({
        "correct": not problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
