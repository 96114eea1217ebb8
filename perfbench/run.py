#!/usr/bin/env python3
"""coopt benchmark: time-to-result of coopt's public calls on one seeded workload.

Run from the root of a coopt checkout:

    python3 perfbench/run.py --workload games-sweep --seed 1 --seconds 30 --trace 0

The load is a closed loop: one process, one caller, each job starting when
the previous one returns.  A pass runs every job of the workload once;
passes repeat while another one still ends within --seconds (at least one
pass runs), and each job's output is checked after its pass, outside the
timed region.  Set-up is timed separately, in fresh interpreters, each after a bare
interpreter that only imports numpy; setup_s scales the ratio of the two
to the bare interpreter's time on a reference machine.
total_rel divides each pass's time by a calibration probe sampled during
its jobs, so that the machine's drifting speed cancels out.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes and prints the per-layer metrics, and writes the spans to
.perfbench/.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the metric names and units come
from BENCHMARK.json.  See perfbench/README.md.
"""

import os

# Pin BLAS to one thread before numpy loads, in this process and its children.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import glob  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402
import workloads  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 11
BARE_INTERPRETER = [sys.executable, "-c", "import numpy"]
BARE_REFERENCE_S = 0.16  # its wall time on the 2-vCPU VM the bounds were set on
CALIBRATION_LOOPS = 50_000
CALIBRATION_MATVECS = 500
PROBE_INTERVAL_S = 0.25

# End-to-end metrics printed in the table but not gated: unit and better
# direction.  The gated ones, which reach the last line, are described in
# BENCHMARK.json.
PRINTED_ONLY = {
    "setup_wall_s": ("s", "lower"),
    "total_s": ("s", "lower"),
    "sweep_cells_per_s": ("1/s", "higher"),
    "solve_s": ("s", "lower"),
    "evolve_s": ("s", "lower"),
    "certify_s": ("s", "lower"),
    "failed_ratio": ("ratio", "lower"),
}
PHASE_METRICS = {"solve": "solve_s", "evolve": "evolve_s", "certify": "certify_s"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest instances, for the benchmark's own test")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_coopt():
    """The checkout's coopt, never an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "coopt", "__init__.py")):
        sys.exit("perfbench: no src/coopt here; run from the root of a coopt checkout")
    sys.path.insert(0, SRC)
    import coopt
    import coopt.cli
    import coopt.fileio

    if not os.path.abspath(coopt.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported coopt from {coopt.__file__}, not from {SRC}")
    return coopt


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if it is one."""
    import ctypes

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return getattr(lib, symbol)()
    return None


def environment(seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def wall_time(cmd):
    start = perf_counter()
    subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
    return perf_counter() - start


def time_setup(args):
    """Set-up times of fresh interpreters that import coopt and prepare the
    workload's inputs, up to the first timed job: the raw wall times, and
    the same in reference seconds.  Each set-up is divided by the bare
    interpreter run just before it, which drifts with the machine's speed
    as set-up does, and multiplied by BARE_REFERENCE_S."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    if args.smoke:
        cmd.append("--smoke")
    wall, scaled = [], []
    for _ in range(SETUP_REPEATS):
        bare = wall_time(BARE_INTERPRETER)
        wall.append(wall_time(cmd))
        scaled.append(wall[-1] / bare * BARE_REFERENCE_S)
    return wall, scaled


def calibrate():
    """Seconds a fixed probe takes: a pure-Python loop and a loop of small
    dense matvecs, the two kinds of work coopt's jobs are made of.  It shows
    how fast the machine runs at this moment and does not touch coopt."""
    start = perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i % 7
    matrix = np.fromfunction(lambda i, j: (i + j) % 7, (201, 201)) / 7.0
    v = np.ones(201)
    for _ in range(CALIBRATION_MATVECS):
        v = matrix @ v
        v /= np.sqrt(v @ v)
    return perf_counter() - start


class SpeedProbe:
    """Runs calibrate() every PROBE_INTERVAL_S of wall time from a SIGALRM
    handler, so that the probes sample the machine's speed during long jobs
    too.  Each probe's interval is kept, so a job's timing can leave it out."""

    def __init__(self):
        self.spans = []  # (start, end) of each probe
        self.samples = []

    def _tick(self, signum, frame):
        start = perf_counter()
        self.samples.append(calibrate())
        self.spans.append((start, perf_counter()))

    def probed(self, start, end):
        """Seconds of probing inside [start, end]."""
        return sum(max(0.0, min(end, b) - max(start, a)) for a, b in self.spans)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples.append(calibrate())  # a pass shorter than the interval gets one too


class Runner:
    """Runs passes over a workload's jobs and counts attempts and failures."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0

    def run_pass(self, tracer=None):
        """Times per phase and in total, without probe time, and the pass's
        median probe as "calibration".  Traced passes run no probes, which
        would land inside the spans."""
        times = defaultdict(float)
        outcomes = []
        probe = SpeedProbe()
        with probe if tracer is None else contextlib.nullcontext():
            for job in self.workload.jobs:
                call = job.run
                if tracer is not None:
                    tracer.job = job.name
                    call = tracer.span("job", job.run)
                job_start = perf_counter()
                try:
                    outcome = (call(), None)
                except Exception:
                    outcome = (None, traceback.format_exc())
                job_end = perf_counter()
                elapsed = job_end - job_start - probe.probed(job_start, job_end)
                times[job.phase] += elapsed
                times["total"] += elapsed
                outcomes.append((job, outcome))
        if probe.samples:
            times["calibration"] = statistics.median(probe.samples)
        for job, (result, error) in outcomes:
            self.attempted += 1
            try:
                problems = [error] if error else job.check(result)
            except Exception:
                problems = [traceback.format_exc()]
            if problems:
                self.failed += 1
                print(f"perfbench: job {job.name!r} failed: {'; '.join(problems)}",
                      file=sys.stderr)
        return times


def end_to_end(passes, workload, setup_times, runner):
    """Samples of every end-to-end metric that applies to the workload."""
    setup_wall, setup_scaled = setup_times
    samples = {
        "setup_s": setup_scaled,
        "setup_wall_s": setup_wall,
        "total_s": [p["total"] for p in passes],
        "total_rel": [p["total"] / p["calibration"] for p in passes],
    }
    if workload.sweep_cells:
        samples["sweep_cells_per_s"] = [workload.sweep_cells / p["sweep"] for p in passes]
    for phase, name in PHASE_METRICS.items():
        if phase in passes[0]:
            samples[name] = [p[phase] for p in passes]
    samples["failed_ratio"] = [runner.failed / runner.attempted]
    samples["peak_rss_mb"] = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]
    return samples


def time_left(start, seconds, passes):
    """Whether another pass of typical length still ends within the run."""
    typical = statistics.median(p["total"] for p in passes)
    return perf_counter() - start + typical <= seconds


def run_untraced(runner, seconds, setup_times):
    start = perf_counter()
    passes = [runner.run_pass()]
    while time_left(start, seconds, passes):
        passes.append(runner.run_pass())
    samples = end_to_end(passes, runner.workload, setup_times, runner)
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    spreads = {}
    for name, values in samples.items():
        if len(values) > 1:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spreads[name] = f"n={len(values)} q1 {q1:.4g} q3 {q3:.4g}"
    notes = [f"{len(passes)} passes; each value is the median of its n samples "
             f"(setup: fresh interpreters, times: passes)"]
    return metrics, spreads, notes, []


def run_traced(runner, seconds, coopt, spans_path):
    import tracing

    plain, traced, layers, problems, tracers = [], [], [], [], []
    start = perf_counter()
    while not traced or time_left(start, seconds, plain + traced):
        if len(plain) <= len(traced):
            plain.append(runner.run_pass())
            continue
        tracer = tracing.Tracer()
        saved = tracing.install(tracer, coopt)
        try:
            times = runner.run_pass(tracer)
        finally:
            tracing.restore(saved)
        traced.append(times)
        tracers.append(tracer)
        summary = tracer.summary()
        metrics = tracing.layer_metrics(summary, times.get("evolve", 0.0))
        layers.append(metrics)
        problems += runner.workload.consistency(metrics, summary)
    tracing.write_spans(spans_path, tracers)
    metrics = {name: statistics.median_low(m[name] for m in layers) for name in layers[0]}
    metrics["trace.overhead_s"] = (statistics.median(p["total"] for p in traced)
                                   - statistics.median(p["total"] for p in plain))
    notes = [f"{len(plain)} untraced and {len(traced)} traced passes; per-pass values, "
             f"median over traced passes", f"spans written to {spans_path}"]
    return metrics, {}, notes, problems


def main(argv=None):
    args = parse_args(argv)
    coopt = import_coopt()
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        if args.setup_only:
            workloads.prepare(args.workload, coopt, args.seed, workdir, args.smoke)
            return 0
        if args.trace:
            runner = Runner(workloads.prepare(args.workload, coopt, args.seed, workdir, args.smoke))
            spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
            metrics, spreads, notes, problems = run_traced(runner, args.seconds, coopt, spans_path)
        else:
            setup_times = time_setup(args)
            runner = Runner(workloads.prepare(args.workload, coopt, args.seed, workdir, args.smoke))
            metrics, spreads, notes, problems = run_untraced(runner, args.seconds, setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        listed = json.load(f)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    describe = {m["name"]: (m["unit"], m["better"]) for m in listed}
    if not args.trace:
        describe.update(PRINTED_ONLY)
    for problem in problems:
        print(f"perfbench: inconsistent trace: {problem}", file=sys.stderr)

    print(f"coopt benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("env: " + json.dumps(environment(args.seed), sort_keys=True))
    for note in notes:
        print(note)
    print(f"jobs attempted {runner.attempted}, failed {runner.failed}")
    for name, value in metrics.items():
        unit, better = describe[name]
        print(f"  {name:<48} {value:>14.6g} {unit:<6} {better:<6} {spreads.get(name, '')}")
    print(json.dumps({
        "correct": runner.failed == 0 and not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
