"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its `src/`.
Set-up (imports, inputs, one warm-up unit) is timed in this process and in
two fresh child processes that repeat it, and `setup_s` is their median.
The timed phase then runs the workload's fixed list of units, sized from
--seconds.  With --trace 0 the last line holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a traced run.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402 - the set-up clock starts before any import
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_SAMPLES = 3  # this process and two children
CHILD_TIMEOUT_S = 60

# One BLAS thread: OpenBLAS would otherwise start one thread per core.
# HiGHS, as scipy calls it, starts none, so the process runs one thread.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up time and exit (used for the extra samples)")
    return ap.parse_args(argv)


def import_program():
    """Import the program from this checkout, never from elsewhere."""
    if not (SRC / "drmdp" / "__init__.py").is_file():
        sys.exit(f"error: no program at {SRC / 'drmdp'}; run from a full checkout")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]
    import drmdp

    if Path(drmdp.__file__).resolve().parent != SRC / "drmdp":
        sys.exit(f"error: imported drmdp from {drmdp.__file__}, not from {SRC}")
    import workloads

    return workloads


def child_setup_seconds(args):
    """Set-up time of a fresh process doing the same set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                         cwd=ROOT, check=True)
    return json.loads(out.stdout.splitlines()[-1])["setup_s"]


def main(argv=None):
    args = parse_args(argv)
    workloads = import_program()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    work = workloads.WORKLOADS[args.workload](args.seed, args.seconds)
    work.make_inputs()
    work.warm_up()
    setup_s = time.perf_counter() - STARTED
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    stamps = [time.perf_counter()]

    def stamp():
        stamps.append(time.perf_counter())
        if tracer is not None:
            tracer.unit += 1

    try:
        work.run_units(stamp)
    finally:
        if tracer is not None:
            tracer.uninstall()
    phase_s = time.perf_counter() - stamps[0]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    unit_ms = [1000.0 * (b - a) for a, b in zip(stamps, stamps[1:])]
    if len(unit_ms) != work.n_units:
        sys.exit(f"error: {len(unit_ms)} units ended, {work.n_units} expected")

    problems = work.check()
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is None:
        setups = [setup_s] + [child_setup_seconds(args) for _ in range(SETUP_SAMPLES - 1)]
        completed = work.n_units - work.failed_units
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "units_per_s": {"value": completed / phase_s, "unit": "1/s"},
            "unit_ms_p50": {"value": statistics.median(unit_ms), "unit": "ms"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
        detail = {"setup_samples_s": setups}
    else:
        metrics, missing = tracer.metrics(work.n_units, unit_ms)
        if missing:
            print(f"missing per-layer metrics (hook targets gone): {missing}", file=sys.stderr)
        tracer.write(RESULTS / f"{stem}-spans.json")
        detail = {"missing": missing}
    result = {
        "correct": not problems,
        "attempted": work.n_units,
        "failed": work.failed_units,
        "metrics": metrics,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(
        {**result, "unit_ms": unit_ms, "phase_s": phase_s, **detail}, indent=1) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
