"""mixvar benchmark: end-to-end and per-layer metrics through the public CLI.

Run from the root of a checkout:

    python3 bench/run.py --workload envelope-1d --seed 1 --seconds 30 --trace 0
    python3 bench/run.py                      # every workload, untraced and traced

One run is one process.  It imports mixvar from ``src/`` of the checkout,
sets up the workload three times, each time after launching and waiting for
a fresh interpreter that makes the same imports (set-up time is the median
of start plus set-up), then runs
whole rounds of the workload's CLI calls for ``--seconds`` seconds and checks
every artifact.  With ``--trace 0`` it prints the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced rounds and prints the
per-layer metrics of the traced ones plus the tracing overhead.  The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOAD_NAMES = ("envelope-1d", "envelope-2d", "direct")
SETUP_REPEATS = 3
MIN_ROUNDS = 2
# a fresh interpreter that imports what a run imports before its first CLI call
START = "import sys; sys.path[:0] = sys.argv[1:]; import mixvar.cli, checks, layers, workloads"
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "hull_excess": "1"}
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def import_mixvar():
    """Import the package from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "mixvar" / "__init__.py").is_file():
        sys.exit(f"bench: no mixvar sources under {src}")
    sys.path.insert(0, str(src))
    import mixvar

    if Path(mixvar.__file__).resolve().parent != (src / "mixvar").resolve():
        sys.exit(f"bench: imported mixvar from {mixvar.__file__}, not from {src}")
    import mixvar.cli  # noqa: F401  (the entry point the workloads drive)
    return mixvar


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def machine_facts() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "blas_threads": {k: os.environ.get(k, "unset") for k in BLAS_VARS},
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "git_sha": git_sha(),
    }


def start_time() -> float:
    """Wall time of one fresh interpreter from its launch until mixvar and the benchmark are imported."""
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", START, str(ROOT / "src"), str(BENCH)], check=True)
    return time.perf_counter() - t


def round_time(rounds: list[dict], which: int) -> float:
    """Sum over a round's CLI calls of each call's median time (which: 0 wall, 1 CPU)."""
    return sum(statistics.median(r["calls"][cmd][which] for r in rounds) for cmd in rounds[0]["calls"])


def run_workload(args) -> int:
    mixvar = import_mixvar()
    import checks
    from layers import PER_LAYER, Tracer
    from workloads import WORKLOADS

    work = (ROOT / args.out / (args.workload + (".trace" if args.trace else ""))).resolve()
    if ROOT.resolve() not in work.parents:
        sys.exit(f"bench: output directory {work} lies outside the checkout")
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = WORKLOADS[args.workload](work, args.seed)

    correct = True
    error = None
    attempted = failed = 0
    setup_times, rounds, traced = [], [], []
    tracer = Tracer()
    try:
        # set-up is repeated whole, the process start included, and its median taken
        for _ in range(SETUP_REPEATS):
            start = start_time()
            t = time.perf_counter()
            wl.setup()
            setup_times.append(start + time.perf_counter() - t)

        phase0 = time.perf_counter()
        while True:
            i = len(rounds) + len(traced)
            trace_this = bool(args.trace) and i % 2 == 1
            t = time.perf_counter()
            if trace_this:
                tracer.round = i
                tracer.reset()
                tracer.install()
                try:
                    r = wl.run_round()
                finally:
                    tracer.uninstall()
                r["layers"] = tracer.round_metrics(r["wall"], r["cpu"])
                traced.append(r)
            else:
                r = wl.run_round()
                rounds.append(r)
            attempted += r["attempted"]
            failed += r["failed"]
            last = time.perf_counter() - t
            elapsed = time.perf_counter() - phase0
            if i + 1 >= MIN_ROUNDS and elapsed + last > args.seconds:
                break
    except checks.CheckError as exc:
        correct = False
        error = str(exc)
        print(f"CHECK FAILED: {exc}", file=sys.stderr)

    metrics = {}
    if correct:
        wall = round_time(rounds, 0)
        if args.trace:
            for name in traced[0]["layers"]:
                metrics[name] = statistics.median(r["layers"][name] for r in traced)
            metrics["trace.overhead_pct"] = 100.0 * (round_time(traced, 0) - wall) / wall
            units = {name: unit for name, unit, _ in PER_LAYER}
        else:
            metrics = {
                "setup_s": statistics.median(setup_times),
                "wall_s": wall,
                "cpu_s": round_time(rounds, 1),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "hull_excess": statistics.median(r["hull_excess"] for r in rounds),
            }
            units = E2E_UNITS
        metrics = {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()}

    facts = machine_facts()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": facts, "mixvar": mixvar.__file__, "setup_runs_s": setup_times,
        "rounds": rounds + traced, "error": error,
        "metrics": metrics,
    }
    (work / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if args.trace:
        tracer.dump(work / "trace.json")

    print(f"# machine: {json.dumps(facts, sort_keys=True)}")
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(rounds)} untraced and {len(traced)} traced rounds, record in {work}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"attempted {attempted} failed {failed} correct {str(correct).lower()}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced."""
    results = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seconds",
                   str(args.seconds), "--trace", str(trace), "--out", args.out]
            if args.seed is not None:
                cmd += ["--seed", str(args.seed)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace {trace}: exit {proc.returncode}")
                results[name, trace] = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
                continue
            results[name, trace] = json.loads(lines[-1])

    merged = {}
    for name in WORKLOAD_NAMES:
        plain, traced = results[name, 0], results[name, 1]
        print(f"== {name}: attempted {plain['attempted']} failed {plain['failed']} "
              f"correct {str(plain['correct']).lower()}")
        for metric, m in plain["metrics"].items():
            print(f"   {metric:28s} {m['value']:12.6g} {m['unit']}")
            merged[f"{name}.{metric}"] = m
        for metric, m in traced["metrics"].items():
            print(f"   {metric:28s} {m['value']:12.6g} {m['unit']}  (traced)")
    ok = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": ok,
        "attempted": sum(results[n, 0]["attempted"] for n in WORKLOAD_NAMES),
        "failed": sum(results[n, 0]["failed"] for n in WORKLOAD_NAMES),
        "metrics": merged,
    }))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, default=None,
                        help="one workload; default: all of them, untraced and traced")
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed; default: the acceptance seeds")
    parser.add_argument("--seconds", type=int, default=30, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=".bench_out", help="output directory inside the checkout")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
