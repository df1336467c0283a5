#!/usr/bin/env python3
"""mdfields benchmark: closed-loop workloads, one verified result per job.

Run from the repository root::

    python3 perfbench/run.py --workload traj-conserve --seed 1 --seconds 20
    python3 perfbench/run.py --workload traj-conserve --seed 1 --trace 1
    python3 perfbench/run.py --workload all --seed 1        # every workload
    python3 perfbench/run.py --workload all --tiny          # harness check

A single-workload run measures end-to-end metrics (``--trace 0``) or
per-layer metrics (``--trace 1``) and prints one JSON object as its last
line.  ``--workload all`` runs each workload in its own process, untraced
and then traced, and prints every metric with the tracing overhead.  Run
records and traces are written to ``perfbench/out/``.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import warnings
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOAD_NAMES = ("traj-conserve", "canonical-corrected", "gibbs-fit",
                  "cli-md-quantum")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
# set-up is timed in this many fresh processes and the median reported
SETUP_REPEATS = 5
DEFAULT_SECONDS = 20


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help=f"measuring time per run (default "
                         f"{DEFAULT_SECONDS}; 1 with --tiny)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs, to check the harness in seconds")
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.0 if args.tiny else DEFAULT_SECONDS
    return args


def single_threaded_env():
    """One BLAS/OpenMP thread; CLI outputs go where the configs say."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("MDFIELDS_OUTPUT_DIR", None)


def import_program():
    src = ROOT / "src"
    if not (src / "mdfields" / "__init__.py").is_file():
        sys.exit(f"perfbench: no mdfields package under {src}")
    sys.path.insert(0, str(src))
    import workloads  # noqa: E402  (needs src on the path)
    return workloads


def git_state():
    if not (ROOT / ".git").exists():
        return None, None

    def git(*cmd):
        return subprocess.run(("git", "-C", str(ROOT)) + cmd,
                              capture_output=True, text=True,
                              timeout=30).stdout.strip()
    try:
        return git("rev-parse", "HEAD") or None, bool(git("status",
                                                          "--porcelain"))
    except (OSError, subprocess.SubprocessError):
        return None, None


def environment():
    import numpy
    import scipy
    sha, dirty = git_state()
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "machine": platform.machine(),
    }


def time_setup(args, repeats):
    """Median wall seconds of fresh processes that import and set up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    if args.tiny:
        cmd.append("--tiny")
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        # no timeout: with one, the wait polls in steps of up to 50 ms
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples), samples


def run_workload(args):
    workloads = import_program()
    OUT.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        if args.setup_only:
            wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny,
                                                    scratch)
            wl.prepare(0)
            return 0
        return measure(args, workloads, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(args, workloads, scratch):
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "tiny": args.tiny, "environment": environment()}
    if not args.trace:
        setup_s, samples = time_setup(args, 1 if args.tiny else
                                      SETUP_REPEATS)
        record["setup_samples_s"] = samples
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny, scratch)
    job_s, figures, failed, warned = [], [], 0, 0
    deadline = time.perf_counter() + args.seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                inputs = wl.prepare(i)
                if tracer:
                    tracer.job = i
                t0 = time.perf_counter()
                try:
                    out = wl.run(inputs)
                finally:
                    # a job that raises is timed too
                    job_s.append(time.perf_counter() - t0)
                    if tracer:
                        tracer.job = None
                ok, fig = wl.check(inputs, out)
            except Exception:  # a raising job counts as failed; go on
                traceback.print_exc()
                ok, fig = False, {}
        for w in caught:
            if issubclass(w.category, RuntimeWarning) \
                    and "acceptance rate" in str(w.message):
                warned += 1
            else:
                print(warnings.formatwarning(w.message, w.category,
                                             w.filename, w.lineno),
                      file=sys.stderr, end="")
        failed += not ok
        figures.append(fig)
        i += 1
    jobs = i
    if tracer:
        tracer.uninstall()
    record.update(jobs=jobs, failed=failed, failed_frac=failed / jobs,
                  job_seconds=job_s, runtime_warnings=warned,
                  figures=figures)
    if not job_s:
        print("perfbench: no job got past preparing its inputs",
              file=sys.stderr)
        return 1
    solve_s = statistics.median(job_s)
    if tracer:
        metrics = tracer.metrics(jobs)
        metrics["ensemble.runtime_warnings"] = (warned / jobs, "count")
        metrics["trace.solve_s"] = (solve_s, "s")
        stem = f"{args.workload}-seed{args.seed}-trace"
        tracer.write(OUT / f"{stem}.spans.json")
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"setup_s": (setup_s, "s"), "solve_s": (solve_s, "s"),
                   "peak_rss_mb": (rss_mb, "MB")}
        stem = f"{args.workload}-seed{args.seed}"
    record["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in metrics.items()}
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=2)

    print(f"{args.workload} seed={args.seed} jobs={jobs} failed={failed} "
          f"failed_frac={failed / jobs:.4g} "
          f"ensemble.runtime_warnings={warned}")
    for key in sorted({k for f in figures for k in f}):
        print(f"  {key} {max(f[key] for f in figures if key in f):.4g} 1 "
              f"(largest over jobs)")
    for k, (v, u) in metrics.items():
        extra = f" (median of {len(job_s)} jobs)" if k.endswith("solve_s") \
            else ""
        print(f"  {k} {v:.6g} {u}{extra}")
    print(json.dumps({"correct": failed == 0, "attempted": jobs,
                      "failed": failed, "metrics": record["metrics"]}))
    return 0


def run_all(args):
    """Each workload untraced, then traced, in its own process."""
    rows = {}
    ok = True
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.tiny:
                cmd.append("--tiny")
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=900)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exit {proc.returncode}")
                ok = False
                continue
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            rows.setdefault(name, {})[trace] = result
    print("\nworkload              solve_s  traced  overhead_s  "
          "setup_s  peak_rss_mb  failed_frac")
    summary = {}
    for name, res in rows.items():
        plain = res.get(0, {}).get("metrics", {})
        traced = res.get(1, {}).get("metrics", {})
        if not plain or not traced:
            continue
        solve = plain["solve_s"]["value"]
        tsolve = traced["trace.solve_s"]["value"]
        frac = res[0]["failed"] / res[0]["attempted"]
        summary[name] = {"overhead_s": tsolve - solve, "untraced": res[0],
                         "traced": res[1]}
        print(f"{name:20s} {solve:8.4f} {tsolve:7.4f} {tsolve - solve:11.4f}"
              f" {plain['setup_s']['value']:8.4f}"
              f" {plain['peak_rss_mb']['value']:12.2f} {frac:12.4g}")
    with open(OUT / f"all-seed{args.seed}.json", "w") as fh:
        json.dump(summary, fh, indent=2)
    return 0 if ok else 1


def main(argv=None):
    args = parse_args(argv)
    single_threaded_env()
    if args.workload == "all":
        OUT.mkdir(exist_ok=True)
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
