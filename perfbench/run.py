"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload verify|sweep|spectral --seed N \
        --seconds S --trace 0|1

Run it from the root of a checkout.  Each pass is a fresh process
(perfbench/worker.py), so lru_caches start cold as they do for a CLI user.
The load is serial: BERGMAN_LAB_THREADS and the BLAS thread counts are 1.

--trace 0 first starts SETUP_SAMPLES set-up-only processes, then repeats
untraced passes while another one fits in --seconds (at least one; a
``verify`` pass is longer than any --seconds, so it runs once), and prints
the end-to-end metrics that BENCHMARK.json lists, as medians over set-up
samples and passes; the record also holds the reported-only ones (REPORTED).
--trace 1 makes one traced pass and prints the per-layer metrics.
--seconds defaults to BENCHMARK.json's run_seconds.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record (job
list, per-job times and digests, environment) goes to
perfbench/_runs/<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / "_runs"
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

# seed 1 is the default; seed 9001 is held out for confirming a claimed gain
DEFAULT_SEED = 1
SETUP_SAMPLES = 15
PASS_TIMEOUT_S = 165

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
# reported in the run record and by report.py, but not gated: on a noisy
# 2-vCPU VM the per-job percentiles of ``verify`` (single checks of 0.5-4 s)
# spread more across runs than the largest allowed bound
REPORTED = {"job_p50_s": "s", "job_p75_s": "s", "fail_frac": "ratio"}

THREAD_ENV = {
    "BERGMAN_LAB_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def spawn(workload, seed, mode, trace, tag):
    """Run one worker process to completion; return its result dict."""
    RUNS.mkdir(exist_ok=True)
    result = RUNS / f"{workload}-seed{seed}-{tag}.part.json"
    result.unlink(missing_ok=True)
    env = {**os.environ, **THREAD_ENV}
    spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--mode", mode, "--trace", str(trace),
         "--spawned-at", repr(spawned_at), "--result", str(result)],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    try:
        _, err = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.exit(f"{mode} process of {workload} exceeded {PASS_TIMEOUT_S} s")
    if proc.returncode != 0 or not result.exists():
        sys.stderr.write(err)
        sys.exit(f"{mode} process of {workload} exited with code {proc.returncode}")
    data = json.loads(result.read_text())
    result.unlink()
    return data


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: os.environ.get(k) for k in sorted(os.environ)
                       if "THREAD" in k or k in THREAD_ENV},
        "worker_thread_env": THREAD_ENV,
        "commit": commit,
        "platform": platform.platform(),
    }


def p75(values):
    return statistics.quantiles(values, n=4)[2] if len(values) > 1 else values[0]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    package = ROOT / "src" / "bergman_lab"
    if not (package / "__init__.py").is_file():
        sys.exit(f"no bergman_lab sources under {package}; run from a checkout root")
    # the build step: byte-compile the sources so no pass pays for it
    compileall.compile_dir(str(package), quiet=1)

    # set-up is sampled first, in processes that stop once set up
    setups = [] if args.trace else [
        spawn(args.workload, args.seed, "setup", 0, "setup")["setup_s"]
        for _ in range(SETUP_SAMPLES)]
    passes = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        passes.append(spawn(args.workload, args.seed, "pass", args.trace, f"pass{len(passes)}"))
        elapsed, last = time.monotonic() - start, time.monotonic() - t0
        if args.trace or elapsed + last > args.seconds:
            break

    jobs = workloads.generate(args.workload, args.seed)
    digests = [[r["digest"] for r in p["records"]] for p in passes]
    attempted = sum(len(p["records"]) for p in passes)
    failed = sum(1 for p in passes for r in p["records"] if r["failures"])
    correct = failed == 0 and all(d == digests[0] for d in digests)

    if args.trace:
        (data,) = passes
        metrics = {name: {"value": data["layers"][name], "unit": unit}
                   for name, unit in layers.PER_LAYER.items()}
        reported = metrics
    else:
        values = {
            "setup_s": statistics.median(setups),
            "total_s": statistics.median(sum(p["job_seconds"]) for p in passes),
            "job_p50_s": statistics.median(statistics.median(p["job_seconds"]) for p in passes),
            "job_p75_s": statistics.median(p75(p["job_seconds"]) for p in passes),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
            "pass_frac": (attempted - failed) / attempted,
            "fail_frac": failed / attempted,
        }
        reported = {name: {"value": values[name], "unit": unit}
                    for name, unit in {**END_TO_END, **REPORTED}.items()}
        metrics = {name: reported[name] for name in END_TO_END}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(), "jobs": jobs,
        "setup_samples": setups, "passes": passes, "correct": correct,
        "reported": reported,
    }
    RUNS.mkdir(exist_ok=True)
    path = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    for p in passes:
        for i, r in enumerate(p["records"]):
            for failure in r["failures"]:
                print(f"job {i} failed: {failure}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
