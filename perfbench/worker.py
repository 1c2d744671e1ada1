"""One benchmark pass in a fresh interpreter, so every lru_cache starts cold.

    python3 perfbench/worker.py --workload W --seed N --mode pass|setup \
        --trace 0|1 --spawned-at T --result FILE

run.py starts this process and reads FILE when it exits.  ``--spawned-at`` is
the parent's CLOCK_MONOTONIC reading just before the spawn, so the set-up
time covers interpreter start, the bergman_lab import and input generation.
With ``--mode setup`` the process stops there.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("pass", "setup"), required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import bergman_lab  # noqa: F401  (part of set-up)
    import bergman_lab.cli  # noqa: F401

    if not Path(bergman_lab.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"bergman_lab imported from {bergman_lab.__file__}, not from this checkout")
    jobs = workloads.generate(args.workload, args.seed)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at
    result = {"setup_s": setup_s, "jobs": len(jobs)}
    if args.mode == "pass":
        result.update(run_pass(args.workload, args.seed, jobs, args.trace, args.result))
    Path(args.result).write_text(json.dumps(result))


def run_pass(workload, seed, jobs, trace, result_path):
    workloads.reset(workload)
    tracer = None
    if trace:
        import layers

        tracer = layers.Tracer()
        tracer.install()
    seconds, records = [], []
    try:
        for index, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = index
            error = None
            start = time.perf_counter()
            try:
                out = workloads.run(workload, index, job)
            except Exception as exc:  # a job that raises is a failed job
                out, error = None, f"{type(exc).__name__}: {exc}"
            seconds.append(time.perf_counter() - start)
            if tracer is not None:
                tracer.job = None
            if error is None:
                failures, digest, details = workloads.judge(workload, index, job, out)
            else:
                failures, digest, details = [error], None, {}
            records.append({"seconds": seconds[-1], "failures": failures,
                            "digest": digest, "details": details})
    finally:
        if tracer is not None:
            tracer.restore()
    out = {
        "job_seconds": seconds,
        "records": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        layer_values, per_job, accounted = tracer.metrics(seconds)
        layer_values["cli.artifact_bytes"] = float(
            sum(r["details"].get("artifact_bytes", 0) for r in records))
        spans_path = Path(result_path).parent / f"{workload}-seed{seed}-spans.csv"
        tracer.write_spans(spans_path)
        out.update({"layers": layer_values, "per_job": per_job,
                    "self_plus_unwrapped_s": accounted + layer_values["trace.unwrapped_s"],
                    "spans_file": str(spans_path.relative_to(ROOT))})
    return out


if __name__ == "__main__":
    main()
