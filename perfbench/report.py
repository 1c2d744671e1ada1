"""Every metric of every workload, in one command.

    python3 perfbench/report.py [--seed N]

For each workload this makes one untraced and one traced run of
perfbench/run.py with the same seed (and BENCHMARK.json's run_seconds) and
prints:

* every end-to-end metric by name and unit: the gated ones of
  BENCHMARK.json and the reported-only job_p50_s, job_p75_s and fail_frac;
* the tracing overhead (traced total_s minus untraced total_s);
* the accounting: per-layer self times plus the unwrapped remainder against
  the traced total_s;
* transparency: whether both runs gave identical job digests (results and,
  on ``sweep``, artifact hashes);
* the per-layer metrics that read zero on that workload;
* for ``verify``, the ROADMAP baseline rows: the times of checks 8, 3, 13
  and 9 and the counts behind them.

The summary is also written to perfbench/_runs/report-seed<N>.json.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402

# check number -> the traced figures that explain its time (ROADMAP baseline)
BASELINE = {
    8: ("geometry.pseudo_distance.calls", "geometry.build_lattice.s", "geometry.certificates.s"),
    3: ("kernels.polyval.calls", "kernels.polyval.s"),
    13: ("quadrature.leggauss.calls", "quadrature.leggauss.s", "toeplitz.eig_n3"),
    9: ("geometry.build_lattice.s", "transforms.average_profile.s",
        "quadrature.region_quadrature.s"),
}


def one_run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"{workload} trace={trace} failed with code {proc.returncode}")
    return json.loads((run.RUNS / f"{workload}-seed{seed}-trace{trace}.json").read_text())


def summarize(workload, plain, traced):
    first = plain["passes"][0]
    tpass = traced["passes"][0]
    plain_total = sum(first["job_seconds"])
    traced_total = sum(tpass["job_seconds"])
    mismatched = [i for i, (a, b) in enumerate(zip(first["records"], tpass["records"]))
                  if a["digest"] != b["digest"]]
    layer_values = tpass["layers"]
    out = {
        "end_to_end": plain["reported"],
        "traced_fail_frac": sum(1 for r in tpass["records"] if r["failures"]) / len(tpass["records"]),
        "tracing": {
            "untraced_total_s": plain_total,
            "traced_total_s": traced_total,
            "overhead_s": traced_total - plain_total,
            "overhead_frac": (traced_total - plain_total) / plain_total,
            "self_plus_unwrapped_s": tpass["self_plus_unwrapped_s"],
            "unwrapped_s": layer_values["trace.unwrapped_s"],
            "spans": layer_values["trace.spans"],
            "identical_results": not mismatched and len(first["records"]) == len(tpass["records"]),
            "mismatched_jobs": mismatched,
        },
        "zero_layer_metrics": [name for name in layers.PER_LAYER if not layer_values[name]],
    }
    if workload == "verify":
        rows = {}
        for check, names in BASELINE.items():
            job = str(check - 1)
            rows[check] = {"untraced_s": first["job_seconds"][check - 1],
                           "traced_s": tpass["job_seconds"][check - 1]}
            rows[check].update({n: tpass["per_job"][job].get(n, 0.0) for n in names})
        out["baseline"] = rows
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    args = ap.parse_args()

    report = {}
    for workload in run.workloads.WORKLOADS:
        plain = one_run(workload, args.seed, 0)
        traced = one_run(workload, args.seed, 1)
        report[workload] = summarize(workload, plain, traced)
        report["environment"] = plain["environment"]

    for workload, rep in report.items():
        if workload == "environment":
            continue
        print(f"== {workload} (seed {args.seed})")
        for name, metric in rep["end_to_end"].items():
            print(f"  {name:<12} {metric['value']:>14.6g} {metric['unit']}")
        print(f"  traced run fail_frac {rep['traced_fail_frac']:g}")
        tr = rep["tracing"]
        print(f"  tracing overhead {tr['overhead_s']:+.3f} s ({tr['overhead_frac']:+.1%}); "
              f"self + unwrapped {tr['self_plus_unwrapped_s']:.3f} s of traced "
              f"{tr['traced_total_s']:.3f} s (unwrapped {tr['unwrapped_s']:.3f} s, "
              f"{tr['spans']:.0f} spans); identical results: {tr['identical_results']}")
        print(f"  per-layer metrics reading zero: {', '.join(rep['zero_layer_metrics']) or 'none'}")
        for check, row in rep.get("baseline", {}).items():
            cells = ", ".join(f"{k} {v:.6g}" for k, v in row.items())
            print(f"  check {check:>2}: {cells}")
    print("environment:", json.dumps(report["environment"]))
    path = run.RUNS / f"report-seed{args.seed}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"written to {path.relative_to(run.ROOT)}")


if __name__ == "__main__":
    main()
