"""Run every workload, untraced and traced, and print every metric.

    python3 perfbench/report.py                    # seed 0, print only
    python3 perfbench/report.py --write-baseline   # also write baseline.json
    python3 perfbench/report.py --seed 1 --held-out

Each workload runs through run.py twice: ``--trace 0`` for the end-to-end
metrics and ``--trace 1`` for the per-layer ones.  The report prints every
metric by name with its unit, error_rate per workload, and the tracing
overhead (traced run_s minus untraced run_s).  ``--write-baseline`` stores
the numbers, the environment and the workload sizes in
``perfbench/baseline.json``.  ``--held-out`` compares a run on another seed
with that baseline, end-to-end metric by metric, against the bounds in
BENCHMARK.json, records the comparison in the baseline file and exits 1 if
any metric differs, either way, by more than its bound.  The report exits 1
as well if any run, traced or untraced, had a failed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BASELINE = os.path.join(HERE, "baseline.json")


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run.py run; returns its full report file."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr}")
    path = os.path.join(HERE, "out", f"{workload}-seed{seed}-trace{trace}.json")
    with open(path) as fh:
        return json.load(fh)


def print_run(rep: dict) -> None:
    print(f"[{rep['workload']} trace={rep['trace']}] iterations={rep['iterations']} "
          f"sizes={json.dumps(rep['sizes'], sort_keys=True)}")
    print(f"  error_rate = {rep['error_rate']:.6g} ratio ({rep['failed']}/{rep['attempted']})")
    for name, m in rep["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if "layers" in rep:
        print("  layer           calls        items     busy_s     self_s")
        for layer, row in rep["layers"].items():
            print(f"  {layer:12s} {row['calls']:8.0f} {row['items']:12.0f} "
                  f"{row['busy_s']:10.4f} {row['self_s']:10.4f}")


def worse_by(value: float, base: float, better: str) -> float:
    """Share of the baseline by which value is worse (negative: better)."""
    change = (value - base) / base
    return change if better == "lower" else -change


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--write-baseline", action="store_true")
    ap.add_argument("--held-out", action="store_true",
                    help="compare untraced runs with baseline.json and record the result")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]

    results = {}
    for name in workloads:
        untraced = run_workload(name, args.seed, seconds, 0)
        print_run(untraced)
        results[name] = {"untraced": untraced}
        if not args.held_out:
            traced = run_workload(name, args.seed, seconds, 1)
            print_run(traced)
            results[name]["traced"] = traced
    total_failed = sum(rep["failed"] for r in results.values() for rep in r.values())

    if args.write_baseline:
        baseline = {
            "environment": results[workloads[0]]["untraced"]["environment"],
            "seed": args.seed,
            "seconds": seconds,
            "workloads": {},
        }
        for w in spec["workloads"]:
            u, t = results[w["name"]]["untraced"], results[w["name"]]["traced"]
            attempted = u["attempted"] + t["attempted"]
            baseline["workloads"][w["name"]] = {
                "why": w["why"],
                "sizes": u["sizes"],
                "setup_samples": u["setup_samples"],
                "attempted": attempted,
                "error_rate": (u["failed"] + t["failed"]) / attempted,
                "end_to_end_iterations": u["iterations"]["untraced"],
                "end_to_end": {k: m["value"] for k, m in u["metrics"].items()},
                "per_layer_iterations": t["iterations"],
                "per_layer": {k: m["value"] for k, m in t["metrics"].items()},
                "layers": t["layers"],
                "functions": t["functions"],
            }
        with open(BASELINE, "w") as fh:
            json.dump(baseline, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {os.path.relpath(BASELINE, ROOT)}")

    if args.held_out:
        with open(BASELINE) as fh:
            baseline = json.load(fh)
        rows, ok = [], True
        for name in workloads:
            base = baseline["workloads"][name]["end_to_end"]
            for m in spec["end_to_end"]:
                value = results[name]["untraced"]["metrics"][m["name"]]["value"]
                worse = worse_by(value, base[m["name"]], m["better"])
                within = abs(worse) <= m["bound"]
                ok &= within
                rows.append({"workload": name, "metric": m["name"], "baseline": base[m["name"]],
                             "held_out": value, "worse_by": worse, "bound": m["bound"],
                             "within": within})
                print(f"  {name:12s} {m['name']:15s} seed{baseline['seed']}={base[m['name']]:.6g} "
                      f"seed{args.seed}={value:.6g} worse_by={worse:+.3f} bound={m['bound']} "
                      f"{'ok' if within else 'OUTSIDE'}")
        baseline["held_out"] = {"seed": args.seed, "within_bounds": ok, "rows": rows}
        with open(BASELINE, "w") as fh:
            json.dump(baseline, fh, indent=1, sort_keys=True)
            fh.write("\n")
        if not ok:
            return 1
    return 1 if total_failed else 0


if __name__ == "__main__":
    sys.exit(main())
