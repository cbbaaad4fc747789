"""Benchmark entry point: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload census --seed 0 --seconds 20 --trace 0

Runs the workload again and again, each time as a cold job in a fresh
interpreter (closed loop, one client, one worker at a time), until the next
iteration would not fit in ``--seconds``; it also starts a few interpreters
that only import tamaripop, to sample set-up time.  Medians over the
iterations are reported.  ``--trace 0`` reports the end-to-end metrics named
in BENCHMARK.json; ``--trace 1`` alternates untraced and traced iterations
and reports the per-layer metrics, including the tracing overhead.

The last line on stdout is one JSON object with the keys correct, attempted,
failed and metrics.  A readable summary, the environment and the workload
sizes go to stderr, and the full report of the run goes to
``perfbench/out/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("census", "lattice", "perms")
SETUP_PROBES = 10  # import-only interpreters started before each iteration
WORKER_TIMEOUT_S = 150


class HarnessError(RuntimeError):
    """The benchmark could not produce a result."""


def spawn(args: list[str]) -> tuple[float, dict]:
    """Run one worker to completion; return its spawn instant and result."""
    t_spawn = time.time()
    proc = subprocess.run(
        [sys.executable, WORKER, *args],
        cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"worker {args} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return t_spawn, json.loads(lines[-1])


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "commit": commit(),
        "seed": seed,
        "machine": platform.machine(),
    }


def blas_threads() -> int | str:
    """Thread count of the OpenBLAS that numpy loaded, asked through ctypes."""
    import ctypes
    import glob

    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    names = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
             "openblas_get_num_threads")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return "unknown"


def commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def measure(args) -> tuple[list[float], list[dict], list[dict]]:
    """Set-up samples, untraced iterations and traced iterations."""
    base = ["--workload", args.workload, "--seed", str(args.seed), "--sizes", args.sizes]
    if args.inject:
        base.append("--inject")
    start = time.perf_counter()
    setup = []
    plain: list[dict] = []
    traced: list[dict] = []
    longest = 0.0
    while True:
        loop_start = time.perf_counter()
        for _ in range(SETUP_PROBES):
            t_spawn, res = spawn(["--setup-only"])
            setup.append(res["t_imported"] - t_spawn)
        use_trace = bool(args.trace) and len(plain) > len(traced)
        extra = ["--trace", "1", "--spans", spans_path(args)] if use_trace else []
        t_spawn, res = spawn(base + extra)
        res["setup_s"] = res["t_imported"] - t_spawn
        setup.append(res["setup_s"])
        (traced if use_trace else plain).append(res)
        now = time.perf_counter()
        longest = max(longest, now - loop_start)
        done = bool(plain) and (bool(traced) or not args.trace)
        if done and now - start + longest > args.seconds:
            return setup, plain, traced


def spans_path(args) -> str:
    return os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-spans.jsonl")


def end_to_end(setup: list[float], runs: list[dict]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup),
        "run_s": statistics.median(r["run_s"] for r in runs),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in runs),
    }


def layer_value(name: str, res: dict) -> float:
    """One per-layer metric from a traced iteration's function table."""
    parts = name.split(".")
    layer, stat = parts[0], parts[-1]
    if stat == "failed":
        return res["failed"].get(layer, 0)
    if len(parts) == 2:
        row = res["layers"].get(layer)
    else:
        row = res["functions"].get(".".join(parts[:-1]))
    return row[stat] if row else 0


def per_layer(names: list[str], plain: list[dict], traced: list[dict]) -> dict[str, float]:
    untraced_s = statistics.median(r["run_s"] for r in plain)
    traced_s = statistics.median(r["run_s"] for r in traced)
    out = {}
    for name in names:
        if name == "trace.overhead_s":
            out[name] = traced_s - untraced_s
        elif name == "trace.overhead_pct":
            out[name] = 100.0 * (traced_s - untraced_s) / untraced_s
        else:
            out[name] = statistics.median(layer_value(name, r) for r in traced)
    return out


def function_table(traced: list[dict], table: str) -> dict:
    """Median over traced iterations of every per-function or per-layer total."""
    keys = sorted({k for r in traced for k in r[table]})
    stats = sorted({s for r in traced for row in r[table].values() for s in row})
    return {
        key: {stat: statistics.median(r[table].get(key, {}).get(stat, 0) for r in traced)
              for stat in stats}
        for key in keys
    }


def summarize(args, spec: dict, setup: list[float], plain: list[dict], traced: list[dict]) -> dict:
    """The run's report; a run that examined no operation is an error, not a pass."""
    runs = plain + traced
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(sum(r["failed"].values()) for r in runs)
    if attempted == 0:
        raise HarnessError("the workload examined no operation")
    e2e = end_to_end(setup, plain)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = per_layer([m["name"] for m in wanted], plain, traced) if args.trace else e2e
    metrics = {}
    for m in wanted:
        value = values[m["name"]]
        if m["unit"] == "count" and value == int(value):
            value = int(value)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes_preset": args.sizes,
        "environment": environment(args.seed),
        "sizes": plain[0]["sizes"],
        "iterations": {"untraced": len(plain), "traced": len(traced)},
        "setup_samples": len(setup),
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "first_error": next((r["first_error"] for r in runs if r["first_error"]), None),
        "metrics": metrics,
    }
    if traced:
        report["functions"] = function_table(traced, "functions")
        report["layers"] = function_table(traced, "layers")
    return report


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--sizes", choices=("full", "tiny"), default="full",
                    help="tiny runs the harness self-test sizes")
    ap.add_argument("--inject", action="store_true",
                    help="make the program give one wrong answer (self-test)")
    args = ap.parse_args(argv)
    # Turn SIGTERM into SystemExit, so subprocess.run kills and reaps a running worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(ROOT, "src", "tamaripop", "__init__.py")):
        print(f"error: no tamaripop sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        report = summarize(args, spec, *measure(args))
    except (HarnessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics, attempted, failed = report["metrics"], report["attempted"], report["failed"]
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)

    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"iterations={report['iterations']} sizes={report['sizes']}", file=sys.stderr)
    print(f"environment {json.dumps(report['environment'], sort_keys=True)}", file=sys.stderr)
    print(f"  error_rate = {report['error_rate']:.6g} ({failed}/{attempted})", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
