"""One cold run of one workload, in the fresh interpreter run.py starts.

Prints one JSON line on stdout: the wall-clock instant ``import tamaripop``
returned (run.py subtracts its spawn instant to get set-up time), the timed
run, peak RSS, operation counts and, in a traced run, per-function totals.
The raw spans of a traced run stay in memory and are written to ``--spans``
at exit.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
import tamaripop  # noqa: E402,F401  (the set-up being measured)

T_IMPORTED = time.time()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from contextlib import contextmanager, nullcontext  # noqa: E402

import workloads  # noqa: E402


class Tracer:
    """Spans around calls into library layers: (id, parent, request, layer,
    name, start, end, items).  Disabled, ``call`` is a plain call."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list = []
        self._stack: list[int] = []
        self._request = None
        self._last = None

    def call(self, layer, name, fn, *args, items=None):
        if not self.enabled:
            return fn(*args)
        sid = self._open(layer, name)
        try:
            out = fn(*args)
        finally:
            self._close(sid)
        if items is not None:
            self.spans[sid][7] = items(out)
        return out

    def request(self, rid):
        """Root span shared by every call made for one request."""
        return self._request_span(rid) if self.enabled else nullcontext()

    @contextmanager
    def _request_span(self, rid):
        self._request = rid
        sid = self._open("bench", "request")
        try:
            yield
        finally:
            self._close(sid)
            self._request = None

    def record(self, layer, name, start, end):
        """A sub-span of the last call, timed by the program's own clock."""
        span = [len(self.spans), self._last, self._request, layer, name, start, end, None]
        self.spans.append(span)

    def _open(self, layer, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        now = time.perf_counter()
        self.spans.append([sid, parent, self._request, layer, name, now, None, None])
        self._stack.append(sid)
        return sid

    def _close(self, sid):
        self.spans[sid][6] = time.perf_counter()
        self._stack.pop()
        self._last = sid


def aggregate(spans) -> tuple[dict, dict]:
    """Totals per "layer.name" and per layer.

    A function row has calls, items, busy time, self time (busy minus child
    spans), the first call (cold) and the mean of the later calls (warm).  A
    layer row counts only entries into the layer, so a span nested in a span
    of its own layer adds to self time but not again to calls or busy time.
    """
    child = [0.0] * len(spans)
    for _, parent, _, _, _, start, end, _ in spans:
        if parent is not None:
            child[parent] += end - start
    functions: dict = {}
    layers: dict = {}
    for sid, parent, _, layer, name, start, end, items in spans:
        d = end - start
        row = functions.setdefault(
            f"{layer}.{name}",
            {"calls": 0, "items": 0, "busy_s": 0.0, "self_s": 0.0, "cold_s": d},
        )
        lrow = layers.setdefault(layer, {"calls": 0, "items": 0, "busy_s": 0.0, "self_s": 0.0})
        for target in (row, lrow):
            target["self_s"] += d - child[sid]
        row["calls"] += 1
        row["items"] += items or 0
        row["busy_s"] += d
        if parent is None or spans[parent][3] != layer:
            lrow["calls"] += 1
            lrow["items"] += items or 0
            lrow["busy_s"] += d
    for row in functions.values():
        later = row["calls"] - 1
        row["warm_s"] = (row["busy_s"] - row["cold_s"]) / later if later else 0.0
    return functions, layers


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--sizes", choices=sorted(workloads.SIZES), default="full")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject", action="store_true", help="inject one wrong answer")
    ap.add_argument("--spans", help="where a traced run writes its spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    if args.setup_only:
        print(json.dumps({"t_imported": T_IMPORTED}))
        return 0

    make_inputs, run = workloads.WORKLOADS[args.workload]
    if args.inject:
        workloads.inject_fault(args.workload)
    inputs = make_inputs(workloads.SIZES[args.sizes][args.workload], args.seed)
    tracer = Tracer(bool(args.trace))
    ops = workloads.Ops()
    start = time.perf_counter()
    out = run(inputs, tracer, ops)
    run_s = time.perf_counter() - start
    result = {
        "t_imported": T_IMPORTED,
        "run_s": run_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": ops.attempted,
        "failed": dict(ops.failed),
        "first_error": ops.first_error,
        "sizes": out,
    }
    if args.trace:
        result["functions"], result["layers"] = aggregate(tracer.spans)
        if args.spans:
            keys = ("id", "parent", "request", "layer", "name", "start", "end", "items")
            with open(args.spans, "w") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(dict(zip(keys, span))) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
