"""The three benchmark workloads: inputs, timed body and output checks.

Each workload is one cold job, run in a fresh interpreter by worker.py, so
the library's lru_caches start empty exactly as they do for one CLI call.
Inputs come from the benchmark seed and are built before timing starts.
Every call into a library layer goes through ``tr.call`` so that a traced
run can charge it to its module; the library itself is not instrumented.
"""

from __future__ import annotations

import math
import random
import time
from collections import Counter
from contextlib import contextmanager

import tamaripop as T
from tamaripop import perms

SIZES = {
    "full": {
        "census": {"n": 12, "max_t": 5},
        "lattice": {"max_ell": 15, "element_budget": 12000},
        "perms": {"n": 9},
    },
    # Small enough that every workload finishes in well under a second; the
    # harness self-test uses it.
    "tiny": {
        "census": {"n": 6, "max_t": 3},
        "lattice": {"max_ell": 7, "element_budget": 150},
        "perms": {"n": 5},
    },
}


class Ops:
    """Counts operations attempted and, per layer, those whose check failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed: Counter[str] = Counter()
        self.first_error: str | None = None

    @contextmanager
    def op(self, layer: str):
        """One operation; an exception inside it counts as a failure of ``layer``."""
        self.attempted += 1
        outcome = _Outcome(layer)
        try:
            yield outcome
        except Exception as exc:  # a raising call is a failed operation, not a crash
            outcome.fail(layer, repr(exc))
        if outcome.bad is not None:
            self.failed[outcome.bad] += 1
            if self.first_error is None:
                self.first_error = outcome.detail


class _Outcome:
    def __init__(self, layer: str) -> None:
        self.layer = layer
        self.bad: str | None = None
        self.detail = ""

    def expect(self, ok: bool, layer: str | None = None, detail: str = "") -> None:
        if not ok:
            self.fail(layer or self.layer, detail or "check failed")

    def fail(self, layer: str, detail: str) -> None:
        if self.bad is None:
            self.bad, self.detail = layer, f"{layer}: {detail}"


# ---------------------------------------------------------------------------
# census: Tam_n census through the public API (`sortable`, `image --qpoly`)


def census_inputs(size: dict, seed: int) -> dict:
    # Fixed by n; the seed has nothing to choose here.
    return {"n": size["n"], "ts": list(range(1, size["max_t"] + 1))}


def census_run(inp: dict, tr, ops: Ops) -> dict:
    n = inp["n"]
    image: set = set()
    with tr.request(0):  # the whole cold job is one request
        for t in inp["ts"]:
            with ops.op("pop") as o:
                count = tr.call("pop", "count_t_sortable", T.count_t_sortable, n, t)
                coeff = tr.call("series", "h_series", T.h_series, t, n)[n]
                o.expect(count == coeff, detail=f"t={t}: census {count} != series {coeff}")
        with ops.op("pop") as o:
            image = tr.call("pop", "pop_image", T.pop_image, n, items=len)
            expected = tr.call("series", "motzkin", T.motzkin, n - 1)
            o.expect(len(image) == expected, detail=f"image size {len(image)} != {expected}")
        with ops.op("pop") as o:
            poly = tr.call("pop", "pop_polynomial", T.pop_polynomial, n, items=lambda p: p.total())
            m = n - 1
            formula = {}
            for k in range(m // 2 + 1):
                value = tr.call("series", "a055151", T.a055151, m, k)
                if value:
                    formula[m - k] = value
            o.expect(poly.coeffs == formula, detail=f"histogram {poly.coeffs} != {formula}")
    return {"vectors": math.comb(2 * n, n) // (n + 1), "image": len(image)}


# ---------------------------------------------------------------------------
# lattice: both Pop routes over a seeded corpus, then the bijection suite


def _lattice_size(nu: str) -> int:
    """Number of paths weakly above nu, by a column-by-column count."""
    rightmost: list[int] = []
    x = 0
    for step in nu:
        if step == "N":
            rightmost.append(x)
        else:
            x += 1
    rightmost.append(x)
    ways = [1] * (rightmost[0] + 1)  # row 0: only east steps
    for y in range(1, len(rightmost)):
        row = [0] * (rightmost[y] + 1)
        for col in range(rightmost[y] + 1):
            from_below = ways[col] if col < len(ways) else 0
            row[col] = from_below + (row[col - 1] if col else 0)
        ways = row
    return ways[-1]


def lattice_inputs(size: dict, seed: int) -> dict:
    """Staircases plus random words of length max_ell, drawn until the element
    budget is met.  Words that would overshoot are skipped, so the total, and
    with it the work, barely depends on the seed."""
    max_ell = size["max_ell"]
    words = ["NE" * k for k in range(1, max_ell // 2 + 1)]
    words += ["E" + "NE" * (k - 1) for k in range(1, (max_ell + 1) // 2 + 1)]
    sizes = [_lattice_size(w) for w in words]
    total = sum(sizes)
    rng = random.Random(seed)
    budget = size["element_budget"]
    for _ in range(100_000):
        if budget - total < 16:
            break
        word = "".join(rng.choice("NE") for _ in range(max_ell))
        count = _lattice_size(word)
        if total + count <= budget:
            words.append(word)
            sizes.append(count)
            total += count
    corpus = [(w, T.NuContext.from_path(T.LatticePath(w)), n) for w, n in zip(words, sizes)]
    return {"corpus": corpus, "elements": total, "max_ell": max_ell}


def verify_options(max_ell: int):
    """The one place the benchmark builds VerifyOptions.

    ``max_n`` is the path-length bound for the bijection suite.  The corpus
    seed stays at its default, as in ``tamaripop verify --suite bijection``:
    across verify seeds this check took 2.5 s to 7.5 s at ell <= 15 on a
    2-vCPU x86_64 VM, which would drown every bound in input noise.
    """
    from tamaripop import verification

    return verification.VerifyOptions(max_n=max_ell)


def lattice_run(inp: dict, tr, ops: Ops) -> dict:
    for rid, (word, ctx, expected) in enumerate(inp["corpus"]):
        with tr.request(rid):
            mus = []
            with ops.op("paths") as o:
                mus = tr.call("paths", "enumerate_tam", T.enumerate_tam, ctx, items=len)
                o.expect(len(mus) == expected, detail=f"{word}: {len(mus)} != {expected}")
            for mu in mus:
                with ops.op("pop") as o:
                    v = tr.call("brackets", "path_to_vector", T.path_to_vector, mu, ctx)
                    downs = tr.call("paths", "covers_down", T.covers_down, mu, ctx, items=len)
                    by_formula = tr.call("pop", "pop_vector", T.pop_vector, v)
                    by_meets = tr.call("pop", "pop_generic", T.pop_generic, mu, ctx)
                    back = tr.call("brackets", "vector_to_path", T.vector_to_path, by_formula)
                    o.expect(back == by_meets, detail=f"{word} {mu}: {back} != {by_meets}")
                    e = v.entries
                    descents = sum(1 for i in range(len(e) - 1) if e[i] > e[i + 1])
                    o.expect(len(downs) == descents, "paths", f"{word} {mu}: covers")
    from tamaripop import verification

    with tr.request(len(inp["corpus"])), ops.op("verification") as o:
        opts = verify_options(inp["max_ell"])
        start = time.perf_counter()
        report = tr.call("verification", "run_suite", verification.run_suite, "bijection", opts)
        for check in report.checks:
            tr.record("verification", check.name, start, start + check.seconds)
            start += check.seconds
            o.expect(check.passed, detail=f"{check.name}: {check.counterexample}")
        o.expect(bool(report.checks), detail="bijection suite ran no check")
    return {"corpus": len(inp["corpus"]), "elements": inp["elements"], "max_ell": inp["max_ell"]}


# ---------------------------------------------------------------------------
# perms: the 312-avoider side and the brute-force scan of S_(n)


def perms_inputs(size: dict, seed: int) -> dict:
    # Fixed by n; the seed has nothing to choose here.
    return {"n": size["n"]}


def perms_run(inp: dict, tr, ops: Ops) -> dict:
    n = inp["n"]
    mapping: dict = {}
    image = set()
    with tr.request(0):  # the whole cold job is one request
        with ops.op("perms") as o:
            mapping = tr.call(
                "perms", "tamari_perm_bijection", T.tamari_perm_bijection, n, items=len
            )
            o.expect(len(mapping) == T.catalan(n), detail=f"domain {len(mapping)}")
        for p, v in mapping.items():
            with ops.op("perms") as o:
                q = tr.call("perms", "pop_tamari_perm", T.pop_tamari_perm, p)
                by_vectors = tr.call("pop", "pop_vector", T.pop_vector, v)
                o.expect(mapping[q] == by_vectors, detail=f"{p}: Pop does not commute")
                image.add(q)
        with ops.op("perms") as o:
            described = tr.call(
                "perms", "image_by_characterization", T.image_by_characterization, n, items=len
            )
            o.expect(image == described, detail="image differs from characterization")
            o.expect(len(image) == T.motzkin(n - 1), detail=f"image size {len(image)}")
        m = n - 1
        for k in range(m // 2 + 1):
            with ops.op("perms") as o:
                count = tr.call(
                    "perms", "count_231_equal_descents_peaks",
                    perms.count_231_equal_descents_peaks, m, k,
                )
                o.expect(count == T.a055151(m, k), detail=f"k={k}: {count}")
    return {"n": n, "elements": len(mapping), "image": len(image), "scanned": math.factorial(n)}


WORKLOADS = {
    "census": (census_inputs, census_run),
    "lattice": (lattice_inputs, lattice_run),
    "perms": (perms_inputs, perms_run),
}

#: One wrong answer per workload, for the harness self-test.
FAULTS = {
    "census": ("count_t_sortable", lambda f: lambda n, t, **kw: f(n, t, **kw) + 1),
    "lattice": ("pop_generic", lambda f: lambda mu, ctx: mu),
    "perms": ("pop_tamari_perm", lambda f: lambda p: p),
}


def inject_fault(workload: str) -> None:
    name, wrap = FAULTS[workload]
    setattr(T, name, wrap(getattr(T, name)))
