"""Named verification suites behind both the CLI and the acceptance tests.

Every check returns a CheckResult with the parameter ranges it actually ran
at and, on failure, a small counterexample payload.  Checks are pure and
deterministic for a fixed seed; a suite runs its checks in sorted name order
so the assembled report is reproducible byte for byte (wall times are kept
on the result objects and in stderr diagnostics, never in the stdout JSON).

The centerpiece equivalence used by the bijection suite: for a bijection
phi from a finite poset P (order = reflexive-transitive closure of the
Hasse diagram) into integer vectors,

    (i)  u <= v in P  iff  phi(u) <= phi(v) componentwise, and
    (ii) the image of phi is closed under componentwise min,

together imply that P is a meet-semilattice and that
phi(glb(u, v)) = min(phi(u), phi(v)) for every pair: writing
w = phi^-1(min(phi u, phi v)), (i) gives w <= u and w <= v, and any common
lower bound z has phi(z) <= min(phi u, phi v) = phi(w), hence z <= w.  The
suite checks (i) for all pairs and (ii) for the incomparable pairs (the min
of a comparable pair is one of the two), looking mins up by integer keys
over the columns that are not fixed to a height.  The argument above makes
the glb identity a consequence of (i) and (ii), so the suite computes no
glbs from down-sets: (i) and (ii) are all it needs.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable

from . import brackets, paths, perms, pop, series
from .brackets import BracketVector
from .paths import LatticePath, NuContext

__all__ = [
    "CheckResult",
    "VerificationReport",
    "VerifyOptions",
    "run_suite",
    "suite_names",
]

# Default bounds for the individual checks.
BIJECTION_MAX_ELL = 14
ORACLE_MAX_ELL = 12
STRUCTURE_MAX_N = 8
STRUCTURE_MAX_T = 4
HASH_BIJECTION_MAX_N = 9
SERIES_MAX_T = 6
SERIES_ORDER = 25
CENSUS_MAX_N = 11
CENSUS_MAX_T = 5
QPOLY_MAX_N = 9
CONGRUENCE_MAX_N = 8
CONFLUENCE_MAX_N = 7
CONFLUENCE_TRIALS = 1000
CHARACTERIZATION_MAX_N = 9
PETERSEN_MAX_N = 8
RANDOM_NU_COUNT = 50


@dataclass
class VerifyOptions:
    """Effective knobs: max_n / max_t override per-check defaults when set."""

    max_n: int | None = None
    max_t: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        for name, value in (("max_n", self.max_n), ("max_t", self.max_t)):
            if value is not None and value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")

    def n(self, default: int) -> int:
        return self.max_n if self.max_n is not None else default

    def t(self, default: int) -> int:
        return self.max_t if self.max_t is not None else default


@dataclass
class CheckResult:
    name: str
    passed: bool
    params: dict
    counterexample: dict | None
    seconds: float


@dataclass
class VerificationReport:
    suite: str
    options: VerifyOptions
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self, include_timing: bool = False) -> dict:
        out_checks = []
        for c in self.checks:
            entry: dict = {
                "name": c.name,
                "status": "pass" if c.passed else "fail",
                "params": c.params,
            }
            if c.counterexample is not None:
                entry["counterexample"] = c.counterexample
            if include_timing:
                entry["seconds"] = round(c.seconds, 3)
            out_checks.append(entry)
        return {
            "suite": self.suite,
            "options": {
                "max_n": self.options.max_n,
                "max_t": self.options.max_t,
                "seed": self.options.seed,
            },
            "checks": out_checks,
            "passed": self.passed,
        }


# ---------------------------------------------------------------------------
# Corpora


def corpus_nus(max_ell: int, seed: int, n_random: int = RANDOM_NU_COUNT) -> list[LatticePath]:
    """Structured families plus seeded random base paths, deduplicated."""
    texts: list[str] = []
    n = 1
    while 2 * n <= max_ell:
        texts.append("NE" * n)
        n += 1
    n = 1
    while 2 * n - 1 <= max_ell:
        texts.append("E" + "NE" * (n - 1))
        n += 1
    rng = random.Random(seed)
    for _ in range(n_random):
        ell = rng.randint(1, max_ell)
        texts.append("".join(rng.choice("NE") for _ in range(ell)))
    seen = set()
    out = []
    for t in texts:
        if t not in seen:
            seen.add(t)
            out.append(paths.parse_path(t))
    return out


def _componentwise_leq_matrix(V):
    """Bool matrix with [i, j] = V[i] <= V[j] in every column."""
    import numpy as np

    out = np.ones((V.shape[0], V.shape[0]), dtype=bool)
    for c in range(V.shape[1]):
        out &= V[:, None, c] <= V[None, :, c]
    return out


def _check_one_bijection(nu_text: str) -> dict | None:
    """Bijection + order isomorphism + meet coherence for one base path."""
    import numpy as np

    ctx, mus, vecs, V, O = brackets._lattice_tables(nu_text)
    m = len(mus)

    if sorted(map(tuple, brackets._vector_rows(ctx).tolist())) != sorted(vecs):
        return {"nu": nu_text, "failure": "path_to_vector image differs from enumerate_vectors"}
    if len(set(vecs)) != m:
        return {"nu": nu_text, "failure": "path_to_vector is not injective"}
    for mu, v in zip(mus, vecs):
        back = brackets.vector_to_path(BracketVector(v, ctx))
        if back != mu:
            return {"nu": nu_text, "failure": "vector_to_path does not invert", "path": mu.steps}

    vec_leq = _componentwise_leq_matrix(V)
    if not np.array_equal(vec_leq, O):
        i, j = map(int, next(zip(*np.nonzero(vec_leq != O))))
        return {
            "nu": nu_text,
            "failure": "order disagreement",
            "pair": [list(vecs[i]), list(vecs[j])],
            "componentwise": bool(vec_leq[i, j]),
            "cover_closure": bool(O[i, j]),
        }

    # componentwise-min closure via int64 keys over the free columns: the
    # fixed columns must hold their heights, so they add nothing to a key
    fixed = list(ctx.fixed_positions)
    off = V[:, fixed] != np.arange(ctx.n_nu + 1)
    if off.any():
        i, k = map(int, next(zip(*np.nonzero(off))))
        return {
            "nu": nu_text,
            "failure": "fixed column off its height",
            "element": V[i].tolist(),
            "column": fixed[k],
        }
    free_cols = np.delete(V, fixed, axis=1).T
    base = ctx.n_nu + 1
    brackets._check_key_bound(base, len(free_cols), f"the termwise-min check over {nu_text}")
    sorted_keys = np.sort(brackets._mixed_radix_keys(free_cols, base, m))
    # a comparable pair's min is one of the pair, so only incomparable pairs
    # (a < b, row-major: the first failure is the one an all-pairs scan finds)
    incomparable = ~(vec_leq | vec_leq.T)
    rows = max(1, (1 << 20) // m)
    for start in range(0, m, rows):
        a, b = np.nonzero(np.triu(incomparable[start : start + rows], start + 1))
        a += start
        mins = (np.minimum(c[a], c[b]) for c in free_cols)  # min(V_a, V_b), column by column
        key = brackets._mixed_radix_keys(mins, base, len(a))
        pos = np.minimum(np.searchsorted(sorted_keys, key), m - 1)
        found = sorted_keys[pos] == key
        if not found.all():
            bad = int(np.argmin(found))
            return {
                "nu": nu_text,
                "failure": "termwise min left the vector set",
                "pair": [V[a[bad]].tolist(), V[b[bad]].tolist()],
            }
    return None


# ---------------------------------------------------------------------------
# Individual checks.  Each returns (passed, counterexample, params).

CheckOutcome = tuple[bool, dict | None, dict]


def check_order_isomorphism(opts: VerifyOptions) -> CheckOutcome:
    max_ell = opts.n(BIJECTION_MAX_ELL)
    params = {"max_ell": max_ell, "random_paths": RANDOM_NU_COUNT, "seed": opts.seed}
    corpus = corpus_nus(max_ell, opts.seed)
    for nu in corpus:  # refuse an oversized lattice before building any table
        brackets._order_matrix_guard(NuContext.from_text(nu.steps))
    for nu in corpus:
        bad = _check_one_bijection(nu.steps)
        if bad:
            return False, bad, params
    return True, None, params


def check_pop_oracle(opts: VerifyOptions) -> CheckOutcome:
    max_ell = opts.n(ORACLE_MAX_ELL)
    params = {"max_ell": max_ell, "random_paths": RANDOM_NU_COUNT, "seed": opts.seed}
    for nu in corpus_nus(max_ell, opts.seed):
        ctx = NuContext.from_text(nu.steps)
        for mu in paths.enumerate_tam(ctx, force=True):
            via_covers = pop.pop_generic(mu, ctx)
            via_vector = brackets.vector_to_path(pop.pop_vector(brackets.path_to_vector(mu, ctx)))
            if via_covers != via_vector:
                return (
                    False,
                    {"nu": nu.steps, "path": mu.steps, "meet_of_covers": via_covers.steps,
                     "entrywise_formula": via_vector.steps},
                    params,
                )
    return True, None, params


def check_pop_entry_lower_bound(opts: VerifyOptions) -> CheckOutcome:
    max_ell = opts.n(ORACLE_MAX_ELL)
    params = {"max_ell": max_ell, "random_paths": RANDOM_NU_COUNT, "seed": opts.seed}
    for nu in corpus_nus(max_ell, opts.seed):
        ctx = NuContext.from_text(nu.steps)
        fixed = ctx.fixed_positions
        for v in brackets.enumerate_vectors(ctx, force=True):
            popped = pop.pop_vector(v).entries
            for k in range(ctx.n_nu + 1):
                left = fixed[k - 1] if k > 0 else -1
                for i in range(left + 1, fixed[k]):
                    if popped[i] < v.entries[i + 1]:
                        return (
                            False,
                            {"nu": nu.steps, "vector": list(v.entries), "index": i},
                            params,
                        )
    return True, None, params


def check_down_cover_candidates(opts: VerifyOptions) -> CheckOutcome:
    max_ell = opts.n(ORACLE_MAX_ELL)
    params = {"max_ell": max_ell, "random_paths": RANDOM_NU_COUNT, "seed": opts.seed}
    for nu in corpus_nus(max_ell, opts.seed):
        ctx = NuContext.from_text(nu.steps)
        for mu in paths.enumerate_tam(ctx, force=True):
            v = brackets.path_to_vector(mu, ctx)
            from_paths = {
                brackets.path_to_vector(lower, ctx).entries
                for lower in paths.covers_down(mu, ctx)
            }
            from_entries = {c.entries for c in pop.down_cover_candidates(v)}
            if from_paths != from_entries:
                return (
                    False,
                    {"nu": nu.steps, "path": mu.steps,
                     "covers_down": sorted(map(list, from_paths)),
                     "candidates": sorted(map(list, from_entries))},
                    params,
                )
    return True, None, params


def check_census_matches_series(opts: VerifyOptions) -> CheckOutcome:
    max_n = opts.n(CENSUS_MAX_N)
    max_t = opts.t(CENSUS_MAX_T)
    params = {"max_n": max_n, "max_t": max_t}
    for t in range(1, max_t + 1):
        h = series.h_series(t, max_n)
        for n in range(1, max_n + 1):
            counted = pop.count_t_sortable(n, t)
            if counted != h[n]:
                return False, {"n": n, "t": t, "census": counted, "series": h[n]}, params
    return True, None, params


def check_irreducible_census_matches_series(opts: VerifyOptions) -> CheckOutcome:
    max_n = opts.n(STRUCTURE_MAX_N)
    max_t = opts.t(STRUCTURE_MAX_T)
    params = {"max_n": max_n, "max_t": max_t}
    for t in range(1, max_t + 1):
        g = series.g_series(t, max_n)
        for n in range(1, max_n + 1):
            census = pop._census(n)
            counted = sum(
                1
                for e, time_ in zip(census.entries, census.times.tolist())
                if e[0] == e[-1] and time_ <= t
            )
            if counted != g[n]:
                return False, {"n": n, "t": t, "census": counted, "series": g[n]}, params
    return True, None, params


def check_series_recurrence_vs_rational(opts: VerifyOptions) -> CheckOutcome:
    max_t = opts.t(SERIES_MAX_T)
    params = {"max_t": max_t, "order": SERIES_ORDER}
    for t in range(1, max_t + 1):
        if series.h_series(t, SERIES_ORDER) != series.h_series_rational(t, SERIES_ORDER):
            return False, {"t": t, "series": "h"}, params
        if series.g_series(t, SERIES_ORDER) != series.g_series_rational(t, SERIES_ORDER):
            return False, {"t": t, "series": "g"}, params
    return True, None, params


def check_series_geometric_identity(opts: VerifyOptions) -> CheckOutcome:
    """1 + H_t = 1 / (1 - G_t)."""
    max_t = opts.t(SERIES_MAX_T)
    params = {"max_t": max_t, "order": SERIES_ORDER}
    one = series.IntSeries.one(SERIES_ORDER)
    for t in range(1, max_t + 1):
        lhs = one + series.h_series(t, SERIES_ORDER)
        rhs = series.reciprocal_one_minus(series.g_series(t, SERIES_ORDER))
        if lhs != rhs:
            return False, {"t": t}, params
    return True, None, params


def check_series_irreducible_recursion(opts: VerifyOptions) -> CheckOutcome:
    """G_t = z * ((1 + sum_{n<t} C_n z^n) G_t + 1)."""
    max_t = opts.t(SERIES_MAX_T)
    params = {"max_t": max_t, "order": SERIES_ORDER}
    one = series.IntSeries.one(SERIES_ORDER)
    z = series.IntSeries.z(SERIES_ORDER)
    for t in range(1, max_t + 1):
        g = series.g_series(t, SERIES_ORDER)
        h_small = series.IntSeries.from_coeffs(
            [0] + [series.catalan(n) for n in range(1, t)], SERIES_ORDER
        )
        rhs = z * ((one + h_small) * g + one)
        if g != rhs:
            return False, {"t": t}, params
    return True, None, params


def check_decomposition_round_trip(opts: VerifyOptions) -> CheckOutcome:
    max_n = opts.n(STRUCTURE_MAX_N)
    params = {"max_n": max_n}
    for n in range(1, max_n + 1):
        census = pop._census(n)
        for e in census.entries:
            v = BracketVector(e, census.ctx)
            parts = pop.decompose_irreducible(v)
            if any(p.entries[0] != p.entries[-1] for p in parts):
                return False, {"n": n, "vector": list(e), "failure": "component not irreducible"}, params
            if pop.concat_irreducible(parts).entries != e:
                return False, {"n": n, "vector": list(e), "failure": "round trip"}, params
    return True, None, params


def check_decomposition_sortability(opts: VerifyOptions) -> CheckOutcome:
    """Sortability time equals the max over irreducible components."""
    max_n = opts.n(STRUCTURE_MAX_N)
    params = {"max_n": max_n}
    for n in range(1, max_n + 1):
        census = pop._census(n)
        for e, time_ in zip(census.entries, census.times.tolist()):
            parts = pop.decompose_irreducible(BracketVector(e, census.ctx))
            expected = max(pop.sortability_time(p) for p in parts)
            if time_ != expected:
                return (
                    False,
                    {"n": n, "vector": list(e), "time": time_, "component_max": expected},
                    params,
                )
    return True, None, params


def check_all_sort_within_n(opts: VerifyOptions) -> CheckOutcome:
    """Everything in Tam_n is n-sortable."""
    max_n = opts.n(STRUCTURE_MAX_N)
    params = {"max_n": max_n}
    for n in range(1, max_n + 1):
        total = series.catalan(n)
        counted = pop.count_t_sortable(n, n)
        if counted != total:
            return False, {"n": n, "t": n, "count": counted, "catalan": total}, params
    return True, None, params


def check_hash_validity_monotonicity(opts: VerifyOptions) -> CheckOutcome:
    max_n = opts.n(STRUCTURE_MAX_N)
    params = {"max_n": max_n}
    for n in range(2, max_n + 1):
        census = pop._census(n)
        for e, time_ in zip(census.entries, census.times.tolist()):
            reduced = pop.hash_map(BracketVector(e, census.ctx))
            if not brackets.is_valid(reduced.entries, reduced.ctx):
                return False, {"n": n, "vector": list(e), "failure": "hash not valid"}, params
            if pop.sortability_time(reduced) > time_:
                return (
                    False,
                    {"n": n, "vector": list(e), "failure": "hash increased sortability time"},
                    params,
                )
    return True, None, params


def check_hash_bijection(opts: VerifyOptions) -> CheckOutcome:
    max_n = opts.n(HASH_BIJECTION_MAX_N)
    params = {"max_n": max_n}
    for n in range(2, max_n + 1):
        census = pop._census(n)
        images = [
            pop.hash_map(BracketVector(e, census.ctx)).entries
            for e in census.entries
            if e[0] == e[-1]
        ]
        target = sorted(pop._census(n - 1).entries)
        if sorted(images) != target or len(set(images)) != len(images):
            return False, {"n": n, "failure": "hash not bijective on irreducibles"}, params
    return True, None, params


def check_hash_sortability_threshold(opts: VerifyOptions) -> CheckOutcome:
    """time(v) = max(time(v#), b_0 - x_r + 1) for irreducible v, where 2 x_r
    is the length of the last irreducible component of v#."""
    max_n = opts.n(STRUCTURE_MAX_N)
    params = {"max_n": max_n}
    for n in range(2, max_n + 1):
        census = pop._census(n)
        for e, time_ in zip(census.entries, census.times.tolist()):
            if e[0] != e[-1]:
                continue
            reduced = pop.hash_map(BracketVector(e, census.ctx))
            parts = pop.decompose_irreducible(reduced)
            x_r = len(parts[-1].entries) // 2
            expected = max(pop.sortability_time(reduced), e[0] - x_r + 1)
            if time_ != expected:
                return (
                    False,
                    {"n": n, "vector": list(e), "time": time_, "predicted": expected},
                    params,
                )
    return True, None, params


def check_perm_isomorphism_covers(opts: VerifyOptions) -> CheckOutcome:
    """tamari_perm_bijection checks that it is an order isomorphism; run it."""
    max_n = opts.n(CONGRUENCE_MAX_N)
    params = {"max_n": max_n}
    for n in range(1, max_n + 1):
        mapping = perms.tamari_perm_bijection(n)
        if len(mapping) != series.catalan(n):
            return False, {"n": n, "failure": "wrong domain size"}, params
    return True, None, params


def check_pop_commutes(opts: VerifyOptions) -> CheckOutcome:
    max_n = opts.n(CONGRUENCE_MAX_N)
    params = {"max_n": max_n}
    for n in range(1, max_n + 1):
        mapping = perms.tamari_perm_bijection(n)
        for p, v in mapping.items():
            lhs = mapping[perms.pop_tamari_perm(p)]
            rhs = pop.pop_vector(v)
            if lhs != rhs:
                return (
                    False,
                    {"n": n, "perm": str(p), "via_perms": list(lhs.entries),
                     "via_vectors": list(rhs.entries)},
                    params,
                )
    return True, None, params


def check_pidown_confluence(opts: VerifyOptions) -> CheckOutcome:
    max_n = opts.n(CONFLUENCE_MAX_N)
    params = {"max_n": max_n, "trials_per_n": CONFLUENCE_TRIALS, "seed": opts.seed}
    rng = random.Random(opts.seed)
    for n in range(2, max_n + 1):
        for _ in range(CONFLUENCE_TRIALS):
            word = list(range(1, n + 1))
            rng.shuffle(word)
            p = perms.Permutation(tuple(word))
            expected = perms.pi_down(p)
            got = perms.pi_down_random(p, rng)
            if got != expected:
                return (
                    False,
                    {"n": n, "perm": str(p), "leftmost": str(expected), "random": str(got)},
                    params,
                )
    return True, None, params


def check_pidown_projects(opts: VerifyOptions) -> CheckOutcome:
    """pi_down lands on a 312-avoider and fixes 312-avoiders."""
    max_n = opts.n(CONFLUENCE_MAX_N)
    params = {"max_n": max_n}
    import itertools

    for n in range(1, max_n + 1):
        for w in itertools.permutations(range(1, n + 1)):
            p = perms.Permutation(w)
            q = perms.pi_down(p)
            if not perms.avoids(q, "312"):
                return False, {"n": n, "perm": str(p), "pi_down": str(q)}, params
            if perms.avoids(p, "312") and q != p:
                return False, {"n": n, "perm": str(p), "failure": "moved a 312-avoider"}, params
    return True, None, params


def check_ascents_count_up_covers(opts: VerifyOptions) -> CheckOutcome:
    max_n = opts.n(CONGRUENCE_MAX_N)
    params = {"max_n": max_n}
    for n in range(1, max_n + 1):
        mapping = perms.tamari_perm_bijection(n)
        for p, v in mapping.items():
            ascents = len(perms.perm_stats(p).ascent_positions)
            if ascents != pop.up_cover_count(v):
                return (
                    False,
                    {"n": n, "perm": str(p), "ascents": ascents,
                     "up_covers": pop.up_cover_count(v)},
                    params,
                )
    return True, None, params


def check_characterization(opts: VerifyOptions) -> CheckOutcome:
    max_n = opts.n(CHARACTERIZATION_MAX_N)
    params = {"max_n": max_n}
    for n in range(1, max_n + 1):
        image = {perms.pop_tamari_perm(p) for p in perms.enumerate_av312(n)}
        described = perms.image_by_characterization(n)
        if image != described:
            extra = sorted(str(p) for p in image - described)
            missing = sorted(str(p) for p in described - image)
            return False, {"n": n, "extra": extra[:5], "missing": missing[:5]}, params
        if len(image) != series.motzkin(n - 1):
            return False, {"n": n, "size": len(image), "motzkin": series.motzkin(n - 1)}, params
    return True, None, params


def check_pop_image_motzkin(opts: VerifyOptions) -> CheckOutcome:
    max_n = opts.n(CENSUS_MAX_N)
    params = {"max_n": max_n}
    for n in range(1, max_n + 1):
        size = len(pop.pop_image(n))
        expected = series.motzkin(n - 1)
        if size != expected:
            return False, {"n": n, "size": size, "motzkin": expected}, params
    return True, None, params


def check_qpolynomial_formula(opts: VerifyOptions) -> CheckOutcome:
    """Coefficient of q^(n-k) in the Tam_{n+1} polynomial is a055151(n, k)."""
    max_n = opts.n(QPOLY_MAX_N)
    params = {"max_n": max_n}
    for n in range(0, max_n + 1):
        coeffs = pop.pop_polynomial(n + 1).coeffs
        expected = {}
        for k in range(0, n // 2 + 1):
            val = series.a055151(n, k)
            if val:
                expected[n - k] = val
        if coeffs != expected:
            return False, {"n": n, "histogram": coeffs, "formula": expected}, params
    return True, None, params


def check_qpolynomial_permutations(opts: VerifyOptions) -> CheckOutcome:
    """Ascent histogram over the permutation Pop image matches the polynomial."""
    max_n = opts.n(QPOLY_MAX_N)
    params = {"max_n": max_n}
    for n in range(1, max_n + 1):
        image = {perms.pop_tamari_perm(p) for p in perms.enumerate_av312(n)}
        hist: dict[int, int] = {}
        for p in image:
            a = len(perms.perm_stats(p).ascent_positions)
            hist[a] = hist.get(a, 0) + 1
        if hist != pop.pop_polynomial(n).coeffs:
            return (
                False,
                {"n": n, "ascent_histogram": hist, "qpoly": pop.pop_polynomial(n).coeffs},
                params,
            )
    return True, None, params


def check_rmap_bijection(opts: VerifyOptions) -> CheckOutcome:
    """r maps the Pop image in S_{n+1} onto the 231-avoiders with equal
    descent and peak counts, matching k descents to n-k up-covers."""
    max_n = opts.n(CONGRUENCE_MAX_N)
    params = {"max_n": max_n}
    for n in range(1, max_n + 1):
        m = n + 1
        image = {perms.pop_tamari_perm(p) for p in perms.enumerate_av312(m)}
        mapped = {perms.r_map(p) for p in image}
        if len(mapped) != len(image):
            return False, {"n": n, "failure": "r not injective on the image"}, params
        target = {perms.Permutation(w) for w in perms._equal_descents_peaks_231(m)}
        if mapped != target:
            return False, {"n": n, "failure": "r image mismatch"}, params
        for p in image:
            q = perms.r_map(p)
            st = perms.perm_stats(q)
            k = len(st.descent_positions)
            if len(st.peak_positions) != k or len(perms.perm_stats(p).ascent_positions) != n - k:
                return False, {"n": n, "perm": str(p), "failure": "descent/peak bookkeeping"}, params
    return True, None, params


def check_a055151_row_sums(opts: VerifyOptions) -> CheckOutcome:
    max_n = opts.n(12)
    params = {"max_n": max_n}
    for n in range(0, max_n + 1):
        total = sum(series.a055151(n, k) for k in range(0, n // 2 + 1))
        if total != series.motzkin(n):
            return False, {"n": n, "row_sum": total, "motzkin": series.motzkin(n)}, params
    return True, None, params


def check_descent_peak_formula(opts: VerifyOptions) -> CheckOutcome:
    max_n = opts.n(PETERSEN_MAX_N)
    params = {"max_n": max_n}
    for n in range(0, max_n + 1):
        for k in range(0, n // 2 + 1):
            counted = perms.count_231_equal_descents_peaks(n, k)
            expected = series.a055151(n, k)
            if counted != expected:
                return False, {"n": n, "k": k, "count": counted, "formula": expected}, params
    return True, None, params


# ---------------------------------------------------------------------------
# Suite registry

_SUITES: dict[str, dict[str, Callable[[VerifyOptions], CheckOutcome]]] = {
    "bijection": {
        "order-isomorphism-and-meets": check_order_isomorphism,
    },
    "pop-oracle": {
        "pop-meet-oracle-equivalence": check_pop_oracle,
        "pop-entry-lower-bound": check_pop_entry_lower_bound,
        "down-cover-candidates-match": check_down_cover_candidates,
    },
    "decomposition": {
        "decomposition-round-trip": check_decomposition_round_trip,
        "decomposition-sortability": check_decomposition_sortability,
        "all-elements-sort-within-n": check_all_sort_within_n,
    },
    "hash": {
        "hash-validity-and-monotonicity": check_hash_validity_monotonicity,
        "hash-bijection-on-irreducibles": check_hash_bijection,
        "hash-sortability-threshold": check_hash_sortability_threshold,
    },
    "theorem-1": {
        "census-matches-series": check_census_matches_series,
        "irreducible-census-matches-series": check_irreducible_census_matches_series,
        "series-recurrence-vs-rational": check_series_recurrence_vs_rational,
        "series-geometric-identity": check_series_geometric_identity,
        "series-irreducible-recursion": check_series_irreducible_recursion,
    },
    "congruence": {
        "perm-vector-isomorphism-covers": check_perm_isomorphism_covers,
        "pop-commutes-with-isomorphism": check_pop_commutes,
        "pidown-confluence": check_pidown_confluence,
        "pidown-projects-to-312-avoiders": check_pidown_projects,
        "ascents-count-up-covers": check_ascents_count_up_covers,
    },
    "characterization": {
        "pop-image-equals-characterization": check_characterization,
    },
    "theorem-2": {
        "pop-image-size-is-motzkin": check_pop_image_motzkin,
        "qpolynomial-matches-formula": check_qpolynomial_formula,
        "qpolynomial-matches-permutation-ascents": check_qpolynomial_permutations,
        "rmap-bijection-descents-peaks": check_rmap_bijection,
        "a055151-row-sums-motzkin": check_a055151_row_sums,
    },
    "petersen": {
        "descent-peak-counts-match-formula": check_descent_peak_formula,
    },
}


def suite_names() -> list[str]:
    return sorted(_SUITES) + ["all"]


def run_suite(suite: str, opts: VerifyOptions, log=None) -> VerificationReport:
    """Run a named suite (or "all"); checks execute in sorted name order."""
    if suite == "all":
        checks: dict[str, Callable[[VerifyOptions], CheckOutcome]] = {}
        for table in _SUITES.values():
            checks.update(table)
    elif suite in _SUITES:
        checks = dict(_SUITES[suite])
    else:
        raise KeyError(f"unknown suite {suite!r}; choose from {suite_names()}")
    report = VerificationReport(suite=suite, options=opts)
    for name in sorted(checks):
        start = time.perf_counter()
        try:
            passed, counterexample, params = checks[name](opts)
        except paths.BoundExceeded:  # a refused size is a usage error, not a failure
            raise
        except Exception as exc:  # a crash is a failed check, not a crashed run
            passed, counterexample, params = False, {"error": repr(exc)}, {}
        elapsed = time.perf_counter() - start
        report.checks.append(CheckResult(name, passed, params, counterexample, elapsed))
        if log is not None:
            status = "pass" if passed else "FAIL"
            print(f"{name}: {status} ({elapsed:.2f}s)", file=log)
    return report
