"""Named verification suites behind both the CLI and the acceptance tests.

Every check is a case generator registered by
`_check(suite, name, **params)`, which declares each parameter the check
runs at with its default, for example `max_n=11, max_t=5` or
`order=SERIES_ORDER`.  The decorator alone resolves them: `max_n` and
`max_ell` take VerifyOptions.max_n when it is set, `max_t` takes max_t,
`seed` takes seed, and every other parameter is fixed.  It passes the
resolved values to the generator as arguments and reports exactly those
values as the check's params, so the report cannot disagree with the run.
The cap, a function of all of the resolved params, is the only place a
check refuses a size, by raising BoundExceeded.  A check that names no cap
is held to the bounds of the parameters it declares: max_n to the element
bound read as n (paths._check_n), max_t to series.MAX_ORDER.  A named cap
replaces that default; it bounds more than the parameters themselves, such
as an order matrix or the scan of S_n.  Because the registry knows each
check's options and its cap, run_suite refuses an unread max_n or max_t,
or params past a cap, before any check runs.
The generator yields one verdict per case it examines: a small
counterexample dict when the case fails, a falsy value when it holds.  The
decorator turns it into a function of VerifyOptions returning
(passed, counterexample, params) and counts the verdicts.  The first
counterexample ends the check, and a check that yields no verdict at all
fails with {"failure": "no cases examined"}: a check that examined nothing
has shown nothing.  Checks are pure and deterministic for a fixed seed; a
suite runs its checks in sorted name order so the assembled report is
reproducible byte for byte (wall times and case counts are kept on the
result objects and in stderr diagnostics, never in the stdout JSON).

The centerpiece equivalence used by the bijection suite: for a bijection
phi from a finite poset P (order = reflexive-transitive closure of the
Hasse diagram) into integer vectors,

    (i)  u <= v in P  iff  phi(u) <= phi(v) componentwise, and
    (ii) the image of phi is closed under componentwise min,

together imply that P is a meet-semilattice and that
phi(glb(u, v)) = min(phi(u), phi(v)) for every pair: writing
w = phi^-1(min(phi u, phi v)), (i) gives w <= u and w <= v, and any common
lower bound z has phi(z) <= min(phi u, phi v) = phi(w), hence z <= w.  So
the suite computes no glbs.  It checks (i) with brackets._first_order_difference,
which compares the vectors' packed componentwise down-sets, a block of rows
at a time, with the cover-closure rows of brackets._lattice_tables; perms runs
the same kernel on inversion indicators for the weak order.  It checks (ii)
only against the rows that lack a witness.

Witnesses.  A witness for b in the vector set S is a pair c1, c2 in S, both
different from b, with min(c1, c2) = b, checked arithmetically; the
candidates tried are two upper covers of b from the path covers.  Lemma: if
every b in S either has a witness or has min(x, b) in S for every x in S,
then S is closed under min.  Proof by downward induction on the entry sum:
a witnessed b lies strictly below c1 and c2, so
min(x, b) = min(min(x, c1), c2) is in S by the claim for c1 and then for
c2.  A wrong candidate only leaves its b unwitnessed, so the verdict never
depends on the covers being right.  In a lattice every element with two
upper covers is their meet, so the rows checked against all others are the
meet-irreducibles and the top: C(n, 2) + 1 of them in Tam_n.  Only the pairs
incomparable in (i)'s order are looked up (the min of a comparable pair is
one of the two), by integer keys over the columns that are not fixed to a
height, and the first failing pair looked up is reported, row-major over
a < b.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterator

from . import brackets, paths, perms, pop, series
from .brackets import BracketVector
from .paths import NuContext, _check_n

__all__ = [
    "CheckResult",
    "VerificationReport",
    "VerifyOptions",
    "run_suite",
    "suite_names",
]

# Default bounds shared by several checks; a bound only one check reads is
# written in its registration.
ORACLE_MAX_ELL = 12
STRUCTURE_MAX_N = 8
SERIES_MAX_T = 6
SERIES_ORDER = 25
CENSUS_MAX_N = 11
QPOLY_MAX_N = 9
CONGRUENCE_MAX_N = 8
CONFLUENCE_MAX_N = 7
RANDOM_NU_COUNT = 50


@dataclass
class VerifyOptions:
    """Effective knobs: max_n / max_t override per-check defaults when set.

    max_n bounds the path length ell for the bijection and pop-oracle suites
    and the size n everywhere else; max_t bounds the step count t.
    """

    max_n: int | None = None
    max_t: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        for name, value in (("max_n", self.max_n), ("max_t", self.max_t)):
            if value is not None and value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")


@dataclass
class CheckResult:
    name: str
    passed: bool
    params: dict
    counterexample: dict | None
    seconds: float
    cases: int


@dataclass
class VerificationReport:
    suite: str
    options: VerifyOptions
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        out_checks = []
        for c in self.checks:
            entry: dict = {
                "name": c.name,
                "status": "pass" if c.passed else "fail",
                "params": c.params,
            }
            if c.counterexample is not None:
                entry["counterexample"] = c.counterexample
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


def corpus_nus(max_ell: int, random_paths: int, seed: int) -> list[str]:
    """Structured families plus seeded random base paths, as deduplicated step texts."""
    texts = ["NE" * n for n in range(1, max_ell // 2 + 1)]
    texts += ["E" + "NE" * n for n in range((max_ell + 1) // 2)]
    rng = random.Random(seed)
    for _ in range(random_paths):
        ell = rng.randint(1, max_ell)
        texts.append("".join(rng.choice("NE") for _ in range(ell)))
    return list(dict.fromkeys(texts))


def _min_closure_failure(V, down, candidates, over: str):
    """Among the pairs looked up, the first (a, b) with a < b, row-major,
    whose componentwise min is not a row of V; None when V is closed under
    componentwise min.

    V holds distinct rows, down their packed componentwise down-sets and
    candidates one pair (c1, c2) of rows per row b; over names V in the
    BoundExceeded raised when its keys would not fit int64.  b is witnessed when
    c1 != b, c2 != b and min(V[c1], V[c2]) == V[b]; only the unwitnessed
    rows are checked against every row incomparable to them (the min of a
    comparable pair is one of the pair).  See the module docstring for why
    that decides min-closure whatever the candidates are.
    """
    import numpy as np

    m = len(V)
    c1, c2 = candidates.T
    b = np.arange(m)
    witnessed = (c1 != b) & (c2 != b) & (np.minimum(V[c1], V[c2]) == V).all(axis=1)
    unwitnessed = np.flatnonzero(~witnessed)
    base = int(V.max(initial=0)) + 1
    brackets._check_key_bound(base, V.shape[1], f"the termwise-min check over {over}")
    cols = V.T
    sorted_keys = np.sort(brackets._mixed_radix_keys(cols, base, m))
    first = None  # a * m + b of the first failing pair so far
    chunk = max(1, (1 << 20) // m)
    for start in range(0, len(unwitnessed), chunk):
        rows = unwitnessed[start : start + chunk]
        k, x = np.nonzero(brackets._incomparable(down, rows))
        lo, hi = np.minimum(rows[k], x), np.maximum(rows[k], x)
        mins = (np.minimum(c[lo], c[hi]) for c in cols)  # min(V_lo, V_hi), column by column
        key = brackets._mixed_radix_keys(mins, base, len(lo))
        pos = np.minimum(np.searchsorted(sorted_keys, key), m - 1)
        missing = sorted_keys[pos] != key
        if missing.any():
            pair = int((lo * m + hi)[missing].min())
            first = pair if first is None else min(first, pair)
    return None if first is None else divmod(first, m)


def _first_upper_covers(covers, m: int):
    """Per row b, the first two rows that cover b, or b itself where b has fewer."""
    import numpy as np

    upper, lower = covers[np.argsort(covers[:, 1], kind="stable")].T
    out = np.repeat(np.arange(m)[:, None], 2, axis=1)
    start = np.searchsorted(lower, np.arange(m))
    count = np.searchsorted(lower, np.arange(m), side="right") - start
    for k in range(2):
        has = count > k
        out[has, k] = upper[start[has] + k]
    return out


def _check_one_bijection(nu_text: str) -> dict | None:
    """Bijection + order isomorphism + meet coherence for one base path."""
    import numpy as np

    ctx = NuContext.from_text(nu_text)
    mus, V, down, covers = brackets._lattice_tables(ctx)
    m = len(mus)

    rows = brackets._vector_rows(ctx)  # V's free columns; the fixed ones are checked below
    rows = rows[np.lexsort((*rows.T[::-1], rows.sum(axis=1, dtype=np.int64)))]  # V's order
    if not np.array_equal(rows, V[:, ctx.free_positions]):
        return {"nu": nu_text, "failure": "path_to_vector image differs from enumerate_vectors"}
    if (V[1:] == V[:-1]).all(axis=1).any():  # V is sorted, so equal rows are adjacent
        return {"nu": nu_text, "failure": "path_to_vector is not injective"}
    wrong = np.flatnonzero((brackets._decode_rows(V) != mus.east).any(axis=1))
    if len(wrong):
        path = mus[int(wrong[0])].steps
        return {"nu": nu_text, "failure": "vector_to_path does not invert", "path": path}

    pair = brackets._first_order_difference(V, down)
    if pair is not None:
        i, j = pair
        componentwise = bool((V[i] <= V[j]).all())
        return {
            "nu": nu_text,
            "failure": "order disagreement",
            "pair": [V[i].tolist(), V[j].tolist()],
            "componentwise": componentwise,
            "cover_closure": not componentwise,
        }

    # the fixed columns must hold their heights, so they add nothing to a min
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
    candidates = _first_upper_covers(covers, m)
    pair = _min_closure_failure(V[:, ctx.free_positions], down, candidates, nu_text)
    if pair is not None:
        return {
            "nu": nu_text,
            "failure": "termwise min left the vector set",
            "pair": [V[pair[0]].tolist(), V[pair[1]].tolist()],
        }
    return None


# ---------------------------------------------------------------------------
# Individual checks, registered by suite

CheckOutcome = tuple[bool, dict | None, dict]

_SUITES: dict[str, dict[str, Callable[[VerifyOptions], CheckOutcome]]] = {}

# The VerifyOptions field each bound parameter takes when that field is set
_OPTION_OF = {"max_n": "max_n", "max_ell": "max_n", "max_t": "max_t", "seed": "seed"}


def _check(suite: str, name: str, cap: Callable[..., None] | None = None, **declared):
    """Register a case generator as check `name` of `suite`, with every
    parameter it runs at and its default.  The cap is called with every
    resolved parameter; a check that names none is held to its parameters'
    bounds by _bounds, and a named cap replaces that default (see the module
    docstring).  Its `options` names the options it reads, `resolve` its
    params, refused past the cap, and `counted` the outcome and the number
    of verdicts examined."""
    options = frozenset(_OPTION_OF[key] for key in declared if key in _OPTION_OF)

    def register(cases: Callable[..., Iterator]) -> Callable[[VerifyOptions], CheckOutcome]:
        def resolve(opts: VerifyOptions) -> dict:
            params = {}
            for key, default in declared.items():
                value = getattr(opts, _OPTION_OF[key]) if key in _OPTION_OF else None
                params[key] = default if value is None else value
            (cap or _bounds)(**params)
            return params

        def counted(opts: VerifyOptions) -> tuple[CheckOutcome, int]:
            params = resolve(opts)
            outcome = False, {"failure": "no cases examined"}, params
            examined = 0
            for bad in cases(**params):
                examined += 1
                if bad:
                    return (False, bad, params), examined
                outcome = True, None, params
            return outcome, examined

        @functools.wraps(cases)
        def check(opts: VerifyOptions) -> CheckOutcome:
            return counted(opts)[0]

        check.counted = counted
        check.options = options
        check.resolve = resolve
        _SUITES.setdefault(suite, {})[name] = check
        return check

    return register


def _bounds(max_n: int | None = None, max_t: int | None = None, **_) -> None:
    """The cap of a check that names none: the element bound, read as n, on
    max_n, and the series' order bound on the step count max_t."""
    if max_n is not None:
        _check_n(max_n)
    if max_t is not None and max_t > series.MAX_ORDER:
        raise paths.BoundExceeded(f"max_t={max_t} exceeds the bound {series.MAX_ORDER}")


def _scan_cap(max_n: int) -> None:
    """The one scan of all of S_n, held to the element bound: n! <= MAX_ELEMENTS."""
    largest = next(k for k in itertools.count() if math.factorial(k + 1) > paths.MAX_ELEMENTS)
    if max_n > largest:
        raise paths.BoundExceeded(f"n={max_n} exceeds the bound {largest} of the scan of S_n")


def _n_plus_one_cap(max_n: int) -> None:
    """The element bound, read as n, of a check that reads Tam_(n+1)."""
    _check_n(max_n, shift=1)


def _bijection_cap(max_n: int) -> None:
    """What tamari_perm_bijection(max_n) refuses: the element bound, then
    the order matrix of E(NE)^(max_n - 1)."""
    _check_n(max_n)
    brackets._order_matrix_guard(pop._east_staircase_ctx(max_n))


def _census_rows(first_n: int, max_n: int):
    """(n, vector, sortability time) for every element of Tam_n, first_n <= n <= max_n."""
    for n in range(first_n, max_n + 1):
        census = pop._census(n)
        rows = brackets._whole_rows(census.rows, census.ctx).tolist()
        for e, time_ in zip(rows, census.times.tolist()):
            yield n, BracketVector(tuple(e), census.ctx), time_


def _corpus(max_ell: int, random_paths: int, seed: int) -> list[NuContext]:
    """The contexts of corpus_nus, built after refusing from max_ell alone
    the staircase (NE)^(max_ell // 2) the corpus always holds."""
    _check_n(max_ell // 2)
    return [NuContext.from_text(nu) for nu in corpus_nus(max_ell, random_paths, seed)]


def _order_matrix_cap(**corpus) -> None:
    """Refuse a corpus lattice whose order matrix would pass its bound."""
    for ctx in _corpus(**corpus):
        brackets._order_matrix_guard(ctx)


def _oracle_cap(max_ell: int, **corpus) -> None:
    """Hold every lattice of the pop-oracle corpus, then the corpus as a
    whole, to the element bound, counted without enumerating."""
    contexts = _corpus(max_ell, **corpus)
    for ctx in contexts:
        paths._check_elements(ctx)
    total = sum(paths._count_tam(ctx) for ctx in contexts)
    if total > paths.MAX_ELEMENTS:
        raise paths.BoundExceeded(
            f"the pop-oracle corpus up to {max_ell} steps has {total} elements, "
            f"more than {paths.MAX_ELEMENTS}"
        )


@functools.lru_cache(maxsize=None)
def _av312_pop_image(n: int):
    """The Pop image of the 312-avoiding permutations of size n, as sorted
    distinct int8 rows, built once for the three checks that read it."""
    return perms._sorted_rows(perms._pop_words(perms._av312_words(n)))


def _word_text(row) -> str:
    """The permutation text of one int8 word row."""
    return str(perms.Permutation(tuple(row.tolist())))


def _first_texts(rows, other) -> list[str]:
    """The first five rows of rows that other lacks, as permutation texts in text order."""
    missing = set(map(tuple, rows.tolist())) - set(map(tuple, other.tolist()))
    return sorted(str(perms.Permutation(w)) for w in missing)[:5]


@_check(
    "bijection", "order-isomorphism-and-meets",
    cap=_order_matrix_cap, max_ell=14, random_paths=RANDOM_NU_COUNT, seed=0,
)
def check_order_isomorphism(max_ell, random_paths, seed):
    for nu in corpus_nus(max_ell, random_paths, seed):
        yield _check_one_bijection(nu)


@_check(
    "pop-oracle", "pop-meet-oracle-equivalence",
    cap=_oracle_cap, max_ell=ORACLE_MAX_ELL, random_paths=RANDOM_NU_COUNT, seed=0,
)
def check_pop_oracle(max_ell, random_paths, seed):
    """_pop_rows equals the meet of every vector with its lower covers'."""
    import numpy as np

    for ctx in _corpus(max_ell, random_paths, seed):
        mus, V, upper, lower = brackets._path_rows(ctx)
        meet = V.copy()
        order = np.argsort(upper, kind="stable")  # each row's covers in one run
        runs = np.flatnonzero(np.diff(upper[order], prepend=-1))
        top = upper[order[runs]]
        meet[top] = np.minimum(meet[top], np.minimum.reduceat(V[lower[order]], runs))
        popped = brackets._whole_rows(pop._pop_rows(V[:, ctx.free_positions], ctx), ctx)
        for r, same in enumerate((meet == popped).all(axis=1).tolist()):
            yield not same and {
                "nu": ctx.nu.steps, "path": mus[r].steps,
                "meet_of_covers": brackets._decode(meet[r].tolist(), ctx).steps,
                "entrywise_formula": brackets._decode(popped[r].tolist(), ctx).steps,
            }


@_check(
    "pop-oracle", "pop-entry-lower-bound",
    cap=_oracle_cap, max_ell=ORACLE_MAX_ELL, random_paths=RANDOM_NU_COUNT, seed=0,
)
def check_pop_entry_lower_bound(max_ell, random_paths, seed):
    import numpy as np

    for ctx in _corpus(max_ell, random_paths, seed):
        free = np.array(ctx.free_positions, dtype=np.intp)  # each below ell, which is fixed
        rows = brackets._vector_rows(ctx)
        whole = brackets._whole_rows(rows, ctx)
        low = pop._pop_rows(rows, ctx) < whole[:, free + 1]
        for r, bad in enumerate(low.any(axis=1).tolist()):
            yield bad and {
                "nu": ctx.nu.steps, "vector": whole[r].tolist(), "index": int(free[low[r].argmax()])
            }


@_check(
    "pop-oracle", "down-cover-candidates-match",
    cap=_oracle_cap, max_ell=ORACLE_MAX_ELL, random_paths=RANDOM_NU_COUNT, seed=0,
)
def check_down_cover_candidates(max_ell, random_paths, seed):
    """The lower covers of each vector are its candidates, one per descent i:
    the vector with entry i lowered to eta_i, entry i of its _pop_rows."""
    import numpy as np

    for ctx in _corpus(max_ell, random_paths, seed):
        mus, V, upper, lower = brackets._path_rows(ctx)
        popped = brackets._whole_rows(pop._pop_rows(V[:, ctx.free_positions], ctx), ctx)
        below, candidate = V[lower], V[upper]
        column = np.argmax(below != candidate, axis=1)  # the one column a cover changes
        candidate[np.arange(len(upper)), column] = popped[upper, column]
        changed = upper[(below != candidate).any(axis=1)]
        del below, candidate  # before the int64 counts, one per entry of V
        hits = np.bincount(upper * V.shape[1] + column, minlength=V.size)  # covers per (row, column)
        descents = np.pad(V[:, :-1] > V[:, 1:], ((0, 0), (0, 1)))
        bad = (hits.reshape(V.shape) != descents).any(axis=1)
        bad[changed] = True
        lowers = np.eye(V.shape[1], dtype=bool)  # row i: the candidate of descent i
        for r, wrong in enumerate(bad.tolist()):
            yield wrong and {
                "nu": ctx.nu.steps, "path": mus[r].steps,
                "covers_down": sorted(V[lower[upper == r]].tolist()),
                "candidates": sorted(np.where(lowers[descents[r]], popped[r], V[r]).tolist()),
            }


@_check("theorem-1", "census-matches-series", max_n=CENSUS_MAX_N, max_t=5)
def check_census_matches_series(max_n, max_t):
    for t in range(1, max_t + 1):
        h = series.h_series(t, max_n)
        for n in range(1, max_n + 1):
            counted = pop.count_t_sortable(n, t)
            yield counted != h[n] and {"n": n, "t": t, "census": counted, "series": h[n]}


@_check("theorem-1", "irreducible-census-matches-series", max_n=STRUCTURE_MAX_N, max_t=4)
def check_irreducible_census_matches_series(max_n, max_t):
    for t in range(1, max_t + 1):
        g = series.g_series(t, max_n)
        for n in range(1, max_n + 1):
            census = pop._census(n)  # irreducible rows: first entry equals the last, n - 1
            counted = int(((census.rows[:, 0] == n - 1) & (census.times <= t)).sum())
            yield counted != g[n] and {"n": n, "t": t, "census": counted, "series": g[n]}


@_check("theorem-1", "series-recurrence-vs-rational", max_t=SERIES_MAX_T, order=SERIES_ORDER)
def check_series_recurrence_vs_rational(max_t, order):
    for t in range(1, max_t + 1):
        yield series.h_series(t, order) != series.h_series_rational(t, order) and {
            "t": t, "series": "h"
        }
        yield series.g_series(t, order) != series.g_series_rational(t, order) and {
            "t": t, "series": "g"
        }


@_check("theorem-1", "series-geometric-identity", max_t=SERIES_MAX_T, order=SERIES_ORDER)
def check_series_geometric_identity(max_t, order):
    """1 + H_t = 1 / (1 - G_t)."""
    one = series.IntSeries.one(order)
    for t in range(1, max_t + 1):
        lhs = one + series.h_series(t, order)
        rhs = series.reciprocal_one_minus(series.g_series(t, order))
        yield lhs != rhs and {"t": t}


@_check("theorem-1", "series-irreducible-recursion", max_t=SERIES_MAX_T, order=SERIES_ORDER)
def check_series_irreducible_recursion(max_t, order):
    """G_t = z * ((1 + sum_{n<t} C_n z^n) G_t + 1)."""
    one = series.IntSeries.one(order)
    z = series.IntSeries.z(order)
    for t in range(1, max_t + 1):
        g = series.g_series(t, order)
        small = [series.catalan(n) for n in range(1, min(t, order + 1))]  # none past z^order
        h_small = series.IntSeries.from_coeffs([0] + small, order)
        yield g != z * ((one + h_small) * g + one) and {"t": t}


@_check("decomposition", "decomposition-round-trip", max_n=STRUCTURE_MAX_N)
def check_decomposition_round_trip(max_n):
    for n, v, _ in _census_rows(1, max_n):
        parts = pop.decompose_irreducible(v)
        case = {"n": n, "vector": list(v.entries)}
        yield any(p.entries[0] != p.entries[-1] for p in parts) and {
            **case, "failure": "component not irreducible"
        }
        yield pop.concat_irreducible(parts).entries != v.entries and {**case, "failure": "round trip"}


@_check("decomposition", "decomposition-sortability", max_n=STRUCTURE_MAX_N)
def check_decomposition_sortability(max_n):
    """Sortability time equals the max over irreducible components."""
    for n, v, time_ in _census_rows(1, max_n):
        expected = max(pop.sortability_time(p) for p in pop.decompose_irreducible(v))
        yield time_ != expected and {
            "n": n, "vector": list(v.entries), "time": time_, "component_max": expected
        }


@_check("decomposition", "all-elements-sort-within-n", max_n=STRUCTURE_MAX_N)
def check_all_sort_within_n(max_n):
    """Everything in Tam_n is n-sortable."""
    for n in range(1, max_n + 1):
        total = series.catalan(n)
        counted = pop.count_t_sortable(n, n)
        yield counted != total and {"n": n, "t": n, "count": counted, "catalan": total}


@_check("hash", "hash-validity-and-monotonicity", max_n=STRUCTURE_MAX_N)
def check_hash_validity_monotonicity(max_n):
    for n, v, time_ in _census_rows(2, max_n):
        reduced = pop.hash_map(v)
        case = {"n": n, "vector": list(v.entries)}
        yield not brackets.is_valid(reduced.entries, reduced.ctx) and {
            **case, "failure": "hash not valid"
        }
        yield pop.sortability_time(reduced) > time_ and {
            **case, "failure": "hash increased sortability time"
        }


@_check("hash", "hash-bijection-on-irreducibles", max_n=9)
def check_hash_bijection(max_n):
    for n in range(2, max_n + 1):
        images = [
            pop.hash_map(v).entries for _, v, _ in _census_rows(n, n) if v.entries[0] == v.entries[-1]
        ]
        target = sorted(v.entries for _, v, _ in _census_rows(n - 1, n - 1))
        yield (sorted(images) != target or len(set(images)) != len(images)) and {
            "n": n, "failure": "hash not bijective on irreducibles"
        }


@_check("hash", "hash-sortability-threshold", max_n=STRUCTURE_MAX_N)
def check_hash_sortability_threshold(max_n):
    """time(v) = max(time(v#), b_0 - x_r + 1) for irreducible v, where 2 x_r
    is the length of the last irreducible component of v#."""
    for n, v, time_ in _census_rows(2, max_n):
        if v.entries[0] != v.entries[-1]:
            continue
        reduced = pop.hash_map(v)
        x_r = len(pop.decompose_irreducible(reduced)[-1].entries) // 2
        expected = max(pop.sortability_time(reduced), v.entries[0] - x_r + 1)
        yield time_ != expected and {
            "n": n, "vector": list(v.entries), "time": time_, "predicted": expected
        }


@_check("congruence", "perm-vector-isomorphism-covers", cap=_bijection_cap, max_n=CONGRUENCE_MAX_N)
def check_perm_isomorphism_covers(max_n):
    """tamari_perm_bijection checks that it is an order isomorphism; run it."""
    for n in range(1, max_n + 1):
        mapping = perms.tamari_perm_bijection(n)
        yield len(mapping) != series.catalan(n) and {"n": n, "failure": "wrong domain size"}


@_check("congruence", "pop-commutes-with-isomorphism", cap=_bijection_cap, max_n=CONGRUENCE_MAX_N)
def check_pop_commutes(max_n):
    """pop_tamari_perm, mapped to vectors, is _pop_rows of the mapped vectors."""
    import numpy as np

    for n in range(1, max_n + 1):
        mapping = perms.tamari_perm_bijection(n)
        ctx = pop._east_staircase_ctx(n)
        V = np.array([v.entries for v in mapping.values()])[:, ctx.free_positions]
        popped = brackets._whole_rows(pop._pop_rows(V, ctx), ctx).tolist()
        for p, rhs in zip(mapping, popped):
            lhs = list(mapping[perms.pop_tamari_perm(p)].entries)
            yield lhs != rhs and {"n": n, "perm": str(p), "via_perms": lhs, "via_vectors": rhs}


@_check("congruence", "pidown-confluence", max_n=CONFLUENCE_MAX_N, trials_per_n=1000, seed=0)
def check_pidown_confluence(max_n, trials_per_n, seed):
    rng = random.Random(seed)
    for n in range(2, max_n + 1):
        for _ in range(trials_per_n):
            word = list(range(1, n + 1))
            rng.shuffle(word)
            p = perms.Permutation(tuple(word))
            expected = perms.pi_down(p)
            got = perms.pi_down_random(p, rng)
            yield got != expected and {
                "n": n, "perm": str(p), "leftmost": str(expected), "random": str(got)
            }


@_check("congruence", "pidown-projects-to-312-avoiders", cap=_scan_cap, max_n=CONFLUENCE_MAX_N)
def check_pidown_projects(max_n):
    """pi_down lands on a 312-avoider and fixes 312-avoiders: _pi_down_rows
    over S_n in lexicographic order, judged by membership in the words of
    the phi recursion through int64 keys in radix n + 1, which fit for n <= 9."""
    import numpy as np

    def keys(X):  # radix n + 1 over the n columns of words on 1..n
        return brackets._mixed_radix_keys(X.T, X.shape[1] + 1, len(X))

    for n in range(1, max_n + 1):
        words = itertools.chain.from_iterable(itertools.permutations(range(1, n + 1)))
        S = np.fromiter(words, dtype=np.int8).reshape(-1, n)
        Q = perms._pi_down_rows(S)
        avoider_keys = keys(perms._av312_words(n))
        lands = np.isin(keys(Q), avoider_keys)
        moved = np.isin(keys(S), avoider_keys) & (Q != S).any(axis=1)
        for r, (landed, moved_r) in enumerate(zip(lands.tolist(), moved.tolist())):
            yield not landed and {"n": n, "perm": _word_text(S[r]), "pi_down": _word_text(Q[r])}
            yield moved_r and {"n": n, "perm": _word_text(S[r]), "failure": "moved a 312-avoider"}


@_check("congruence", "ascents-count-up-covers", cap=_bijection_cap, max_n=CONGRUENCE_MAX_N)
def check_ascents_count_up_covers(max_n):
    for n in range(1, max_n + 1):
        for p, v in perms.tamari_perm_bijection(n).items():
            ascents = len(perms.perm_stats(p).ascent_positions)
            up_covers = pop.up_cover_count(v)
            yield ascents != up_covers and {
                "n": n, "perm": str(p), "ascents": ascents, "up_covers": up_covers
            }


@_check("characterization", "pop-image-equals-characterization", max_n=9)
def check_characterization(max_n):
    import numpy as np

    for n in range(1, max_n + 1):
        image = _av312_pop_image(n)
        words = perms._av312_words(n)
        described = words[perms._image_mask(words)]
        yield not np.array_equal(image, described) and {
            "n": n,
            "extra": _first_texts(image, described),
            "missing": _first_texts(described, image),
        }
        motzkin = series.motzkin(n - 1)
        yield len(image) != motzkin and {"n": n, "size": len(image), "motzkin": motzkin}


@_check("theorem-2", "pop-image-size-is-motzkin", max_n=CENSUS_MAX_N)
def check_pop_image_motzkin(max_n):
    for n in range(1, max_n + 1):
        size = len(pop.pop_image(n))
        expected = series.motzkin(n - 1)
        yield size != expected and {"n": n, "size": size, "motzkin": expected}


@_check(  # reads Tam_(n+1)
    "theorem-2", "qpolynomial-matches-formula", cap=_n_plus_one_cap, max_n=QPOLY_MAX_N
)
def check_qpolynomial_formula(max_n):
    """Coefficient of q^(n-k) in the Tam_{n+1} polynomial is a055151(n, k)."""
    for n in range(0, max_n + 1):
        coeffs = pop.pop_polynomial(n + 1).coeffs
        expected = series.qpolynomial_formula(n)
        yield coeffs != expected and {"n": n, "histogram": coeffs, "formula": expected}


@_check("theorem-2", "qpolynomial-matches-permutation-ascents", max_n=QPOLY_MAX_N)
def check_qpolynomial_permutations(max_n):
    """Ascent histogram over the permutation Pop image matches the polynomial."""
    for n in range(1, max_n + 1):
        image = _av312_pop_image(n)
        hist = dict(Counter((image[:, :-1] < image[:, 1:]).sum(axis=1).tolist()))
        qpoly = pop.pop_polynomial(n).coeffs
        yield hist != qpoly and {"n": n, "ascent_histogram": hist, "qpoly": qpoly}


@_check("theorem-2", "rmap-bijection-descents-peaks", cap=_n_plus_one_cap, max_n=CONGRUENCE_MAX_N)
def check_rmap_bijection(max_n):
    """r maps the Pop image in S_{n+1} onto the 231-avoiders with equal
    descent and peak counts, matching k descents to n-k up-covers."""
    import numpy as np

    for n in range(1, max_n + 1):
        image = _av312_pop_image(n + 1)
        r = perms._r_rows(image)
        mapped = perms._sorted_rows(r)
        yield len(mapped) != len(image) and {"n": n, "failure": "r not injective on the image"}
        target = perms._equal_descents_peaks_231(n + 1)
        yield not np.array_equal(mapped, target) and {"n": n, "failure": "r image mismatch"}
        descents, peaks = perms._descents_peaks(r)
        ascents = (image[:, :-1] < image[:, 1:]).sum(axis=1)
        kept = (peaks == descents) & (ascents == n - descents)
        for word, ok in zip(image.tolist(), kept.tolist()):  # the least failing row first
            yield not ok and {
                "n": n, "perm": str(perms.Permutation(tuple(word))),
                "failure": "descent/peak bookkeeping",
            }


@_check("theorem-2", "a055151-row-sums-motzkin", max_n=12)
def check_a055151_row_sums(max_n):
    for n in range(0, max_n + 1):
        total = sum(series.a055151(n, k) for k in range(0, n // 2 + 1))
        yield total != series.motzkin(n) and {"n": n, "row_sum": total, "motzkin": series.motzkin(n)}


@_check("petersen", "descent-peak-counts-match-formula", cap=_n_plus_one_cap, max_n=8)
def check_descent_peak_formula(max_n):
    for n in range(0, max_n + 1):
        for k in range(0, n // 2 + 1):
            counted = perms.count_231_equal_descents_peaks(n, k)
            expected = series.a055151(n, k)
            yield counted != expected and {"n": n, "k": k, "count": counted, "formula": expected}


# ---------------------------------------------------------------------------
# Running suites


def suite_names() -> list[str]:
    return sorted(_SUITES) + ["all"]


def run_suite(suite: str, opts: VerifyOptions, log=None) -> VerificationReport:
    """Run a named suite (or "all"); checks execute in sorted name order.

    A max_n or max_t that no check reads, or one past a check's cap, is
    refused before any check runs (seed always has a value, so it is not).
    """
    if suite == "all":
        checks: dict[str, Callable[[VerifyOptions], CheckOutcome]] = {}
        for table in _SUITES.values():
            checks.update(table)
    elif suite in _SUITES:
        checks = dict(_SUITES[suite])
    else:
        raise KeyError(f"unknown suite {suite!r}; choose from {suite_names()}")
    read = set().union(*(check.options for check in checks.values()))
    for option in ("max_n", "max_t"):
        value = getattr(opts, option)
        if value is not None and option not in read:
            raise ValueError(f"{option}={value} bounds no check in suite {suite!r}")
    for name in sorted(checks):
        checks[name].resolve(opts)  # refused past its cap
    import numpy  # noqa: F401  (loaded here, so that no check's time includes it)

    report = VerificationReport(suite=suite, options=opts)
    for name in sorted(checks):
        start = time.perf_counter()
        try:
            (passed, counterexample, params), cases = checks[name].counted(opts)
        except (paths.BoundExceeded, MemoryError):  # a refused size is a usage error, not a failure
            raise
        except Exception as exc:  # a crash is a failed check, not a crashed run
            (passed, counterexample, params), cases = (False, {"error": repr(exc)}, {}), 0
        elapsed = time.perf_counter() - start
        report.checks.append(CheckResult(name, passed, params, counterexample, elapsed, cases))
        if log is not None:
            status = "pass" if passed else "FAIL"
            print(f"{name}: {status} ({elapsed:.2f}s, {cases} cases)", file=log)
    return report
