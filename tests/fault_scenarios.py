"""Injected faults that must raise, shared by the tests and their python -O runs.

Each scenario returns None if the fault was refused as expected, else what
went wrong; no assert statements, so `python -O tests/fault_scenarios.py
census` (or `bijection`, `petersen`, `oracle`, `down-covers` or
`decomposition`) checks the same and exits 1 on a miss; without one of those
names it prints a usage line to stderr and exits 2.
"""

import itertools
import sys

import numpy as np

from tamaripop import brackets, perms, pop, verification

_array_pop = pop._pop_rows


def _identity_pop(rows, ctx):
    return rows.copy()


def _off_lattice_pop(rows, ctx):
    out = _array_pop(rows, ctx)
    out[-1, -1] -= 1  # the last free entry falls below its height n_nu: no census row
    return out


def _aliasing_pop(rows, ctx):
    """The last image row moved to another with the same int64 key: its first
    free entry lowered by 1 and the next raised by the radix n_nu + 1.  Only
    a check of the entries themselves, not of keys, refuses it."""
    out = _array_pop(rows, ctx)
    out[-1, 0] -= 1
    out[-1, 1] += ctx.n_nu + 1
    return out


def _invalid_pop(rows, ctx):
    """The last image row moved to (1, 2, 2, 3, ..., n - 1), each entry in its
    range and the sum lowered, but entry 1 above the cap 1 that entry 0 puts
    on it: only the lookup among the census rows refuses it."""
    out = _array_pop(rows, ctx)
    out[-1] = np.arange(out.shape[1])
    out[-1, :2] = 1, 2
    return out


CENSUS_FAULTS = [
    (_identity_pop, "strictly decrease"),
    (_off_lattice_pop, "not a census row"),
    (_aliasing_pop, "not a census row"),
    (_invalid_pop, "Pop image (1, 0, 2, 1, 2, 2, 3, 3, 4, 4) is not a census row"),
]


def census_fault(fault, message):
    """Count with Pop replaced by fault: a RuntimeError naming message, not a count."""
    pop._pop_rows = fault
    pop._build_census.cache_clear()
    try:
        count = pop.count_t_sortable(5, 2)
    except RuntimeError as exc:
        return None if message in str(exc) else f"expected {message!r}, got {exc}"
    finally:
        pop._pop_rows = _array_pop
        pop._build_census.cache_clear()
    return f"counted {count} instead of raising {message!r}"


def _inversions(w):
    return {(w[j], w[i]) for i, j in itertools.combinations(range(len(w)), 2) if w[i] > w[j]}


def _bit(down, i, j):
    """Entry (i, j) of the order matrix, i <= j: bit i of packed row j."""
    return bool(int(down[j, i // 64]) >> (i % 64) & 1)


def bijection_fault(a=7, b=3):
    """Flip entry (a, b) of the n = 5 Tamari order matrix, bit a of packed
    row b: the bijection check must raise a RuntimeError naming exactly that
    pair of words and vectors."""
    real = perms._lattice_tables

    def flipped(ctx):
        mus, V, down, covers = real(ctx)
        down[b, a // 64] ^= down.dtype.type(1 << (a % 64))
        return mus, V, down, covers

    perms._lattice_tables = flipped
    perms._verified_bijection.cache_clear()
    try:
        perms.tamari_perm_bijection(5)
    except RuntimeError as exc:
        message = str(exc)
    else:
        return "a flipped order matrix was accepted"
    finally:
        perms._lattice_tables = real
        perms._verified_bijection.cache_clear()
    _, V, down, _ = real(perms._east_staircase_ctx(5))
    vecs = list(map(tuple, V.tolist()))
    words, phi_vecs = (list(map(tuple, X.tolist())) for X in perms._phi_words(5))
    word_of = dict(zip(phi_vecs, words))
    u, w = word_of[vecs[a]], word_of[vecs[b]]
    weak = _inversions(u) <= _inversions(w)
    if weak != _bit(down, a, b):
        return f"{u} <= {w} is {weak} in the weak order but {_bit(down, a, b)} in Tamari"
    expected = (
        f"constructed map is not an order isomorphism for n=5: {u} <= {w} is {weak} in the "
        f"weak order, {vecs[a]} <= {vecs[b]} is {not weak} in Tamari"
    )
    return None if message == expected else f"expected {expected!r}, got {message!r}"


def petersen_fault():
    """Drop the identity row from every _phi_words(n): the 231 count reads
    the same recursion, so the Petersen check must fail, first at k = 0."""
    real = perms._phi_words
    real(9)  # cache n <= 9, so the real recursion never calls the fault
    built_from_phi = (perms._av312_words, perms._equal_descents_peaks_231)

    def missing_identity(n):
        W, V = real(n)
        keep = [w != list(range(1, n + 1)) for w in W.tolist()]
        return W[keep], V[keep]

    perms._phi_words = missing_identity
    for cache in built_from_phi:
        cache.cache_clear()
    try:
        passed, counterexample, _ = verification.check_descent_peak_formula(
            verification.VerifyOptions()
        )
    finally:
        perms._phi_words = real
        for cache in built_from_phi:
            cache.cache_clear()
    expected = {"n": 0, "k": 0, "count": 0, "formula": 1}
    if passed:
        return "a recursion missing a word passed the Petersen check"
    return None if counterexample == expected else f"expected {expected}, got {counterexample}"


def _drop_last_pair(upper, lower):
    return upper[:-1], lower[:-1]


def _repeat_first_pair(upper, lower):
    return np.concatenate((upper[:1], upper)), np.concatenate((lower[:1], lower))


def _covers_fault(check, edit):
    """The counterexample of check with every (upper, lower) result of
    brackets._lower_covers, the covers of the path table, passed through
    edit; None if the check passed."""
    real = brackets._lower_covers
    brackets._lower_covers = lambda mus, ctx: edit(*real(mus, ctx))
    try:
        passed, counterexample, _ = check(verification.VerifyOptions())
    finally:
        brackets._lower_covers = real
    return None if passed else counterexample


def oracle_fault():
    """Drop the last lower cover of every lattice: the pop-oracle
    equivalence check must fail, first at the top NNEE of Tam(NENE), whose
    one lower cover is its Pop image NENE."""
    got = _covers_fault(verification.check_pop_oracle, _drop_last_pair)
    expected = {"nu": "NENE", "path": "NNEE", "meet_of_covers": "NNEE", "entrywise_formula": "NENE"}
    return None if got == expected else f"expected {expected}, got {got}"


# A cover edit and the covers it leaves NNEE in Tam(NENE), whose one descent
# is lowered to its one lower cover NENE, (0,1,1,2,2)
DOWN_COVER_FAULTS = [
    (_repeat_first_pair, [[0, 1, 1, 2, 2], [0, 1, 1, 2, 2]]),
    (_drop_last_pair, []),
]


def down_cover_fault(edit, covers):
    """The down-cover check must fail at NNEE in Tam(NENE), listing covers."""
    got = _covers_fault(verification.check_down_cover_candidates, edit)
    expected = {
        "nu": "NENE", "path": "NNEE", "covers_down": covers, "candidates": [[0, 1, 1, 2, 2]]
    }
    return None if got == expected else f"expected {expected}, got {got}"


# The component whose iterated time the decomposition fault puts off by one:
# the top of Tam_2, free columns (1, 1), whole vector (1, 0, 1, 1)
OFF_COMPONENT = (1, 0, 1, 1)


def _first_component_fault(max_n):
    """The counterexample the decomposition fault must give, from the scalar
    routes: the first vector in census order whose sortability_time is not
    the max over its decompose_irreducible components, with one added to
    OFF_COMPONENT's time."""
    for n in range(1, max_n + 1):
        for v in brackets.enumerate_vectors(pop._east_staircase_ctx(n)):
            parts = pop.decompose_irreducible(v)
            expected = max(pop.sortability_time(p) + (p.entries == OFF_COMPONENT) for p in parts)
            if pop.sortability_time(v) != expected:
                time_ = pop.sortability_time(v)
                return {"n": n, "vector": list(v.entries), "time": time_, "component_max": expected}
    return None


def decomposition_fault(max_n=6):
    """Put the iterated Pop time of one component, OFF_COMPONENT, off by one
    wherever it is read: decomposition-sortability must fail with the first
    row the scalar routes predict."""
    real = verification._iterated_times
    off = np.array(OFF_COMPONENT[::2], dtype=np.int8)  # its free columns

    def off_by_one(rows, k):
        times = real(rows, k)
        if k == len(off):
            times[(rows == off).all(axis=1)] += 1
        return times

    verification._iterated_times = off_by_one
    try:
        passed, counterexample, _ = verification.check_decomposition_sortability(
            verification.VerifyOptions(max_n=max_n)
        )
    finally:
        verification._iterated_times = real
    expected = _first_component_fault(max_n)
    if passed:
        return "a component time off by one passed the decomposition check"
    return None if counterexample == expected else f"expected {expected}, got {counterexample}"


if __name__ == "__main__":
    scenarios = {
        "census": lambda: next(filter(None, (census_fault(*case) for case in CENSUS_FAULTS)), None),
        "bijection": bijection_fault,
        "petersen": petersen_fault,
        "oracle": oracle_fault,
        "down-covers": lambda: next(
            filter(None, (down_cover_fault(*case) for case in DOWN_COVER_FAULTS)), None
        ),
        "decomposition": decomposition_fault,
    }
    if len(sys.argv) != 2 or sys.argv[1] not in scenarios:
        print(f"usage: fault_scenarios.py {{{'|'.join(scenarios)}}}", file=sys.stderr)
        sys.exit(2)
    sys.exit(scenarios[sys.argv[1]]())
