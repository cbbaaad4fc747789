"""The array census against the scalar route, its invariants and its bounds."""

import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from fault_scenarios import CENSUS_FAULTS, census_fault

from tamaripop import brackets, paths, perms, pop
from tamaripop.brackets import BracketVector, _vector_rows, _whole_rows, enumerate_vectors
from tamaripop.paths import BoundExceeded, NuContext
from tamaripop.series import catalan, h_series

SRC = str(Path(__file__).resolve().parents[1] / "src")
SCENARIOS = str(Path(__file__).with_name("fault_scenarios.py"))


def _iter_entry_tuples(ctx):
    """All valid vectors in lexicographic order by scalar backtracking, the
    oracle of _vector_rows: assigning v at index i caps every index up to
    fixed_positions[v] at v, which is exactly condition (3)."""
    heights, fixed, n_nu, ell = ctx.heights, ctx.fixed_positions, ctx.n_nu, ctx.ell
    fixed_value = {pos: k for k, pos in enumerate(fixed)}
    cap = [n_nu] * (ell + 2)
    buf = [0] * (ell + 1)

    def rec(i):
        if i > ell:
            yield tuple(buf)
            return
        lo, hi = (fixed_value[i],) * 2 if i in fixed_value else (heights[i], cap[i])
        for v in range(lo, min(hi, cap[i]) + 1):
            buf[i] = v
            saved = cap[i + 1 : fixed[v] + 1]
            cap[i + 1 : fixed[v] + 1] = [min(c, v) for c in saved]
            yield from rec(i + 1)
            cap[i + 1 : fixed[v] + 1] = saved

    yield from rec(0)


def _run_optimized(*args):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, "-O", *args], capture_output=True, text=True, env=env, timeout=120
    )


@pytest.mark.parametrize("ell", range(1, 10))
def test_vector_rows_match_backtracking_on_every_short_word(ell):
    for bits in itertools.product("NE", repeat=ell):
        ctx = NuContext.from_text("".join(bits))
        rows = _vector_rows(ctx)
        assert rows.shape[1] == len(ctx.free_positions) == bits.count("E")
        assert list(map(tuple, _whole_rows(rows, ctx).tolist())) == list(_iter_entry_tuples(ctx))


def test_vector_rows_widen_past_int8_heights():
    ctx = NuContext.from_text("E" + "N" * 130)
    assert [v.entries for v in enumerate_vectors(ctx)] == list(_iter_entry_tuples(ctx))


def _assert_census_matches_scalar_route(census):
    ctx = census.ctx
    entries = list(map(tuple, _whole_rows(census.rows, ctx).tolist()))
    assert entries == list(_iter_entry_tuples(ctx))
    for e, target, time_ in zip(entries, census.pop_idx.tolist(), census.times.tolist()):
        assert entries[target] == pop._pop_entries(e, ctx.heights, ctx.fixed_positions)
        assert time_ == pop.sortability_time(BracketVector(e, ctx))


@pytest.mark.parametrize("n", range(1, 11))
def test_array_census_matches_scalar_route(n):
    _assert_census_matches_scalar_route(pop._Census(n))


@pytest.mark.parametrize("n", range(1, 9))
def test_pop_blocks_of_a_few_rows_match_the_scalar_routes(monkeypatch, n):
    # 40 bytes: 5 to 40 census rows and 5 to 40 words a block, where the
    # default rule takes 1 block for the Tam_8 census and the words of size 8
    monkeypatch.setattr(pop, "POP_BLOCK_BYTES", 40)
    blocks = []
    real = pop._pop_rows
    monkeypatch.setattr(pop, "_pop_rows", lambda rows, ctx: blocks.append(len(rows)) or real(rows, ctx))
    census = pop._Census(n)
    m, step = len(census.rows), 40 // n  # rows of n free int8 entries
    assert blocks == [min(step, m - start) for start in range(0, m, step)]
    _assert_census_matches_scalar_route(census)
    ctx = census.ctx
    image = {pop._pop_entries(e, ctx.heights, ctx.fixed_positions) for e in _iter_entry_tuples(ctx)}
    pop._build_census.cache_clear()
    try:
        assert pop.pop_image(n) == {BracketVector(e, ctx) for e in image}
        assert [v.entries for v in pop.pop_image(n)] == sorted(image)  # blocks in census order
    finally:
        pop._build_census.cache_clear()
    W = perms._av312_words(n)
    expected = [list(perms.pop_tamari_perm(perms.Permutation(tuple(w))).word) for w in W.tolist()]
    assert perms._pop_words(W).tolist() == expected


def _traced_peak(build):
    """What build() returns and the peak of the bytes traced while it ran."""
    tracemalloc.start()
    try:
        return build(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_census_build_holds_little_beyond_its_rows():
    # Tam_11: 58,786 vectors of 22 entries, held as 11 free int8 columns.
    # Against m (ell + 1) bytes, the whole vectors at a byte an entry, these
    # builds peak near 1.36x and 1.75x.  With all 22 columns stored they
    # peaked near 2.0x and 2.1x; with full-size temporaries (a list of
    # columns and caps, a whole image matrix) at 3.3x and 4.7x, and one that
    # walked the Pop orbits through three intp index arrays and found Pop
    # targets 65,536 rows a block peaked at 3.4x for the census
    pop._Census(4)  # numpy's lazy imports are not the census
    ctx = pop._east_staircase_ctx(11)
    whole = 58786 * 22
    rows, rows_peak = _traced_peak(lambda: _vector_rows(ctx))
    census, census_peak = _traced_peak(lambda: pop._Census(11))
    assert rows.nbytes == census.rows.nbytes == whole // 2
    assert rows_peak <= 1.45 * whole
    assert census_peak <= 1.85 * whole


def test_image_and_q_polynomial_hold_little_beyond_the_image():
    # on a built Tam_11 census, the 2,188 image vectors and their counts peak
    # near 0.16x of m (ell + 1) bytes above what the calls leave held, the
    # image rows; a bound on that difference does not move with what the
    # interpreter's freelists hold from earlier tests, as the peak does
    pop._build_census.cache_clear()
    try:
        pop._census(11)
        tracemalloc.start()
        try:
            image, poly = pop.pop_image(11), pop.pop_polynomial(11)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    finally:
        pop._build_census.cache_clear()
    assert len(image) == poly.total() == 2188
    assert peak - held <= 0.2 * 58786 * 22


def test_pop_image_holds_its_rows_and_no_object_per_element():
    # on a built Tam_11 census, the image is its 2,188 rows of 22 int8
    # entries and a view over them, about 650 bytes more; a set of one
    # BracketVector per row held 0.80 MB
    pop._build_census.cache_clear()
    try:
        pop._census(11)
        tracemalloc.start()
        try:
            image = pop.pop_image(11)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
    finally:
        pop._build_census.cache_clear()
    assert len(image) == 2188
    assert held <= 2188 * 22 + 4096


@pytest.mark.parametrize("text", ["NE" * 11, "NE" * 12, "E" + "NE" * 12])
def test_east_rows_hold_little_beyond_their_matrix(text):
    # 58,786 to 742,900 rows of 22 to 25 steps.  These builds peak near 2.2x
    # to 2.4x of the bool matrix; with intp point ids and the kids held
    # through the last column's repeat they peaked at 2.9x to 3.2x
    paths._east_rows(NuContext.from_text("NENE"))  # numpy's lazy imports are not the build
    east, peak = _traced_peak(lambda: paths._east_rows(NuContext.from_text(text)))
    assert peak <= 2.6 * east.nbytes


def test_vector_rows_refuse_a_wrong_row_count(monkeypatch):
    ctx = pop._east_staircase_ctx(4)
    monkeypatch.setattr(brackets, "_count_tam", lambda ctx: 15)
    with pytest.raises(RuntimeError, match="counted 15 vectors"):
        _vector_rows(ctx)


def test_int8_times_compare_with_any_t():
    assert pop.count_t_sortable(6, 1000) == catalan(6)
    assert pop.count_t_sortable(6, 10**30) == catalan(6)


@pytest.mark.parametrize("fault,message", CENSUS_FAULTS)
def test_wrong_pop_image_raises_instead_of_counting(fault, message):
    assert census_fault(fault, message) is None


def test_census_fault_raises_under_python_optimize():
    proc = _run_optimized(SCENARIOS, "census")
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("args", [(), ("no-such-group",)], ids=["bare", "unknown"])
def test_fault_scenarios_without_a_known_group_print_usage(args):
    proc = _run_optimized(SCENARIOS, *args)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert proc.stdout == ""
    groups = "census|bijection|petersen|oracle|down-covers"
    assert proc.stderr == f"usage: fault_scenarios.py {{{groups}}}\n"


def test_sortable_agrees_with_series_under_python_optimize():
    proc = _run_optimized("-m", "tamaripop.cli", "sortable", "--n", "6", "--t", "2")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["count"] == h_series(2, 6)[6] == int(doc["series_coefficient"])
    assert doc["agree"] is True


def test_census_refuses_keys_past_int64_before_enumerating(monkeypatch):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("census enumerated past the int64 key bound")

    monkeypatch.setattr(pop, "_vector_rows", no_enumeration)
    with pytest.raises(BoundExceeded, match="int64"):
        pop._census(16, force=True)


def test_forced_and_unforced_calls_share_one_census():
    pop._build_census.cache_clear()
    try:
        pop.count_t_sortable(6, 1)
        pop.count_t_sortable(6, 2, force=True)
        pop.pop_image(6, force=True)
        assert pop._build_census.cache_info().misses == 1
    finally:
        pop._build_census.cache_clear()


def test_sortability_times_refuse_a_cyclic_pop_instead_of_hanging():
    # rows 0 and 1 pop onto each other and never reach the minimum, row 2
    pop_idx, bottom = np.array([1, 0, 2]), np.array([False, False, True])
    with pytest.raises(RuntimeError, match="miss the minimum after 5 steps"):
        pop._times_to_bottom(pop_idx, bottom, 5)
    assert pop._times_to_bottom(np.array([1, 2, 2]), bottom, 2).tolist() == [2, 1, 0]


@pytest.mark.parametrize("t", [0, -1])
def test_count_t_sortable_rejects_t_below_one(t):
    with pytest.raises(ValueError, match="t >= 1"):
        pop.count_t_sortable(4, t)
