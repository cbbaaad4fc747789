"""The pop operator: entrywise formula, meet-of-covers oracle, census, image."""

import itertools
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fault_scenarios import DOWN_COVER_FAULTS, down_cover_fault, oracle_fault
from tamaripop.brackets import (
    BracketVector,
    _decode,
    _path_rows,
    _vector_rows,
    _whole_rows,
    enumerate_vectors,
    meet,
    path_to_vector,
    vector_to_path,
)
from tamaripop.paths import (
    LatticePath,
    NuContext,
    covers_down,
    east_staircase,
    enumerate_tam,
    parse_path,
)
from tamaripop.pop import (
    _pop_entries,
    _pop_rows,
    _up_cover_counts,
    concat_irreducible,
    count_t_sortable,
    decompose_irreducible,
    eta,
    hash_map,
    pop_generic,
    pop_image,
    pop_polynomial,
    pop_vector,
    sortability_time,
    trajectory,
    up_cover_count,
)
from tamaripop.series import a055151, catalan, h_series, motzkin
from test_census import SCENARIOS, _run_optimized


def _vec(text, entries):
    return BracketVector(tuple(entries), NuContext.from_text(text))


def test_descents_and_eta_worked_example():
    v = _vec("ENNEEEENNE", (1, 0, 1, 3, 3, 3, 2, 2, 3, 4, 4))
    assert eta(v, 0) == 0
    assert eta(v, 5) == 2
    assert eta(v, 3) == 3  # not a descent, unchanged
    assert pop_vector(v).entries == (0, 0, 1, 3, 3, 2, 2, 2, 3, 4, 4)


def test_pop_fixes_minimum():
    ctx = NuContext.from_text("ENENE")
    bottom = BracketVector(ctx.heights, ctx)
    assert pop_vector(bottom) == bottom


def test_pop_top_of_small_lattice():
    v = _vec("ENENE", (2, 0, 2, 1, 2, 2))
    assert pop_vector(v).entries == (0, 0, 1, 1, 2, 2)


def test_trajectory_and_time():
    v = _vec("ENENE", (2, 0, 1, 1, 2, 2))
    traj = trajectory(v)
    assert [s.entries for s in traj.states] == [
        (2, 0, 1, 1, 2, 2),
        (1, 0, 1, 1, 2, 2),
        (0, 0, 1, 1, 2, 2),
    ]
    assert traj.sortability_time == 2
    assert sortability_time(v) == 2
    assert sortability_time(_vec("ENENE", (0, 0, 1, 1, 2, 2))) == 0


@pytest.mark.parametrize("text", ["ENENE", "NENENE", "ENNEEEENNE", "EENNEE", "NNEEN"])
def test_pop_generic_equals_pop_vector(text):
    ctx = NuContext.from_text(text)
    for mu in enumerate_tam(ctx):
        via_meet = pop_generic(mu, ctx)
        via_formula = vector_to_path(pop_vector(path_to_vector(mu, ctx)))
        assert via_meet == via_formula


def _fold_of_meets(mu, ctx, vector=path_to_vector):
    """The oracle as public calls: meet folded over the vectors of mu and of
    everything covers_down gives, decoded by vector_to_path.  vector may
    look up the path_to_vector images of a whole lattice built beforehand."""
    acc = vector(mu, ctx)
    for lower in covers_down(mu, ctx):
        acc = meet(acc, vector(lower, ctx))
    return vector_to_path(acc)


def _assert_pop_generic_is_the_fold(ctx):
    vectors = {mu: path_to_vector(mu, ctx) for mu in enumerate_tam(ctx)}
    for mu in vectors:
        assert pop_generic(mu, ctx) == _fold_of_meets(mu, ctx, lambda p, _: vectors[p])


@pytest.mark.parametrize("ell", range(1, 11))
def test_pop_generic_equals_the_fold_of_meets_on_every_short_nu(ell):
    for bits in itertools.product("NE", repeat=ell):
        _assert_pop_generic_is_the_fold(NuContext.from_text("".join(bits)))


@settings(max_examples=25, deadline=None)
@given(st.text("NE", min_size=11, max_size=14))
def test_pop_generic_equals_the_fold_of_meets_on_random_nu(text):
    _assert_pop_generic_is_the_fold(NuContext.from_text(text))


@pytest.mark.parametrize(
    "text, message",
    [
        ("EN", "EN is not weakly above NE"),
        ("NEE", "endpoint mismatch: NEE ends at (2, 1), NE ends at (1, 1)"),
        ("NNE", "endpoint mismatch: NNE ends at (1, 2), NE ends at (1, 1)"),
    ],
)
def test_pop_generic_refuses_what_the_fold_refuses(text, message):
    ctx = NuContext.from_text("NE")
    for route in (pop_generic, _fold_of_meets):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            route(LatticePath(text), ctx)


@pytest.mark.parametrize("ell", range(1, 6))
def test_pop_generic_raises_like_the_fold_off_the_lattice(ell):
    # every word of up to ell + 1 steps against every nu of ell steps
    words = ["".join(w) for k in range(1, ell + 2) for w in itertools.product("NE", repeat=k)]
    for bits in itertools.product("NE", repeat=ell):
        ctx = NuContext.from_text("".join(bits))
        for word in words:
            outcomes = []
            for route in (pop_generic, _fold_of_meets):
                try:
                    outcomes.append(route(LatticePath(word), ctx))
                except ValueError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1], (ctx.nu.steps, word)


def test_oracle_missing_a_lower_cover_fails_the_pop_oracle_check():
    assert oracle_fault() is None


def test_oracle_fault_fails_under_python_optimize():
    proc = _run_optimized(SCENARIOS, "oracle")
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("edit, covers", DOWN_COVER_FAULTS, ids=["repeated", "missing"])
def test_a_repeated_or_missing_cover_fails_the_down_cover_check(edit, covers):
    assert down_cover_fault(edit, covers) is None


def _assert_array_meet_is_pop_generic(ctx):
    """The meet the pop-oracle check computes over the path table of Tam(nu)
    is pop_generic of every path."""
    mus, V, upper, lower = _path_rows(ctx)
    meet = V.copy()
    np.minimum.at(meet, upper, V[lower])
    assert [_decode(row, ctx) for row in meet.tolist()] == [pop_generic(mu, ctx) for mu in mus]


@pytest.mark.parametrize("ell", range(1, 9))
def test_array_meet_of_covers_is_pop_generic_on_every_short_nu(ell):
    for bits in itertools.product("NE", repeat=ell):
        _assert_array_meet_is_pop_generic(NuContext.from_text("".join(bits)))


@settings(max_examples=25, deadline=None)
@given(st.text("NE", min_size=9, max_size=14))
def test_array_meet_of_covers_is_pop_generic_on_random_nu(text):
    _assert_array_meet_is_pop_generic(NuContext.from_text(text))


@settings(max_examples=60, deadline=None)
@given(st.text("NE", min_size=1, max_size=10))
def test_pop_routes_agree_and_lower_the_sum_on_random_nu(text):
    ctx = NuContext.from_text(text)
    for mu in enumerate_tam(ctx):
        v = path_to_vector(mu, ctx)
        popped = pop_vector(v)
        assert pop_generic(mu, ctx) == vector_to_path(popped)
        assert sum(popped.entries) < sum(v.entries) or v.entries == ctx.bottom_entries()


def _assert_pop_rows_is_pop_entries(M, ctx):
    """_pop_rows(M) is _pop_entries row by row on the whole vectors, in M's
    dtype, with M kept."""
    before = M.copy()
    popped = _pop_rows(M, ctx)
    assert popped.dtype == M.dtype
    np.testing.assert_array_equal(M, before)
    whole = map(tuple, _whole_rows(M, ctx).tolist())
    expected = [list(_pop_entries(e, ctx.heights, ctx.fixed_positions)) for e in whole]
    assert _whole_rows(popped, ctx).tolist() == expected


@settings(max_examples=40, deadline=None)
@given(st.text("NE", min_size=1, max_size=12))
def test_array_pop_is_the_scalar_pop_on_both_layouts(text):
    # the census's Fortran int8 rows and a C-ordered int16 copy of the free
    # columns of the pop-oracle's table
    ctx = NuContext.from_text(text)
    rows = _vector_rows(ctx)
    assert rows.flags.f_contiguous and rows.dtype == np.int8
    _assert_pop_rows_is_pop_entries(rows, ctx)
    V = np.ascontiguousarray(_path_rows(ctx)[1][:, ctx.free_positions])
    assert V.flags.c_contiguous and V.dtype == np.int16
    _assert_pop_rows_is_pop_entries(V, ctx)


def test_both_pop_kernels_refuse_a_descent_with_no_admissible_value():
    # (0,2,1,0,2,1,2) over EEENEN, fixed columns at their heights: e[1] = 2 >
    # e[2] = 1, but e[2] = 1 > 0 rules out x = 0 and e[4] = 2 > 1 rules out x = 1
    ctx = NuContext.from_text("EEENEN")
    message = re.escape("no admissible value at index 1 of (0, 2, 1, 0, 2, 1, 2); input vector invalid?")
    with pytest.raises(RuntimeError, match=message):
        _pop_entries((0, 2, 1, 0, 2, 1, 2), ctx.heights, ctx.fixed_positions)
    valid = _vector_rows(ctx)  # the free columns 0, 1, 2 and 4
    rows = np.concatenate((valid, [[0, 2, 1, 2], [1, 2, 1, 2]])).astype(np.int8)
    with pytest.raises(RuntimeError, match=message):
        _pop_rows(rows, ctx)  # the first row in row order
    # the lowest index first, here in the later row (1,0,1,0,1,1,2)
    with pytest.raises(RuntimeError, match=re.escape("index 0 of (1, 0, 1, 0, 1, 1, 2);")):
        _pop_rows(np.concatenate((rows, [[1, 0, 1, 1]])).astype(np.int8), ctx)


def test_pop_is_decreasing():
    ctx = NuContext.from_text("NENENE")
    from tamaripop.brackets import leq

    for v in enumerate_vectors(ctx):
        p = pop_vector(v)
        assert leq(p, v)


@pytest.mark.parametrize("n,t", [(1, 1), (3, 1), (4, 2), (5, 2), (6, 3)])
def test_count_t_sortable_matches_series(n, t):
    assert count_t_sortable(n, t) == h_series(t, n)[n]


def test_count_everything_is_n_sortable():
    for n in range(1, 8):
        assert count_t_sortable(n, n) == catalan(n)


def test_pop_image_sizes_are_motzkin():
    for n in range(1, 9):
        assert len(pop_image(n)) == motzkin(n - 1)


def test_pop_image_members_are_pop_values():
    n = 5
    ctx = NuContext.from_path(east_staircase(n))
    image = {pop_vector(v).entries for v in enumerate_vectors(ctx)}
    assert {v.entries for v in pop_image(n)} == image


def _image_view_misses(n):
    """The parts of its contract that pop_image(n), a read-only set view,
    breaks, or None; no assert statements, so a python -O child checks the
    same."""
    view, ctx = pop_image(n), NuContext.from_path(east_staircase(n))
    vectors = enumerate_vectors(ctx)
    scalar = {pop_vector(v) for v in vectors}
    listed = list(view)
    other_nu = NuContext.from_text("N" + ctx.nu.steps[1:])
    outsiders = [v for v in vectors if v not in scalar][:1]  # none at n = 1
    outsiders += [BracketVector(listed[0].entries, other_nu), listed[0].entries, None]
    checks = {
        "view == set": view == scalar,
        "set == view": scalar == view,
        "len is motzkin(n - 1)": len(view) == motzkin(n - 1),
        "vectors over the census context": all(
            type(v) is BracketVector and v.ctx == ctx for v in listed
        ),
        "distinct": len(set(listed)) == len(listed),
        "census order": [v.entries for v in listed] == [v.entries for v in vectors if v in scalar],
        "members are in": all(v in view for v in scalar),
        "outsiders are not": not any(v in view for v in outsiders),
        "operators give sets": type(view - set()) is set and view & scalar == scalar,
        "read-only rows": not view.rows.flags.writeable,
    }
    try:
        hash(view)
        checks["unhashable"] = False
    except TypeError:
        checks["unhashable"] = True
    failed = [name for name, ok in checks.items() if not ok]
    return f"n={n}: {failed}" if failed else None


@pytest.mark.parametrize("n", range(1, 9))
def test_pop_image_is_a_read_only_set_view_of_the_scalar_image(n):
    assert _image_view_misses(n) is None


def test_pop_image_view_keeps_its_contract_under_python_optimize():
    tests = str(Path(__file__).parent)
    proc = _run_optimized("-c", (
        f"import sys; sys.path.insert(0, {tests!r}); from test_pop import _image_view_misses; "
        "sys.exit(next(filter(None, map(_image_view_misses, range(1, 9))), None))"
    ))
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_pop_polynomial_small():
    poly = pop_polynomial(5)
    assert poly.coeffs == {4: 1, 3: 6, 2: 2}
    assert poly.total() == motzkin(4)
    m = 4
    assert poly.coeffs == {
        m - k: a055151(m, k) for k in range(m // 2 + 1) if a055151(m, k)
    }


def _assert_array_up_cover_counts_match_scalar(ctx):
    rows = _whole_rows(_vector_rows(ctx), ctx)
    expected = [up_cover_count(BracketVector(tuple(e), ctx)) for e in rows.tolist()]
    assert _up_cover_counts(rows, ctx.n_nu).tolist() == expected


@pytest.mark.parametrize("n", range(1, 9))
def test_array_up_cover_counts_match_the_scalar_count_on_every_vector(n):
    _assert_array_up_cover_counts_match_scalar(NuContext.from_path(east_staircase(n)))


@settings(max_examples=30, deadline=None)
@given(st.text("NE", min_size=1, max_size=12))
def test_array_up_cover_counts_match_the_scalar_count_on_random_nu(text):
    _assert_array_up_cover_counts_match_scalar(NuContext.from_text(text))


@pytest.mark.parametrize("n", range(1, 11))
def test_pop_polynomial_is_the_scalar_histogram_over_the_image(n):
    image = pop_image(n)
    ctx = next(iter(image)).ctx
    rows = np.array(sorted(v.entries for v in image))
    counts = _up_cover_counts(rows, ctx.n_nu).tolist()
    assert counts == [up_cover_count(BracketVector(e, ctx)) for e in map(tuple, rows.tolist())]
    assert pop_polynomial(n).coeffs == dict(Counter(counts))


@pytest.mark.parametrize("n", [0, -1])
def test_pop_polynomial_rejects_n_below_one(n):
    with pytest.raises(ValueError, match="n >= 1"):
        pop_polynomial(n)


def test_up_cover_count_matches_cover_sets():
    from tamaripop.paths import covers_up

    ctx = NuContext.from_path(east_staircase(5))
    for v in enumerate_vectors(ctx):
        mu = vector_to_path(v)
        assert up_cover_count(v) == len(covers_up(mu, ctx))


def test_decompose_irreducible_blocks():
    # bottom of Tam_3 splits into three singleton blocks
    v = _vec("ENENE", (0, 0, 1, 1, 2, 2))
    parts = decompose_irreducible(v)
    assert [p.entries for p in parts] == [(0, 0)] * 3
    assert concat_irreducible(parts).entries == v.entries
    # the top is already irreducible
    top = _vec("ENENE", (2, 0, 2, 1, 2, 2))
    assert [p.entries for p in decompose_irreducible(top)] == [(2, 0, 2, 1, 2, 2)]


def test_decomposition_round_trips_everywhere():
    ctx = NuContext.from_path(east_staircase(6))
    for v in enumerate_vectors(ctx):
        parts = decompose_irreducible(v)
        assert all(p.entries[0] == p.entries[-1] for p in parts)
        assert concat_irreducible(parts).entries == v.entries


def test_sortability_time_is_max_over_components():
    ctx = NuContext.from_path(east_staircase(6))
    for v in enumerate_vectors(ctx):
        parts = decompose_irreducible(v)
        assert sortability_time(v) == max(sortability_time(p) for p in parts)


def test_hash_map_examples():
    # (2,0,2,1,2,2) loses its first two entries and shifts down one level
    v = _vec("ENENE", (2, 0, 2, 1, 2, 2))
    reduced = hash_map(v)
    assert reduced.entries == (1, 0, 1, 1)
    assert reduced.ctx.nu.steps == "ENE"
    with pytest.raises(ValueError):
        hash_map(_vec("E", (0, 0)))


def test_hash_bijection_on_irreducibles():
    for n in range(2, 7):
        ctx = NuContext.from_path(east_staircase(n))
        irreducibles = [v for v in enumerate_vectors(ctx) if v.entries[0] == v.entries[-1]]
        images = sorted(hash_map(v).entries for v in irreducibles)
        target = sorted(v.entries for v in enumerate_vectors(NuContext.from_path(east_staircase(n - 1))))
        assert images == target


def test_hash_sortability_threshold():
    # time(v) = max(time(v#), first entry - half the last component of v# + 1)
    for n in range(2, 7):
        ctx = NuContext.from_path(east_staircase(n))
        for v in enumerate_vectors(ctx):
            if v.entries[0] != v.entries[-1]:
                continue
            reduced = hash_map(v)
            x_r = len(decompose_irreducible(reduced)[-1].entries) // 2
            expected = max(sortability_time(reduced), v.entries[0] - x_r + 1)
            assert sortability_time(v) == expected


def test_pop_requires_valid_input_shape():
    ctx = NuContext.from_text("ENENE")
    with pytest.raises(ValueError):
        BracketVector((1, 2, 3), ctx)
