"""Each failure branch of the order-isomorphism check fires on a broken table,
and oversized lattices are refused before anything is enumerated.  The runner
registers every check once, ends a check at its first counterexample and
fails a check that examined no case."""

import itertools
import json
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tamaripop import brackets, paths, perms, pop, series, verification
from tamaripop.cli import main
from tamaripop.paths import BoundExceeded, NuContext
from tamaripop.verification import VerifyOptions

NU = "ENENE"
# Tables of Tam(ENENE), rows sorted by (entry sum, entries):
#   0 (0,0,1,1,2,2)  1 (0,0,2,1,2,2)  2 (1,0,1,1,2,2)  3 (2,0,1,1,2,2)  4 (2,0,2,1,2,2)
# Columns 1, 3 and 5 are fixed to heights 0, 1 and 2.


def _check_with(monkeypatch, edit, consistent_order=False):
    """Run the check on a fresh build of the tables changed by edit(V, O),
    where O is the unpacked order matrix, O[i, j] = i <= j; with
    consistent_order, O is recomputed as the componentwise order of the new
    V, the vector enumeration returns the free columns of the new V and the
    array decode decodes each new row to its old path.  O goes back to the
    tables packed, and the cover edges stay those of the real lattice."""
    mus, V, down, covers = brackets._lattice_tables(NuContext.from_text(NU))
    O = brackets._unpack_bits(down, len(mus)).T
    edit(V, O)
    if consistent_order:
        O = (V[:, None, :] <= V[None, :, :]).all(axis=2)
        monkeypatch.setattr(brackets, "_vector_rows", lambda ctx: V[:, ctx.free_positions])
        monkeypatch.setattr(brackets, "_decode_rows", lambda rows: mus.east)
    down = brackets._pack_bits(O.T)
    monkeypatch.setattr(brackets, "_lattice_tables", lambda ctx: (mus, V, down, covers))
    return verification._check_one_bijection(NU)


def test_unbroken_tables_pass(monkeypatch):
    assert _check_with(monkeypatch, lambda V, O: None) is None


def test_removed_order_edge_is_an_order_disagreement(monkeypatch):
    def drop(V, O):
        O[0, 4] = False

    assert _check_with(monkeypatch, drop) == {
        "nu": NU,
        "failure": "order disagreement",
        "pair": [[0, 0, 1, 1, 2, 2], [2, 0, 2, 1, 2, 2]],
        "componentwise": True,
        "cover_closure": False,
    }


def test_first_order_disagreement_is_reported_row_major(monkeypatch):
    def drop(V, O):
        O[0, 3] = O[0, 4] = O[1, 4] = False

    assert _check_with(monkeypatch, drop) == {
        "nu": NU,
        "failure": "order disagreement",
        "pair": [[0, 0, 1, 1, 2, 2], [2, 0, 1, 1, 2, 2]],
        "componentwise": True,
        "cover_closure": False,
    }


def test_min_outside_the_set_is_reported_with_its_pair(monkeypatch):
    def lower(V, O):
        V[1, 4] = 1  # (0,0,2,1,1,2): its min with row 0 is (0,0,1,1,1,2)

    assert _check_with(monkeypatch, lower, consistent_order=True) == {
        "nu": NU,
        "failure": "termwise min left the vector set",
        "pair": [[0, 0, 1, 1, 2, 2], [0, 0, 2, 1, 1, 2]],
    }


def test_fixed_column_off_its_height(monkeypatch):
    def shift(V, O):
        V[4, 5] = 1

    assert _check_with(monkeypatch, shift, consistent_order=True) == {
        "nu": NU,
        "failure": "fixed column off its height",
        "element": [2, 0, 2, 1, 2, 1],
        "column": 5,
    }


@pytest.mark.parametrize("text", ["ENENE", "NE" * 4, "ENNEEN", "E" * 3 + "N" * 3])
def test_componentwise_kernel_matches_scalar_leq(text):
    ctx = NuContext.from_text(text)
    vecs = brackets.enumerate_vectors(ctx)
    V = brackets._vector_rows(ctx).astype("int16")
    expected = [[brackets.leq(u, v) for u in vecs] for v in vecs]  # row v: the u <= v
    rows = np.concatenate([block for _, block in brackets._componentwise_down_rows(V)])
    assert brackets._unpack_bits(rows, len(vecs)).tolist() == expected


def test_first_order_difference_takes_the_least_i_across_blocks():
    # 2,000 rows of 32 words make blocks of 1,024 rows, so the least i (5, in
    # row 1,500) lies in a later block than a difference with a larger i (row 3)
    X = np.random.default_rng(0).integers(0, 3, size=(2000, 4))
    down = np.concatenate([block for _, block in brackets._componentwise_down_rows(X)])
    assert brackets._first_order_difference(X, down) is None
    for i, j in ((700, 3), (5, 1800), (5, 1500)):
        down[j, i // 64] ^= np.uint64(1) << np.uint64(i % 64)
    assert brackets._first_order_difference(X, down) == (5, 1500)


def test_vector_set_that_differs_from_the_enumeration(monkeypatch):
    real = brackets._vector_rows
    monkeypatch.setattr(brackets, "_vector_rows", lambda ctx: real(ctx)[1:])
    failure = "path_to_vector image differs from enumerate_vectors"
    assert verification._check_one_bijection(NU) == {"nu": NU, "failure": failure}


def test_vector_to_path_that_does_not_invert(monkeypatch):
    mus, V, *_ = brackets._lattice_tables(NuContext.from_text(NU))
    real = brackets._decode_rows

    def broken(rows):
        east = real(rows)
        east[(rows == V[2]).all(axis=1)] = mus.east[0]  # V[2] decodes to mus[0]
        return east

    monkeypatch.setattr(brackets, "_decode_rows", broken)
    assert verification._check_one_bijection(NU) == {
        "nu": NU,
        "failure": "vector_to_path does not invert",
        "path": mus[2].steps,
    }


def test_bijection_check_builds_no_path_and_calls_no_scalar_map(monkeypatch):
    def per_element(*args):
        raise AssertionError("built a path or ran a scalar map per element")

    NuContext.from_text("ENNEEEENNE")  # cached before LatticePath is patched
    for module, name in (
        (paths, "LatticePath"),
        (brackets, "LatticePath"),
        (brackets, "_slot_entries"),
        (brackets, "_decode"),
        (brackets, "vector_to_path"),
    ):
        monkeypatch.setattr(module, name, per_element)
    assert verification._check_one_bijection("ENNEEEENNE") is None


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_min_closure_against_unwitnessed_rows_decides_like_all_pairs(data):
    # the min-closure of a few vectors with up to two of its elements dropped,
    # so that many rows have witnesses; the witness candidates of each row are
    # a real witness or arbitrary rows
    width = data.draw(st.integers(2, 4))
    vectors = data.draw(st.sets(st.tuples(*[st.integers(0, 3)] * width), min_size=1, max_size=8))
    while (mins := {tuple(map(min, u, v)) for u in vectors for v in vectors}) - vectors:
        vectors |= mins
    dropped = data.draw(st.sets(st.sampled_from(sorted(vectors)), max_size=2))
    vectors = vectors - dropped or vectors
    rows = sorted(vectors)
    m = len(rows)
    pairs_by_min = {}
    for x, y in itertools.product(range(m), repeat=2):
        pairs_by_min.setdefault(tuple(map(min, rows[x], rows[y])), []).append((x, y))
    candidates = []
    for b in range(m):
        witnesses = [pair for pair in pairs_by_min[rows[b]] if b not in pair]
        if witnesses and data.draw(st.booleans()):
            candidates.append(data.draw(st.sampled_from(witnesses)))
        else:
            row = st.integers(0, m - 1) | st.just(b)  # b itself is never a witness
            candidates.append(data.draw(st.tuples(row, row)))
    closed = set(pairs_by_min) <= vectors
    V = np.array(rows, dtype=np.int16)
    down = np.concatenate([block for _, block in brackets._componentwise_down_rows(V)])
    pair = verification._min_closure_failure(V, down, np.array(candidates), "random vectors")
    assert (pair is None) == closed
    if pair is not None:
        a, b = pair
        assert a < b and tuple(np.minimum(V[a], V[b]).tolist()) not in vectors


def test_min_keys_that_would_overflow_int64_are_refused():
    # E^64 N: 65 elements, but 65 steps, past the 62 bits of the int64 step keys
    with pytest.raises(BoundExceeded, match="int64"):
        verification._check_one_bijection("E" * 64 + "N")


def test_min_keys_of_the_free_columns_past_int64_are_refused():
    # N^20 E^20: one element, but keys of 20 free columns in base 21
    with pytest.raises(BoundExceeded, match="int64"):
        verification._check_one_bijection("N" * 20 + "E" * 20)


@pytest.mark.parametrize("text", ["E" + "NE" * 9, "NE" * 10, "E" * 7 + "N" * 7])
def test_order_matrix_guard_admits_the_default_sizes(text):
    brackets._order_matrix_guard(NuContext.from_text(text))


def _no_enumeration(*args, **kwargs):
    raise AssertionError("enumerated a lattice past the order-matrix bound")


def test_lattice_tables_refuse_tam_11_before_enumerating(monkeypatch):
    monkeypatch.setattr(brackets, "enumerate_tam", _no_enumeration)
    with pytest.raises(BoundExceeded, match="58786 elements"):
        brackets._lattice_tables(NuContext.from_text("E" + "NE" * 10))


def test_verify_bijection_past_the_bound_exits_2_before_enumerating(capsys, monkeypatch):
    monkeypatch.setattr(brackets, "enumerate_tam", _no_enumeration)
    code = main(["verify", "--suite", "bijection", "--max-n", "24"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "order matrix" in captured.err


# Every check that reads the census of Tam_n, n <= max_n
CENSUS_CHECKS = [
    verification.check_irreducible_census_matches_series,
    verification.check_decomposition_round_trip,
    verification.check_decomposition_sortability,
    verification.check_all_sort_within_n,
    verification.check_hash_validity_monotonicity,
    verification.check_hash_bijection,
    verification.check_hash_sortability_threshold,
]


def _no_census(n):
    raise AssertionError(f"built the census of Tam_{n} past the element bound")


@pytest.mark.parametrize("check", CENSUS_CHECKS, ids=lambda check: check.__name__)
def test_census_checks_refuse_n_past_the_path_length_bound(monkeypatch, check):
    # the element bound for Tam_n, read as n: lowered to C_3 = 5 elements, it
    # refuses n = 4 before any census, whether or not an earlier call left
    # Tam_1..4 in the census cache
    monkeypatch.setattr(paths, "MAX_ELEMENTS", 5)
    monkeypatch.setattr(pop, "_build_census", _no_census)
    with pytest.raises(BoundExceeded, match="^n=4 exceeds the enumeration bound 3$"):
        check.counted(VerifyOptions(max_n=4, max_t=1))


def test_verify_hash_past_the_path_length_bound_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(paths, "MAX_ELEMENTS", 5)
    monkeypatch.setattr(pop, "_build_census", _no_census)
    code = main(["verify", "--suite", "hash", "--max-n", "4"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "n=4 exceeds the enumeration bound 3" in captured.err


@pytest.mark.parametrize(
    "suite, max_n, message",
    [
        ("all", "10", "n=10 exceeds the bound 9 of the scan of S_n"),
        # max_ell = 28 puts (NE)^14 in the corpus
        ("pop-oracle", "28", "n=14 exceeds the enumeration bound 13"),
    ],
)
def test_no_check_starts_when_a_selected_cap_refuses_max_n(capsys, monkeypatch, suite, max_n, message):
    started = []
    for table in verification._SUITES.values():
        for name, check in table.items():
            monkeypatch.setattr(check, "counted", lambda opts, name=name: started.append(name))
    code = main(["verify", "--suite", suite, "--max-n", max_n])
    captured = capsys.readouterr()
    assert started == []
    assert (code, captured.out) == (2, "")
    assert captured.err == f"error: {message}\n"


def test_a_memory_error_in_a_check_is_a_usage_error_not_a_failed_check(capsys, monkeypatch):
    # any other crash is a failed check (exit 1); running out of memory is
    # re-raised, as a refused size is, and verify ends its log of the checks
    # run so far with one error line
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(pop, "pop_image", out_of_memory)
    with pytest.raises(MemoryError):
        verification.run_suite("theorem-2", VerifyOptions(max_n=4))
    code = main(["verify", "--suite", "theorem-2", "--max-n", "4"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.endswith("cases)\nerror: out of memory\n")
    assert captured.err.count("error") == 1


# Every (check, bounded option) pair of the registry; the max_n cases keep
# the check's bare name as their id
BOUNDED = sorted(
    (name, option, check)
    for table in verification._SUITES.values()
    for name, check in table.items()
    for option in check.options - {"seed"}
)


def _no_build(*args, **kwargs):
    raise AssertionError("built a table past a cap")


@pytest.mark.parametrize(
    "option, check",
    [(option, check) for _, option, check in BOUNDED],
    ids=[name if option == "max_n" else f"{name}-{option}" for name, option, _ in BOUNDED],
)
def test_every_bounded_check_refuses_through_its_cap(monkeypatch, option, check):
    # past max_n: the element bound lowered to C_3 = 5 elements refuses
    # every size at max_n = 10, as n or as a path length, in the cap, before
    # anything is built; past max_t: the series' order bound, whatever max_n
    # the check reads at its default
    monkeypatch.setattr(paths, "enumerate_tam", _no_build)
    monkeypatch.setattr(brackets, "enumerate_tam", _no_build)
    monkeypatch.setattr(brackets, "_vector_rows", _no_build)
    monkeypatch.setattr(perms, "_phi_words", _no_build)
    monkeypatch.setattr(pop, "_build_census", _no_build)
    if option == "max_n":
        monkeypatch.setattr(paths, "MAX_ELEMENTS", 5)
        with pytest.raises(BoundExceeded):
            check.resolve(VerifyOptions(max_n=10))
    else:
        over = series.MAX_ORDER + 1
        message = f"^max_t={over} exceeds the bound {series.MAX_ORDER}$"
        with pytest.raises(BoundExceeded, match=message):
            check.resolve(VerifyOptions(max_t=over))


@pytest.mark.parametrize(
    "check, max_n, work",
    [
        (verification.check_a055151_row_sums, 100000, (series, "a055151")),
        (verification.check_pidown_confluence, 300, (perms, "pi_down")),
    ],
    ids=["a055151-row-sums-motzkin", "pidown-confluence"],
)
def test_a_check_without_a_named_cap_refuses_past_its_bounds_at_once(monkeypatch, check, max_n, work):
    monkeypatch.setattr(*work, _no_build)
    start = time.perf_counter()
    with pytest.raises(BoundExceeded, match=f"^n={max_n} exceeds the enumeration bound 13$"):
        check(VerifyOptions(max_n=max_n))
    assert time.perf_counter() - start < 0.5


def test_the_scan_of_s_n_reads_the_element_bound(capsys, monkeypatch):
    # C_5 = 42 <= 100 < C_6 = 132 puts the element bound, read as n, at 5,
    # and 4! <= 100 < 5! the scan's at 4
    monkeypatch.setattr(paths, "MAX_ELEMENTS", 100)
    code = main(["verify", "--suite", "congruence", "--max-n", "5"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: n=5 exceeds the bound 4 of the scan of S_n\n"


@pytest.mark.parametrize(
    "suite, max_n, message",
    [
        ("petersen", "13", "n=13 exceeds the enumeration bound 12"),
        ("characterization", "14", "n=14 exceeds the enumeration bound 13"),
    ],
)
def test_verify_refuses_a_size_before_any_check_body_runs(capsys, monkeypatch, suite, max_n, message):
    monkeypatch.setattr(perms, "count_231_equal_descents_peaks", _no_build)
    monkeypatch.setattr(verification, "_av312_pop_image", _no_build)
    monkeypatch.setattr(perms, "image_by_characterization", _no_build)
    code = main(["verify", "--suite", suite, "--max-n", max_n])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "check",
    [
        verification.check_perm_isomorphism_covers,
        verification.check_pop_commutes,
        verification.check_ascents_count_up_covers,
    ],
    ids=lambda check: check.__name__,
)
def test_bijection_checks_refuse_the_order_matrix_before_building_a_bijection(monkeypatch, check):
    monkeypatch.setattr(perms, "tamari_perm_bijection", _no_build)
    with pytest.raises(BoundExceeded, match="has 58786 elements; its order matrix"):
        check(VerifyOptions(max_n=11))


def test_pidown_projects_refuses_n_past_its_scan_bound_before_scanning(monkeypatch):
    def no_scan(p):
        raise AssertionError("scanned S_n past the bound")

    monkeypatch.setattr(perms, "pi_down", no_scan)
    monkeypatch.setattr(perms, "_pi_down_rows", no_scan)
    with pytest.raises(BoundExceeded, match="^n=10 exceeds the bound 9 of the scan of S_n$"):
        verification.check_pidown_projects.counted(VerifyOptions(max_n=10))


def test_permutation_pop_image_is_built_once_per_n(monkeypatch):
    popped = []  # the shape of each word matrix the array Pop runs on
    real = perms._pop_words
    monkeypatch.setattr(perms, "_pop_words", lambda W: popped.append(W.shape) or real(W))
    verification._av312_pop_image.cache_clear()
    try:
        for check in (
            verification.check_characterization,
            verification.check_qpolynomial_permutations,
            verification.check_rmap_bijection,
        ):
            assert check(VerifyOptions(max_n=4))[0]
    finally:
        verification._av312_pop_image.cache_clear()  # built through the patch
    assert sorted(popped) == [(series.catalan(n), n) for n in range(1, 6)]


def test_pop_oracle_refuses_ell_past_the_path_length_bound_before_enumerating(capsys, monkeypatch):
    # the seed-0 corpus at max_ell = 25 holds three lattices past 742,900
    # elements; none of its lattices is enumerated, not even the first, NE
    def no_enumeration(*args, **kwargs):
        raise AssertionError("enumerated a pop-oracle lattice past the element bound")

    monkeypatch.setattr(paths, "enumerate_tam", no_enumeration)
    monkeypatch.setattr(brackets, "enumerate_tam", no_enumeration)
    monkeypatch.setattr(brackets, "enumerate_vectors", no_enumeration)
    monkeypatch.setattr(brackets, "_vector_rows", no_enumeration)
    code = main(["verify", "--suite", "pop-oracle", "--max-n", "25"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    # verify takes no --force, so no hint to pass one
    assert captured.err == "error: Tam(nu) of a 25-step nu has more than 742900 elements\n"


@pytest.mark.parametrize("max_n, total", [("23", 1374594), ("24", 1631366)])
def test_pop_oracle_refuses_a_corpus_past_the_element_bound_as_a_whole(capsys, monkeypatch, max_n, total):
    # no lattice of either seed-0 corpus passes 742,900 elements; their sums do
    def no_enumeration(*args, **kwargs):
        raise AssertionError("enumerated a pop-oracle lattice past the corpus bound")

    monkeypatch.setattr(paths, "enumerate_tam", no_enumeration)
    monkeypatch.setattr(brackets, "enumerate_tam", no_enumeration)
    monkeypatch.setattr(brackets, "enumerate_vectors", no_enumeration)
    monkeypatch.setattr(brackets, "_vector_rows", no_enumeration)
    code = main(["verify", "--suite", "pop-oracle", "--max-n", max_n])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    message = f"the pop-oracle corpus up to {max_n} steps has {total} elements, more than 742900"
    assert captured.err == f"error: {message}\n"


def test_pop_oracle_corpus_bound_reads_the_lowered_element_bound(capsys, monkeypatch):
    # at max_ell = 6 the seed-0 corpus holds 179 elements, none of its
    # lattices more than 20: each lattice fits under 100, the corpus does not
    enumerated = []
    monkeypatch.setattr(paths, "MAX_ELEMENTS", 100)
    monkeypatch.setattr(paths, "enumerate_tam", lambda ctx, **kw: enumerated.append(ctx))
    monkeypatch.setattr(brackets, "enumerate_tam", lambda ctx, **kw: enumerated.append(ctx))
    monkeypatch.setattr(brackets, "enumerate_vectors", lambda ctx: enumerated.append(ctx))
    monkeypatch.setattr(brackets, "_vector_rows", lambda ctx: enumerated.append(ctx))
    code = main(["verify", "--suite", "pop-oracle", "--max-n", "6"])
    captured = capsys.readouterr()
    assert enumerated == []
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: the pop-oracle corpus up to 6 steps has 179 elements, more than 100\n"


def test_pop_oracle_corpus_at_22_steps_fits_the_element_bound():
    params = {"max_ell": 22, "random_paths": verification.RANDOM_NU_COUNT, "seed": 0}
    verification._oracle_cap(**params)
    corpus = verification._corpus(**params)
    assert sum(paths._count_tam(ctx) for ctx in corpus) == 585623


# The runner: every check is a registered case generator


SUITE_CHECKS = {
    ("bijection", "order-isomorphism-and-meets"),
    ("pop-oracle", "pop-meet-oracle-equivalence"),
    ("pop-oracle", "pop-entry-lower-bound"),
    ("pop-oracle", "down-cover-candidates-match"),
    ("decomposition", "decomposition-round-trip"),
    ("decomposition", "decomposition-sortability"),
    ("decomposition", "all-elements-sort-within-n"),
    ("hash", "hash-validity-and-monotonicity"),
    ("hash", "hash-bijection-on-irreducibles"),
    ("hash", "hash-sortability-threshold"),
    ("theorem-1", "census-matches-series"),
    ("theorem-1", "irreducible-census-matches-series"),
    ("theorem-1", "series-recurrence-vs-rational"),
    ("theorem-1", "series-geometric-identity"),
    ("theorem-1", "series-irreducible-recursion"),
    ("congruence", "perm-vector-isomorphism-covers"),
    ("congruence", "pop-commutes-with-isomorphism"),
    ("congruence", "pidown-confluence"),
    ("congruence", "pidown-projects-to-312-avoiders"),
    ("congruence", "ascents-count-up-covers"),
    ("characterization", "pop-image-equals-characterization"),
    ("theorem-2", "pop-image-size-is-motzkin"),
    ("theorem-2", "qpolynomial-matches-formula"),
    ("theorem-2", "qpolynomial-matches-permutation-ascents"),
    ("theorem-2", "rmap-bijection-descents-peaks"),
    ("theorem-2", "a055151-row-sums-motzkin"),
    ("petersen", "descent-peak-counts-match-formula"),
}


def test_every_check_function_is_registered_once():
    registered = [(suite, name) for suite, table in verification._SUITES.items() for name in table]
    assert len(registered) == len(SUITE_CHECKS) and set(registered) == SUITE_CHECKS
    checks = [f for table in verification._SUITES.values() for f in table.values()]
    defined = sorted(name for name in vars(verification) if name.startswith("check_"))
    assert sorted(f.__name__ for f in checks) == defined
    assert all(getattr(verification, f.__name__) is f for f in checks)


def test_checks_that_examine_no_case_fail(capsys):
    code = main(["verify", "--suite", "all", "--max-n", "1", "--max-t", "1"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    failed = {c["name"]: c["counterexample"] for c in report["checks"] if c["status"] == "fail"}
    assert failed == {
        name: {"failure": "no cases examined"}
        for name in (
            "hash-bijection-on-irreducibles",
            "hash-sortability-threshold",
            "hash-validity-and-monotonicity",
            "pidown-confluence",
        )
    }


def test_every_check_examines_a_case_at_size_two(capsys):
    code = main(["verify", "--suite", "all", "--max-n", "2", "--max-t", "1"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert len(report["checks"]) == len(SUITE_CHECKS) and report["passed"]
    # every check reports a size or step bound, and each one it reports is the option's
    from_options = {"max_n": 2, "max_ell": 2, "max_t": 1}
    for check in report["checks"]:
        bounds = {key: check["params"][key] for key in from_options if key in check["params"]}
        assert bounds and all(bounds[key] == from_options[key] for key in bounds), check


def test_planted_fault_ends_the_check_at_its_first_counterexample(monkeypatch):
    real = pop.count_t_sortable
    sizes = []

    def off_by_one_from_3(n, t, **kwargs):
        sizes.append(n)
        return real(n, t, **kwargs) + (n >= 3)

    monkeypatch.setattr(pop, "count_t_sortable", off_by_one_from_3)
    assert verification.check_all_sort_within_n(VerifyOptions(max_n=5)) == (
        False,
        {"n": 3, "t": 3, "count": 6, "catalan": 5},
        {"max_n": 5},
    )
    assert sizes == [1, 2, 3]


def test_rmap_check_compares_r_with_the_231_enumeration(monkeypatch):
    # r without the complement: the image of S_2's Pop image {12} becomes {21}
    monkeypatch.setattr(perms, "_r_rows", lambda rows: rows[:, ::-1])
    assert verification.check_rmap_bijection(VerifyOptions(max_n=3)) == (
        False,
        {"n": 1, "failure": "r image mismatch"},
        {"max_n": 3},
    )
