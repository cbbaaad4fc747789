"""Permutation side: pop-stack, pattern avoidance, the projection, the bijection."""

import itertools
import random
import tracemalloc

import numpy as np
import pytest
from fault_scenarios import bijection_fault, petersen_fault
from hypothesis import given, settings
from hypothesis import strategies as st

from tamaripop import brackets, perms
from tamaripop.paths import BoundExceeded
from tamaripop.perms import (
    Permutation,
    avoids,
    count_231_equal_descents_peaks,
    enumerate_av312,
    image_by_characterization,
    parse_permutation,
    perm_stats,
    pi_down,
    pi_down_random,
    pop_stack,
    pop_tamari_perm,
    r_map,
    tamari_perm_bijection,
    weak_order_covers_down,
)
from tamaripop.pop import pop_vector
from tamaripop.series import a055151, catalan, motzkin
from test_census import SCENARIOS, _run_optimized, _traced_peak


def P(text):
    return parse_permutation(text)


def test_parse_and_validate():
    assert P("312").word == (3, 1, 2)
    assert P("10,2,3,4,5,6,7,8,9,1").word[0] == 10
    with pytest.raises(ValueError):
        P("331")
    with pytest.raises(ValueError):
        Permutation((1, 3))


def test_pop_stack_reverses_descending_runs():
    assert pop_stack(P("53412")).word == (3, 5, 1, 4, 2)
    assert pop_stack(P("321")).word == (1, 2, 3)
    assert pop_stack(P("123")).word == (1, 2, 3)
    assert pop_stack(P("1")).word == (1,)


def test_perm_stats():
    st_ = perm_stats(P("35142"))
    assert st_.descent_positions == (1, 3)
    assert st_.ascent_positions == (0, 2)
    assert st_.peak_positions == (1, 3)
    # maximal descending runs 3 | 51 | 42
    assert st_.run_lengths == (1, 2, 2)


def test_avoids():
    assert avoids(P("3142"), "312") is False
    assert avoids(P("1234"), "312") is True
    assert avoids(P("231"), "231") is False
    assert avoids(P("54321"), "231") is True
    with pytest.raises(ValueError):
        avoids(P("1"), "132")


@pytest.mark.parametrize("n", range(9))
def test_stack_test_matches_every_index_triple(n):
    words = list(itertools.permutations(range(1, n + 1)))
    has_231, has_312 = set(), set()
    for w in words:
        for a, b, c in itertools.combinations(w, 3):  # values at positions i < j < k
            if c < a < b:
                has_231.add(w)
            if b < c < a:
                has_312.add(w)
    assert [avoids(Permutation(w), "231") for w in words] == [w not in has_231 for w in words]
    assert [avoids(Permutation(w), "312") for w in words] == [w not in has_312 for w in words]


@pytest.mark.parametrize("n", [*range(1, 9), 10])
def test_av312_counts_are_catalan(n):
    words = enumerate_av312(n)
    assert len(words) == catalan(n)
    assert all(avoids(p, "312") for p in words)


@pytest.mark.parametrize("n", range(8))
def test_av312_is_the_lexicographic_filter_of_s_n(n):
    every = (Permutation(w) for w in itertools.permutations(range(1, n + 1)))
    assert enumerate_av312(n) == [p for p in every if avoids(p, "312")]


def test_weak_order_covers_down():
    covers = {q.word for q in weak_order_covers_down(P("2143"))}
    assert covers == {(1, 2, 4, 3), (2, 1, 3, 4)}
    assert weak_order_covers_down(P("123")) == set()


def test_pi_down_clears_blocked_descents():
    # 2413: descent (4,1) with the later 3 sitting between them gets swapped
    assert pi_down(P("2413")).word == (2, 1, 4, 3)
    # 321 has no witness between any descent pair, so it is already stable
    assert pi_down(P("321")).word == (3, 2, 1)
    assert pi_down(P("312")).word == (1, 3, 2)


def test_pi_down_projects_onto_312_avoiders():
    import itertools

    for n in range(1, 7):
        for w in itertools.permutations(range(1, n + 1)):
            p = Permutation(w)
            q = pi_down(p)
            assert avoids(q, "312")
            if avoids(p, "312"):
                assert q == p


@settings(max_examples=200, deadline=None)
@given(st.permutations(list(range(1, 8))), st.integers(0, 2**31))
def test_pi_down_confluence(word, seed):
    p = Permutation(tuple(word))
    rng = random.Random(seed)
    assert pi_down_random(p, rng) == pi_down(p)


def _pi_down_full_rescan(p):
    """pi_down by its definition: rescan every position for the leftmost
    corner after every swap."""
    w = list(p.word)
    while True:
        corners = [
            i for i in range(len(w) - 1)
            if w[i] > w[i + 1] and any(w[i + 1] < b < w[i] for b in w[i + 2 :])
        ]
        if not corners:
            return Permutation(tuple(w))
        i = corners[0]
        w[i], w[i + 1] = w[i + 1], w[i]


@pytest.mark.parametrize("n", range(1, 8))
def test_pi_down_resuming_at_the_swap_matches_a_full_rescan_on_all_of_s_n(n):
    for w in itertools.permutations(range(1, n + 1)):
        p = Permutation(w)
        assert pi_down(p) == _pi_down_full_rescan(p)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: st.permutations(list(range(1, n + 1)))))
def test_pi_down_resuming_at_the_swap_matches_a_full_rescan(word):
    p = Permutation(tuple(word))
    assert pi_down(p) == _pi_down_full_rescan(p)


def _phi_word(n, rng):
    """A 312-avoiding word on 1..n: the value 1 at a uniform position k,
    then (phi(k - 1) + 1, 1, phi(n - k) + k)."""
    if n == 0:
        return []
    k = rng.randint(1, n)
    left, right = _phi_word(k - 1, rng), _phi_word(n - k, rng)
    return [x + 1 for x in left] + [1] + [x + k for x in right]


def test_pi_down_on_a_long_312_avoider_matches_a_full_rescan():
    p = Permutation(tuple(_phi_word(300, random.Random(0))))
    assert avoids(p, "312")
    q = pop_stack(p)
    assert not avoids(q, "312")  # so pi_down has corners to clear
    assert pi_down(q) == _pi_down_full_rescan(q)
    assert pi_down(p) == _pi_down_full_rescan(p) == p


def _bst_parents(word):
    """The parent of each value in the binary search tree of word, its
    letters inserted from the right one at a time from the root down."""
    root = word[-1]
    parent, child = {root: None}, {}  # child[(node, x > node)]
    for x in reversed(word[:-1]):
        node = root
        while (node, x > node) in child:
            node = child[(node, x > node)]
        child[(node, x > node)], parent[x] = x, node
    return parent


def test_pi_down_is_the_312_avoider_with_the_same_search_tree_on_long_words():
    # each sylvester class holds exactly one 312-avoider, so these two facts pin pi_down
    rng = random.Random(0)
    words = [list(range(1, 501)), list(range(500, 0, -1))]
    for _ in range(50):
        word = list(range(1, rng.randint(1, 500) + 1))
        rng.shuffle(word)
        words.append(word)
    for word in words:
        q = pi_down(Permutation(tuple(word)))
        assert avoids(q, "312")
        assert _bst_parents(list(q.word)) == _bst_parents(word)


@pytest.mark.parametrize("n", range(1, 10))
def test_pop_tamari_perm_is_pi_down_after_pop_stack(n):
    for p in enumerate_av312(n):
        assert pop_tamari_perm(p) == pi_down(pop_stack(p))


def test_pop_tamari_requires_312_avoidance():
    with pytest.raises(ValueError):
        pop_tamari_perm(P("312"))


def test_pop_tamari_examples():
    assert pop_tamari_perm(P("231")).word == (2, 1, 3)
    assert pop_tamari_perm(P("123")).word == (1, 2, 3)
    # identity is the unique fixed point
    for n in range(1, 7):
        fixed = [p for p in enumerate_av312(n) if pop_tamari_perm(p) == p]
        assert fixed == [Permutation(tuple(range(1, n + 1)))]


@pytest.mark.parametrize("n", range(1, 9))
def test_image_characterization(n):
    image = {pop_tamari_perm(p) for p in enumerate_av312(n)}
    assert image == image_by_characterization(n)
    assert len(image) == motzkin(n - 1)


def test_image_members_shape():
    for q in image_by_characterization(6):
        word = q.word
        assert word[-1] == 6
        stats = perm_stats(q)
        assert avoids(q, "312")
        # no two consecutive descent positions
        d = stats.descent_positions
        assert all(b - a > 1 for a, b in zip(d, d[1:]))


def test_r_map_involution_shape():
    assert r_map(P("213")).word == (1, 3, 2)
    q = P("2134")
    assert r_map(r_map(q)) == q


def test_r_map_sends_image_to_231_descent_peak_set():
    n = 5
    image = {pop_tamari_perm(p) for p in enumerate_av312(n + 1)}
    for p in image:
        q = r_map(p)
        stats = perm_stats(q)
        assert avoids(q, "231")
        assert len(stats.descent_positions) == len(stats.peak_positions)


@pytest.mark.parametrize("n", range(0, 7))
def test_descent_peak_counts_match_formula(n):
    for k in range(0, n // 2 + 1):
        assert count_231_equal_descents_peaks(n, k) == a055151(n, k)


@pytest.mark.parametrize("m", range(0, 9))
def test_scan_matches_scalar_definition(m):
    def descents(w):
        return sum(1 for i in range(m - 1) if w[i] > w[i + 1])

    def peaks(w):
        return sum(1 for i in range(1, m - 1) if w[i - 1] < w[i] > w[i + 1])

    expected = tuple(
        w
        for w in itertools.permutations(range(1, m + 1))
        if descents(w) == peaks(w) and avoids(Permutation(w), "231")
    )
    assert perms._equal_descents_peaks_231(m).tolist() == [list(w) for w in expected]
    for k in range(m):
        assert count_231_equal_descents_peaks(m - 1, k) == sum(descents(w) == k for w in expected)


class _Enumerated(Exception):
    pass


@pytest.mark.parametrize(
    "enumerate_at",  # each enumerates the 312-avoiders on 1..m
    [
        enumerate_av312,
        image_by_characterization,
        lambda m: count_231_equal_descents_peaks(m - 1, 0),
    ],
    ids=["enumerate_av312", "image_by_characterization", "count_231"],
)
def test_forced_recursion_stops_at_13_before_enumerating(monkeypatch, enumerate_at):
    def no_enumeration(n):
        raise _Enumerated

    monkeypatch.setattr(perms, "_phi_words", no_enumeration)
    with pytest.raises(BoundExceeded, match="exceeds the enumeration bound"):
        enumerate_at(14)
    # m = 13 passes the bound and reaches the recursion
    with pytest.raises(_Enumerated):
        enumerate_at(13)


@pytest.mark.parametrize(
    "n, k, error, message",
    [
        (-5, -1, ValueError, "need n >= 0, got -5$"),
        (-2, 0, ValueError, "need n >= 0, got -2$"),
        (-1, 0, ValueError, "need n >= 0, got -1$"),
        (13, 0, BoundExceeded, "^n=13 exceeds the enumeration bound 12$"),
        (13, -1, BoundExceeded, "^n=13 exceeds the enumeration bound 12$"),
    ],
)
def test_count_231_refusals_name_the_n_passed(n, k, error, message):
    with pytest.raises(error, match=message):
        count_231_equal_descents_peaks(n, k)


def test_petersen_check_fails_on_a_recursion_missing_a_word():
    assert petersen_fault() is None


def test_petersen_fault_fails_under_python_optimize():
    proc = _run_optimized(SCENARIOS, "petersen")
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("n", range(1, 7))
def test_inversion_masks_give_the_weak_order(n):
    below: dict = {}  # reflexive-transitive closure of weak_order_covers_down

    def down_set(w):
        if w not in below:
            covers = weak_order_covers_down(Permutation(w))
            below[w] = {w}.union(*(down_set(c.word) for c in covers))
        return below[w]

    # the inversion masks are the 0/1 indicator rows, through the shared
    # componentwise kernel: n = 1 has no columns, and no n here fills its
    # last 64-bit word
    words = list(itertools.permutations(range(1, n + 1)))
    indicators = perms._inversion_indicators(words)
    rows = np.concatenate([block for _, block in brackets._componentwise_down_rows(indicators)])
    leq = brackets._unpack_bits(rows, len(words))
    for j, w in enumerate(words):
        assert {u for u, c in zip(words, leq[j]) if c} == down_set(w)
    padding = brackets._unpack_bits(rows, 64 * rows.shape[1])[:, len(words) :]
    assert not padding.any()


def test_bijection_fault_names_a_pair_that_differs():
    assert bijection_fault() is None


def test_bijection_fault_raises_under_python_optimize():
    proc = _run_optimized(SCENARIOS, "bijection")
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("n", range(1, 8))
def test_bijection_commutes_with_pop(n):
    mapping = tamari_perm_bijection(n)
    assert len(mapping) == catalan(n)
    for p, v in mapping.items():
        assert mapping[pop_tamari_perm(p)] == pop_vector(v)


def _phi_dict(n):
    """The recursion of _phi_words over dicts of tuples, word to vector, in
    its insertion order: the block of each k, left words outer."""
    if n == 0:
        return {(): ()}
    out = {}
    for k in range(1, n + 1):
        for lw, lv in _phi_dict(k - 1).items():
            word_l = tuple(x + 1 for x in lw) + (1,)
            head = (k - 1, 0) + tuple(x + 1 for x in lv)
            for rw, rv in _phi_dict(n - k).items():
                out[word_l + tuple(x + k for x in rw)] = head + tuple(x + k for x in rv)
    return out


def test_phi_rows_pair_each_word_with_its_vector():
    W, V = perms._phi_words(3)
    assert list(zip(map(tuple, W.tolist()), map(tuple, V.tolist()))) == [
        ((1, 2, 3), (0, 0, 1, 1, 2, 2)),
        ((1, 3, 2), (0, 0, 2, 1, 2, 2)),
        ((2, 1, 3), (1, 0, 1, 1, 2, 2)),
        ((2, 3, 1), (2, 0, 1, 1, 2, 2)),
        ((3, 2, 1), (2, 0, 2, 1, 2, 2)),
    ]
    for n in range(9):
        W, V = perms._phi_words(n)
        assert (W.dtype, V.dtype, W.flags.writeable, V.flags.writeable) == (np.int8, np.int8, False, False)
        assert dict(zip(map(tuple, W.tolist()), map(tuple, V.tolist()))) == _phi_dict(n)
        assert list(map(tuple, W.tolist())) == list(_phi_dict(n))


@pytest.mark.parametrize("n", range(1, 10))
def test_array_pop_matches_pop_tamari_perm_on_every_312_avoider(n):
    W = perms._av312_words(n)
    expected = [list(pop_tamari_perm(Permutation(tuple(w))).word) for w in W.tolist()]
    assert perms._pop_words(W).tolist() == expected


@pytest.mark.parametrize("n", range(1, 8))
def test_array_pi_down_matches_pi_down_on_all_of_s_n(n):
    S = np.array(list(itertools.permutations(range(1, n + 1))), dtype=np.int8)
    before = S.copy()
    expected = [list(pi_down(Permutation(tuple(w))).word) for w in S.tolist()]
    assert perms._pi_down_rows(S).tolist() == expected
    assert np.array_equal(S, before)  # the input is left as it is


def test_bijection_identity_goes_to_bottom():
    mapping = tamari_perm_bijection(4)
    ident = Permutation((1, 2, 3, 4))
    v = mapping[ident]
    assert v.entries == v.ctx.heights


def _inversions(word):
    return {(a, b) for a, b in itertools.combinations(sorted(word), 2) if word.index(b) < word.index(a)}


def _writable_phi(n):
    """Writable copies (W, V) of _phi_words(n), and the row of each word."""
    W, V = (X.copy() for X in perms._phi_words(n))
    return W, V, {w: i for i, w in enumerate(map(tuple, W.tolist()))}


def test_bijection_rejects_a_map_that_breaks_the_order(monkeypatch):
    W, V, row = _writable_phi(4)
    bottom, top = row[(1, 2, 3, 4)], row[(4, 3, 2, 1)]
    V[[bottom, top]] = V[[top, bottom]]
    # scalar scan for the pair the message must name: rows in table order,
    # the least row i that disagrees with any row, then the least j for it
    vecs = list(map(tuple, perms._lattice_tables(perms._east_staircase_ctx(4))[1].tolist()))
    word_of = dict(zip(map(tuple, V.tolist()), map(tuple, W.tolist())))
    words = [word_of[v] for v in vecs]

    def weak(i, j):
        return _inversions(words[i]) <= _inversions(words[j])

    def disagree(i, j):
        return weak(i, j) != all(a <= b for a, b in zip(vecs[i], vecs[j]))

    i = next(i for i in range(len(vecs)) if any(disagree(i, j) for j in range(len(vecs))))
    differing = [j for j in range(len(vecs)) if disagree(i, j)]
    assert len(differing) > 1  # so the least j is not the only one
    j = differing[0]
    expected = (
        f"constructed map is not an order isomorphism for n=4: "
        f"{words[i]} <= {words[j]} is {weak(i, j)} in the weak order, "
        f"{vecs[i]} <= {vecs[j]} is {not weak(i, j)} in Tamari"
    )
    monkeypatch.setattr(perms, "_phi_words", lambda n: (W, V))
    perms._verified_bijection.cache_clear()
    try:
        with pytest.raises(RuntimeError) as exc:
            tamari_perm_bijection(4)
    finally:
        perms._verified_bijection.cache_clear()
    assert str(exc.value) == expected


@pytest.fixture
def cold_bijection_caches():
    caches = (perms._verified_bijection, perms._phi_words)
    for f in caches:
        f.cache_clear()
    yield
    for f in caches:
        f.cache_clear()


def test_bijection_rejects_a_map_that_is_not_onto(monkeypatch, cold_bijection_caches):
    W, V, row = _writable_phi(4)
    V[row[(4, 3, 2, 1)]] = V[row[(1, 2, 3, 4)]]  # two words share the bottom vector; the top has none
    monkeypatch.setattr(perms, "_phi_words", lambda n: (W, V))
    with pytest.raises(RuntimeError, match="constructed map is not onto the vectors for n=4"):
        tamari_perm_bijection(4)


def test_bijection_is_onto_the_table_it_compares(monkeypatch, cold_bijection_caches):
    real = perms._lattice_tables

    def altered(ctx):
        mus, V, down, covers = real(ctx)
        V[-1] = V[0]  # the top's vector becomes a second bottom
        return mus, V, down, covers

    monkeypatch.setattr(perms, "_lattice_tables", altered)
    with pytest.raises(RuntimeError, match="constructed map is not onto the vectors for n=4"):
        tamari_perm_bijection(4)


def test_bijection_builds_one_table_and_no_vector_rows(monkeypatch, cold_bijection_caches):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("enumerated the vectors a second way")

    for module in (brackets, perms):
        monkeypatch.setattr(module, "_vector_rows", no_enumeration, raising=False)
    built = []
    real = perms._lattice_tables
    monkeypatch.setattr(perms, "_lattice_tables", lambda ctx: built.append(ctx) or real(ctx))
    assert len(tamari_perm_bijection(6)) == catalan(6)
    assert built == [perms._east_staircase_ctx(6)]


def test_enumeration_bound_raises_bound_exceeded():
    with pytest.raises(BoundExceeded):
        enumerate_av312(14)


def test_bijection_refuses_n_past_the_order_matrix_bound_before_enumerating(monkeypatch):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("enumerated past the order-matrix bound")

    for name in ("_av312_words", "_phi_words", "_lattice_tables"):
        monkeypatch.setattr(perms, name, no_enumeration)
    # Tam_11 has 58,786 elements and Tam_12 208,012: both order matrices are too large
    for n in (11, 12):
        with pytest.raises(BoundExceeded, match="order matrix"):
            tamari_perm_bijection(n)


def _random_word_rows(seed, m, n):
    """m seeded random int8 permutation rows of size n, a third of them
    copies of earlier rows, so duplicates occur."""
    rng = np.random.default_rng(seed)
    rows = rng.permuted(np.tile(np.arange(1, n + 1, dtype=np.int8), (m, 1)), axis=1)
    copies = rng.integers(0, max(m, 1), size=m // 3)
    rows[len(rows) - len(copies) :] = rows[copies]
    return rows


_ROW_SHAPES = [(0, 5), (1, 1), (1, 6), (2, 2), (40, 3), (300, 7), (500, 12)]


@pytest.mark.parametrize("m, n", _ROW_SHAPES)
def test_descents_peaks_match_a_loop_over_each_word(m, n):
    rows = _random_word_rows(m + n, m, n)
    descents, peaks = perms._descents_peaks(rows)
    assert descents.dtype == peaks.dtype == np.int8
    words = rows.tolist()
    assert descents.tolist() == [sum(w[i] > w[i + 1] for i in range(n - 1)) for w in words]
    assert peaks.tolist() == [
        sum(w[i - 1] < w[i] > w[i + 1] for i in range(1, n - 1)) for w in words
    ]


@pytest.mark.parametrize("m, n", [*_ROW_SHAPES, (0, 0), (4, 0)])
def test_sorted_rows_are_the_sorted_distinct_rows(m, n):
    # small values in each column, so rows repeat beyond the copied ones
    rows = np.random.default_rng(m + n).integers(-2, 3, size=(m, n), dtype=np.int8)
    rows[m // 2 :] = rows[: m - m // 2]
    got = perms._sorted_rows(rows)
    assert got.dtype == np.int8 and not got.flags.writeable
    assert list(map(tuple, got.tolist())) == sorted(set(map(tuple, rows.tolist())))


@pytest.mark.parametrize("n", range(1, 7))
def test_inversion_indicators_match_a_loop_over_value_pairs(n):
    words = list(itertools.permutations(range(1, n + 1)))
    expected = [
        [int(w.index(b) < w.index(a)) for a, b in itertools.combinations(range(1, n + 1), 2)]
        for w in words
    ]
    for given in (words, np.array(words, dtype=np.int8)):
        indicators = perms._inversion_indicators(given)
        assert indicators.dtype == np.int8
        assert indicators.tolist() == expected


@pytest.mark.parametrize("n", range(1, 10))  # n = 9 fills the dict in two blocks
def test_bijection_iterates_in_the_row_order_of_phi_words(n):
    W, V = perms._phi_words(n)
    mapping = tamari_perm_bijection(n)
    assert [p.word for p in mapping] == list(map(tuple, W.tolist()))
    assert [v.entries for v in mapping.values()] == list(map(tuple, V.tolist()))


def test_cold_bijection_at_nine_stays_under_its_traced_peak(cold_bijection_caches):
    # the peak is set while the order is verified: int8 positions and a
    # bool indicator view peak near 5.0 MB, int64 positions peaked at 7.0 MB
    mapping, peak = _traced_peak(lambda: tamari_perm_bijection(9))
    assert len(mapping) == catalan(9)
    assert peak < 5.5e6


def test_bijection_dict_is_filled_a_block_of_rows_at_a_time():
    # once the order is verified, the lists of one block of rows of W and V
    # beside the dict at n = 9 peak 0.68 MB above what the call leaves held;
    # a tolist of every row of W and V peaked 1.67 MB above it
    perms._verified_bijection(9)
    tracemalloc.start()
    try:
        mapping = tamari_perm_bijection(9)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(mapping) == catalan(9)
    assert peak - held < 1.0e6
