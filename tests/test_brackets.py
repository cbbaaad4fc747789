"""Vector encoding of the lattice: validity, round trips, order, meets."""

import itertools
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tamaripop import brackets
from tamaripop.brackets import (
    BracketVector,
    _check_key_bound,
    _decode,
    _decode_rows,
    _first_order_difference,
    _incomparable,
    _lattice_tables,
    _lower_covers,
    _slot_entries,
    _slot_rows,
    _split_rows,
    _unpack_bits,
    _vector_rows,
    _whole_rows,
    enumerate_vectors,
    is_valid,
    leq,
    meet,
    path_to_vector,
    vector_to_path,
)
from tamaripop.paths import (
    BoundExceeded,
    LatticePath,
    NuContext,
    covers_down,
    covers_up,
    east_staircase,
    enumerate_tam,
    lies_weakly_above,
    staircase,
)
from tamaripop.pop import _pop_entries, _pop_rows
from test_census import _traced_peak

CATALAN = [1, 1, 2, 5, 14, 42, 132]


def test_worked_example():
    ctx = NuContext.from_text("ENNEEEENNE")
    from tamaripop.paths import parse_path

    mu = parse_path("NENENEEENE")
    v = path_to_vector(mu, ctx)
    assert v.entries == (1, 0, 1, 3, 3, 3, 2, 2, 3, 4, 4)
    assert vector_to_path(v) == mu


def test_base_path_maps_to_heights():
    ctx = NuContext.from_text("ENENE")
    v = path_to_vector(ctx.nu, ctx)
    assert v.entries == ctx.heights
    assert v.entries == (0, 0, 1, 1, 2, 2)


def test_validity_conditions():
    ctx = NuContext.from_text("ENENE")
    assert is_valid((2, 0, 2, 1, 2, 2), ctx)
    assert is_valid((0, 0, 1, 1, 2, 2), ctx)
    # fixed entry broken
    assert not is_valid((0, 1, 1, 1, 2, 2), ctx)
    # below the height floor
    assert not is_valid((0, 0, 0, 1, 2, 2), ctx)
    # above the top height
    assert not is_valid((3, 0, 1, 1, 2, 2), ctx)
    # 121-pattern: a 1 reappears after the window of a 1 was closed by a 0... here
    # entry 1 at index 0 forces everything up to fixed_positions[1]=3 to stay <= 1
    assert not is_valid((1, 0, 2, 1, 2, 2), ctx)
    with pytest.raises(ValueError):
        is_valid((0, 0), ctx)


@pytest.mark.parametrize("n", range(1, 7))
def test_enumerate_vectors_counts(n):
    assert len(enumerate_vectors(NuContext.from_path(east_staircase(n)))) == CATALAN[n]
    assert len(enumerate_vectors(NuContext.from_path(staircase(n)))) == CATALAN[n]


def test_enumeration_routes_agree():
    for text in ["ENENE", "NENENE", "ENNEEEENNE", "EENNE"]:
        ctx = NuContext.from_text(text)
        via_paths = sorted(path_to_vector(mu, ctx).entries for mu in enumerate_tam(ctx))
        via_vectors = sorted(v.entries for v in enumerate_vectors(ctx))
        assert via_paths == via_vectors


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**12 - 1), st.integers(1, 12))
def test_round_trip_random_paths(bits, ell):
    text = "".join("N" if bits & (1 << i) else "E" for i in range(ell))
    ctx = NuContext.from_text(text)
    for mu in enumerate_tam(ctx):
        v = path_to_vector(mu, ctx)
        assert is_valid(v.entries, ctx)
        assert vector_to_path(v) == mu


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_non_members_are_rejected_on_random_nu(data):
    text = data.draw(st.text("NE", min_size=1, max_size=10))
    ctx = NuContext.from_text(text)
    mu = LatticePath("".join(data.draw(st.permutations(text))))
    member = lies_weakly_above(mu, ctx)
    for f in (path_to_vector, covers_down, covers_up):
        if member:
            f(mu, ctx)
        else:
            with pytest.raises(ValueError, match=f"^{mu} is not weakly above {text}$"):
                f(mu, ctx)
    longer = LatticePath(text + "N")
    mismatch = f"{longer} ends at {longer.endpoint}, {text} ends at {ctx.nu.endpoint}"
    for f in (lies_weakly_above, path_to_vector, covers_down, covers_up):
        with pytest.raises(ValueError, match=f"^endpoint mismatch: {re.escape(mismatch)}$"):
            f(longer, ctx)


def _assert_array_maps_match_the_scalar_maps(text):
    """_slot_rows equals _slot_entries and _decode_rows equals _decode, row
    for row, over all of Tam(text)."""
    ctx = NuContext.from_text(text)
    mus = enumerate_tam(ctx)
    V = _slot_rows(mus.east, ctx)
    assert V.tolist() == [_slot_entries(mu.steps, ctx) for mu in mus]
    decoded = ["".join(row) for row in np.where(_decode_rows(V), "E", "N").tolist()]
    assert decoded == [_decode(v, ctx).steps for v in V.tolist()]


def test_array_slot_fill_and_decode_match_the_scalar_maps_on_every_short_nu():
    for ell in range(1, 9):
        for bits in itertools.product("NE", repeat=ell):
            _assert_array_maps_match_the_scalar_maps("".join(bits))


@settings(max_examples=30, deadline=None)
@given(st.text("NE", min_size=9, max_size=14))
def test_array_slot_fill_and_decode_match_the_scalar_maps_on_random_nu(text):
    _assert_array_maps_match_the_scalar_maps(text)


def test_leq_matches_cover_order():
    # componentwise order must agree with reachability through covers
    ctx = NuContext.from_text("NENENE")
    elements = enumerate_tam(ctx)
    vec = {mu: path_to_vector(mu, ctx) for mu in elements}
    below = {mu: {mu} for mu in elements}
    changed = True
    while changed:
        changed = False
        for mu in elements:
            for lower in covers_down(mu, ctx):
                new = below[lower] - below[mu]
                if new:
                    below[mu] |= new
                    changed = True
    for a in elements:
        for b in elements:
            assert leq(vec[a], vec[b]) == (a in below[b])


def test_meet_is_greatest_lower_bound():
    ctx = NuContext.from_text("ENENENE")
    vectors = enumerate_vectors(ctx)
    rng = random.Random(7)
    pairs = [(rng.choice(vectors), rng.choice(vectors)) for _ in range(40)]
    for a, b in pairs:
        m = meet(a, b)
        assert is_valid(m.entries, ctx)
        assert leq(m, a) and leq(m, b)
        for c in vectors:
            if leq(c, a) and leq(c, b):
                assert leq(c, m)


def test_meet_rejects_mixed_contexts():
    a = enumerate_vectors(NuContext.from_text("ENENE"))[0]
    b = enumerate_vectors(NuContext.from_text("NENEE"))[0]
    with pytest.raises(ValueError):
        meet(a, b)


def test_vector_length_checked():
    ctx = NuContext.from_text("ENENE")
    with pytest.raises(ValueError):
        BracketVector((0, 0), ctx)


def test_checked_vector_refuses_what_vector_to_path_would_decode():
    ctx = NuContext.from_text("ENENE")
    entries = (2, 0, 2, 1, 0, 2)  # entry 4 is 0 below height 2
    assert not is_valid(entries, ctx)
    assert vector_to_path(BracketVector(entries, ctx)).steps == "ENNEE"
    with pytest.raises(ValueError, match="not a valid vector"):
        BracketVector.checked(entries, ctx)
    assert BracketVector.checked([2, 0, 2, 1, 2, 2], ctx) == BracketVector((2, 0, 2, 1, 2, 2), ctx)


@pytest.mark.parametrize(
    "entries, message",
    [
        ((0, 0, 1, 1, 3, 2), "entry 3 out of range for nu=ENENE"),
        ((0, 0, 1, 1, -1, 2), "entry -1 out of range for nu=ENENE"),
        ((0, 0, 1, 1, 1.5, 2), "entry 1.5 out of range for nu=ENENE"),
        ((0, 0, 0, 0, 2, 2), "(0,0,0,0,2,2) is not a valid vector for nu=ENENE"),
    ],
)
def test_vector_to_path_names_an_entry_it_cannot_decode(entries, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        vector_to_path(BracketVector(entries, NuContext.from_text("ENENE")))


def _assert_tables_match_scalar_covers(text):
    """The array cover edges are paths.covers_down of every element, and the
    packed rows are the dense reflexive-transitive closure of those covers."""
    ctx = NuContext.from_text(text)
    mus, _, down, covers = _lattice_tables(ctx)
    assert not mus.east.flags.writeable  # reordered, yet read-only like enumerate_tam
    index = {mu.steps: i for i, mu in enumerate(mus)}
    lower = [[index[c.steps] for c in covers_down(mu, ctx)] for mu in mus]
    assert set(map(tuple, covers.tolist())) == {(i, j) for i, js in enumerate(lower) for j in js}
    below = np.zeros((len(mus), len(mus)), dtype=bool)
    done = set()

    def close(i):
        for j in lower[i]:
            if j not in done:
                close(j)
            below[i] |= below[j]
        below[i, i] = True
        done.add(i)

    for i in range(len(mus)):
        close(i)
    assert (_unpack_bits(down, len(mus)) == below).all()


@pytest.mark.parametrize("ell", range(1, 9))
def test_array_covers_and_closure_match_the_scalar_route_on_every_short_word(ell):
    for bits in itertools.product("NE", repeat=ell):
        _assert_tables_match_scalar_covers("".join(bits))


@settings(max_examples=30, deadline=None)
@given(st.text("NE", min_size=9, max_size=14))
def test_array_covers_and_closure_match_the_scalar_route_on_random_nu(text):
    _assert_tables_match_scalar_covers(text)


@pytest.mark.parametrize("text", ["ENEENENEEN", "NNEENENEEE", "E" + "NE" * 5])
def test_order_rows_built_and_read_one_row_a_block_match_the_dense_order(monkeypatch, text):
    # 1 byte: one cover ORed in at a time, one row a block of down-sets and
    # of incomparable pairs, where the default rule takes each level at once
    monkeypatch.setattr(brackets, "BLOCK_BYTES", 1)
    _assert_tables_match_scalar_covers(text)
    _, V, down, _ = _lattice_tables(NuContext.from_text(text))
    assert _first_order_difference(V, down) is None
    below = _unpack_bits(down, len(V)).T  # [i, j]: i <= j
    rows = np.arange(len(V))[::3]
    expected = ~(below | below.T)[rows]
    assert (_incomparable(down, rows) == expected).all()


def test_array_cover_that_leaves_the_paths_is_an_error():
    ctx = NuContext.from_text("ENENE")
    mus = enumerate_tam(ctx)[:-1]  # drop the bottom, ENENE, the last row in N < E order
    with pytest.raises(RuntimeError, match="lower cover outside"):
        _lower_covers(mus, ctx)


def test_lattice_tables_admit_62_steps_and_refuse_63():
    # E^61 N has 62 steps and 62 elements; E^62 N's 63-step keys pass int64
    assert len(_lattice_tables(NuContext.from_text("E" * 61 + "N"))[0]) == 62
    with pytest.raises(BoundExceeded, match="63 steps .* int64"):
        _lattice_tables(NuContext.from_text("E" * 62 + "N"))


@pytest.mark.parametrize("base, width", [(2, 63), (1, 100), (0, 100)])
def test_key_bound_admits_keys_that_fit_int64(base, width):
    _check_key_bound(base, width, "keys")


@pytest.mark.parametrize("base, width", [(2, 64), (2_000_000, 2_000_000)])
def test_key_bound_refuses_keys_past_int64(base, width):
    message = f"keys needs {base}^{width} keys, more than int64 holds"
    with pytest.raises(BoundExceeded, match=f"^{re.escape(message)}$"):
        _check_key_bound(base, width, "keys")


@pytest.mark.parametrize("text", ["N", "NNN", "NNNE", "EN", "EEEN", "E" * 9 + "N"])
def test_free_column_rows_on_base_paths_with_few_free_columns(text):
    # no free column (N, NNN), one forced to its height n_nu (NNNE), and one
    # per east step of E^k N, all at height 0
    ctx = NuContext.from_text(text)
    assert ctx.free_positions == tuple(i for i, step in enumerate(text) if step == "E")
    rows = _vector_rows(ctx)
    m = len(enumerate_tam(ctx))
    assert rows.shape == (m, text.count("E"))
    expected = sorted(list(path_to_vector(mu, ctx).entries) for mu in enumerate_tam(ctx))
    assert _whole_rows(rows, ctx).tolist() == expected  # in lexicographic order
    popped = _pop_rows(rows, ctx)
    assert popped.shape == rows.shape
    pops = [list(_pop_entries(tuple(e), ctx.heights, ctx.fixed_positions)) for e in expected]
    assert _whole_rows(popped, ctx).tolist() == pops


def test_split_rows_returns_at_once_where_every_cap_is_low():
    # the last free column of E(NE)^(n-1) has height n_nu, so each row admits
    # one value there: no parent index (8 bytes a row) is built, nothing moves
    rng = np.random.default_rng(0)
    out = np.asfortranarray(rng.integers(0, 5, size=(100_000, 3), dtype=np.int8))
    out[:, 1] = 4
    before = out.copy()
    r, peak = _traced_peak(lambda: _split_rows(out, 60_000, 1, 4))
    assert r == 60_000
    np.testing.assert_array_equal(out, before)
    assert peak < 10_000
    # one cap above low still splits: row 0 into values 3 and 4
    out[1, 1] = 3
    assert _split_rows(out, 2, 1, 3) == 3
    (a, _, b), (c, _, d) = before[:2].tolist()
    assert out[:3].tolist() == [[a, 3, b], [a, 4, b], [c, 3, d]]
