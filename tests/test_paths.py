"""Lattice path primitives: parsing, geometry, covers, enumeration."""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tamaripop import brackets, paths
from tamaripop.brackets import enumerate_vectors
from tamaripop.paths import (
    BoundExceeded,
    LatticePath,
    NuContext,
    _count_tam,
    covers_down,
    covers_up,
    east_staircase,
    enumerate_tam,
    horizontal_distance,
    lies_weakly_above,
    parse_path,
    staircase,
)

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429]


def test_parse_and_basic_geometry():
    p = parse_path("ENNEEEENNE")
    assert p.ell == 10
    assert p.north_count == 4
    assert p.east_count == 6
    assert p.endpoint == (6, 4)
    assert p.heights() == (0, 0, 1, 2, 2, 2, 2, 2, 3, 4, 4)


def test_parse_rejects_bad_letters():
    # a bad letter is found wherever it stands
    for text, bad in [("XNE", "['X']"), ("NXE", "['X']"), ("NEX", "['X']"), ("NnEX ", "[' ', 'X', 'n']")]:
        message = f"invalid step characters {bad} in {text!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_path(text)
    with pytest.raises(ValueError, match="^a lattice path needs at least one step$"):
        parse_path("")


@pytest.mark.parametrize("steps", [["N", "E"], ("N", "E"), 7], ids=["list", "tuple", "int"])
def test_steps_that_are_not_a_string_are_refused(steps):
    name = type(steps).__name__
    with pytest.raises(TypeError, match=f"^lattice path steps must be a str, not {name}$"):
        LatticePath(steps)


def test_staircase_shapes():
    assert staircase(3).steps == "NENENE"
    assert east_staircase(4).steps == "ENENENE"
    with pytest.raises(ValueError):
        staircase(0)


def test_context_fixed_positions():
    ctx = NuContext.from_text("ENNEEEENNE")
    # largest index at each height 0..4
    assert ctx.fixed_positions == (1, 2, 7, 8, 10)
    assert ctx.n_nu == 4
    ctx2 = NuContext.from_text("ENENE")
    assert ctx2.fixed_positions == (1, 3, 5)


def test_horizontal_distance_steps():
    # east steps drop the distance by one, north steps never drop it
    ctx = NuContext.from_text("ENNEEEENNE")
    for mu in enumerate_tam(ctx):
        pts = mu.points()
        dists = [horizontal_distance(ctx, p) for p in pts]
        for step, a, b in zip(mu.steps, dists, dists[1:]):
            if step == "E":
                assert b == a - 1
            else:
                assert b >= a


def test_lies_weakly_above():
    ctx = NuContext.from_text("NENE")
    assert lies_weakly_above(parse_path("NNEE"), ctx)
    assert lies_weakly_above(parse_path("NENE"), ctx)
    assert not lies_weakly_above(parse_path("NEEN"), ctx)
    with pytest.raises(ValueError):
        lies_weakly_above(parse_path("NE"), ctx)


@pytest.mark.parametrize("n", range(1, 8))
def test_enumeration_counts_are_catalan(n):
    assert len(enumerate_tam(NuContext.from_path(staircase(n)))) == CATALAN[n]
    assert len(enumerate_tam(NuContext.from_path(east_staircase(n)))) == CATALAN[n]


def _tam_by_recursion(ctx):
    """Step strings of Tam(nu) in lexicographic order with N < E, by a
    recursion over the steps: the oracle of enumerate_tam."""
    out = []

    def extend(prefix, x, y):
        if len(prefix) == ctx.ell:
            out.append(prefix)
            return
        if y < ctx.n_nu:
            extend(prefix + "N", x, y + 1)
        if x < ctx._rightmost[y]:
            extend(prefix + "E", x + 1, y)

    extend("", 0, 0)
    return out


def test_enumeration_matches_the_recursion_on_every_short_nu():
    for ell in range(1, 11):
        for bits in itertools.product("NE", repeat=ell):
            ctx = NuContext.from_text("".join(bits))
            assert [mu.steps for mu in enumerate_tam(ctx)] == _tam_by_recursion(ctx)


@settings(max_examples=30, deadline=None)
@given(st.text("NE", min_size=11, max_size=16), st.integers(0, 2**16))
def test_enumeration_matches_the_recursion_on_random_nu(text, seed):
    ctx = NuContext.from_text(text)
    expected = _tam_by_recursion(ctx)
    mus = enumerate_tam(ctx)
    assert len(mus) == len(expected) == _count_tam(ctx)
    assert [mu.steps for mu in mus] == expected
    i = seed % len(expected)
    assert (mus[i].steps, mus[i - len(expected)].steps) == (expected[i], expected[i])
    assert [mu.steps for mu in mus[i::3]] == expected[i::3]
    assert not mus.east.flags.writeable


def test_enumeration_is_read_only_and_equal_by_its_rows():
    ctx = NuContext.from_text("ENENNE")
    mus = enumerate_tam(ctx)
    assert mus == enumerate_tam(ctx) and mus[1:] != mus[:-1]
    assert not mus.east.flags.writeable and not mus[::2].east.flags.writeable
    with pytest.raises(TypeError):
        hash(mus)


def test_enumeration_stores_steps_not_int64_keys_past_62_steps():
    mus = enumerate_tam(NuContext.from_text("E" * 100 + "N"))
    assert [mu.steps for mu in mus] == ["E" * k + "N" + "E" * (100 - k) for k in range(101)]


def test_enumeration_members_lie_above():
    ctx = NuContext.from_text("ENNEEE")
    for mu in enumerate_tam(ctx):
        assert lies_weakly_above(mu, ctx)


def test_cover_up_example():
    ctx = NuContext.from_text("NENE")
    assert {p.steps for p in covers_up(parse_path("NENE"), ctx)} == {"NNEE"}
    assert covers_up(parse_path("NNEE"), ctx) == set()


def test_cover_down_example():
    ctx = NuContext.from_text("NENE")
    assert {p.steps for p in covers_down(parse_path("NNEE"), ctx)} == {"NENE"}
    assert covers_down(parse_path("NENE"), ctx) == set()


def test_covers_are_mutually_inverse():
    for text in ["NENENE", "ENENE", "ENNEEEENNE", "EENNEE"]:
        ctx = NuContext.from_text(text)
        elements = enumerate_tam(ctx)
        up = {mu: covers_up(mu, ctx) for mu in elements}
        down = {mu: covers_down(mu, ctx) for mu in elements}
        for mu in elements:
            for upper in up[mu]:
                assert mu in down[upper]
            for lower in down[mu]:
                assert mu in up[lower]


@settings(max_examples=60, deadline=None)
@given(st.text("NE", min_size=1, max_size=10))
def test_covers_are_mutually_inverse_on_random_nu(text):
    ctx = NuContext.from_text(text)
    elements = enumerate_tam(ctx)
    assert _count_tam(ctx) == len(elements)
    for mu in elements:
        for upper in covers_up(mu, ctx):
            assert mu in covers_down(upper, ctx)
        for lower in covers_down(mu, ctx):
            assert mu in covers_up(lower, ctx)


def test_cover_requires_membership():
    ctx = NuContext.from_text("NENE")
    with pytest.raises(ValueError):
        covers_up(parse_path("NEEN"), ctx)


def test_enumeration_bound():
    long = LatticePath("NE" * 14)
    with pytest.raises(BoundExceeded):
        enumerate_tam(NuContext.from_path(long))
    # force bypasses the guard
    ctx = NuContext.from_path(LatticePath("NE" * 14))
    assert len(enumerate_tam(ctx, force=True)) > 0


def test_element_bound_counts_elements_not_steps(monkeypatch):
    wide = NuContext.from_text("E" * 13 + "N" * 13)  # 26 steps, 10,400,600 elements
    long = NuContext.from_text("E" * 200 + "N")  # 201 steps, 201 elements
    longer = NuContext.from_text("E" * 100000 + "N")  # 100,001 elements, 10 GB at a byte per step
    assert len(enumerate_tam(long)) == len(enumerate_vectors(long)) == 201

    def no_enumeration(*args):
        raise AssertionError("enumerated past the element bound")

    monkeypatch.setattr(paths, "LatticePath", no_enumeration)
    monkeypatch.setattr(paths, "_east_rows", no_enumeration)
    monkeypatch.setattr(brackets, "_vector_rows", no_enumeration)
    message = r"^Tam\(nu\) of a 26-step nu has more than 742900 elements$"
    for enumerate_ in (enumerate_tam, enumerate_vectors):
        with pytest.raises(BoundExceeded, match=message):
            enumerate_(wide)
    message = r"^an enumeration of Tam\(nu\) for a 100001-step nu would take at least 10000200001 bytes, "
    for enumerate_ in (enumerate_tam, enumerate_vectors):
        with pytest.raises(BoundExceeded, match=message + r"more than 760729600$"):
            enumerate_(longer)


@pytest.mark.parametrize(
    "shape, sizes",
    [((20000, 24), [8192, 8192, 3616]), ((5, 1 << 21), [2, 2, 1]), ((2, 1 << 23), [1, 1])],
)
def test_row_blocks_hold_at_most_8192_rows_and_about_4_mb_of_steps(shape, sizes):
    east = np.zeros(shape, dtype=bool)
    assert [len(rows) for rows in paths._row_blocks(east)] == sizes


def test_element_bound_read_as_n(monkeypatch):
    # C_13 = 742,900 fits the bound and C_14 = 2,674,440 does not
    paths._check_n(13)
    with pytest.raises(BoundExceeded, match="^n=14 exceeds the enumeration bound 13$"):
        paths._check_n(14)
    with pytest.raises(BoundExceeded, match="^n=13 exceeds the enumeration bound 12$"):
        paths._check_n(13, shift=1)
    paths._check_n(15, force=True)
    # force does not lift the int64 keys of the census, n digits in radix n
    with pytest.raises(BoundExceeded, match="^the census for n=16 needs 16\\^16 keys"):
        paths._check_n(16, force=True)
    with pytest.raises(ValueError, match="^need n >= 0, got -1$"):
        paths._check_n(-1, force=True)
    ctx = NuContext.from_path(staircase(20))
    assert _count_tam(ctx) == 6_564_120_420
    assert _count_tam(ctx, stop_past=742_900) == 2_674_440  # C_14, the first count past it
    monkeypatch.setattr(paths, "MAX_ELEMENTS", 5)  # C_3
    paths._check_n(3)
    with pytest.raises(BoundExceeded, match="^n=4 exceeds the enumeration bound 3$"):
        paths._check_n(4)
