"""Integer sequences and truncated series arithmetic."""

import pytest

from tamaripop import series
from tamaripop.paths import BoundExceeded
from tamaripop.series import (
    IntSeries,
    a055151,
    catalan,
    g_series,
    g_series_rational,
    h_series,
    h_series_rational,
    motzkin,
    reciprocal_one_minus,
)


def test_catalan_values():
    assert [catalan(n) for n in range(10)] == [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862]


def test_motzkin_values():
    expected = [1, 1, 2, 4, 9, 21, 51, 127, 323, 835, 2188]
    assert [motzkin(n) for n in range(11)] == expected


def test_a055151_triangle():
    # rows n = 0..5 of the Motzkin triangle read by k
    rows = {
        0: [1],
        1: [1],
        2: [1, 1],
        3: [1, 3],
        4: [1, 6, 2],
        5: [1, 10, 10],
    }
    for n, row in rows.items():
        assert [a055151(n, k) for k in range(len(row))] == row
    assert a055151(4, 3) == 0
    assert a055151(3, -1) == 0


def test_a055151_rows_sum_to_motzkin():
    for n in range(13):
        assert sum(a055151(n, k) for k in range(n // 2 + 1)) == motzkin(n)


def test_motzkin_far_past_the_recursion_limit():
    # sum_k C(n, 2k) C_k = M_n, the identity a055151-row-sums-motzkin checks
    assert motzkin(600) == sum(a055151(600, k) for k in range(301))


def test_series_equality_and_indexing():
    s = IntSeries.from_coeffs([1, 2, 3], 5)
    assert s[0] == 1 and s[2] == 3 and s[5] == 0
    assert s.order == 5
    with pytest.raises(IndexError):
        s[6]


def test_series_arithmetic():
    one = IntSeries.one(6)
    z = IntSeries.z(6)
    geom = reciprocal_one_minus(z)
    assert geom.coeffs == (1,) * 7
    assert ((one + z) * (one + z)).coeffs[:3] == (1, 2, 1)
    with pytest.raises(ValueError):
        reciprocal_one_minus(one)


def test_mixed_orders_are_an_error():
    a = IntSeries.one(5)
    b = IntSeries.one(6)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a * b


def test_multiply_against_convolution_oracle():
    import random

    rng = random.Random(11)
    for _ in range(20):
        order = rng.randint(0, 9)
        xs = [rng.randint(-9, 9) for _ in range(order + 1)]
        ys = [rng.randint(-9, 9) for _ in range(order + 1)]
        product = IntSeries.from_coeffs(xs, order) * IntSeries.from_coeffs(ys, order)
        expected = [
            sum(xs[i] * ys[k - i] for i in range(k + 1)) for k in range(order + 1)
        ]
        assert list(product.coeffs) == expected


def test_h_series_t1_powers_of_two():
    h = h_series(1, 10)
    assert [h[n] for n in range(1, 11)] == [2 ** (n - 1) for n in range(1, 11)]


def test_h_series_t2_pell():
    h = h_series(2, 8)
    assert [h[n] for n in range(1, 9)] == [1, 2, 5, 12, 29, 70, 169, 408]


def test_h_series_saturates_at_catalan():
    # coefficients n <= t count everything
    for t in range(1, 7):
        h = h_series(t, t)
        for n in range(1, t + 1):
            assert h[n] == catalan(n)


@pytest.mark.parametrize("t", range(1, 7))
def test_recurrence_matches_rational_form(t):
    assert h_series(t, 25) == h_series_rational(t, 25)
    assert g_series(t, 25) == g_series_rational(t, 25)


@pytest.mark.parametrize("t", range(1, 7))
def test_geometric_identity(t):
    one = IntSeries.one(25)
    assert one + h_series(t, 25) == reciprocal_one_minus(g_series(t, 25))


@pytest.mark.parametrize("t", range(1, 7))
def test_irreducible_recursion_identity(t):
    one = IntSeries.one(25)
    z = IntSeries.z(25)
    g = g_series(t, 25)
    truncated = IntSeries.from_coeffs([0] + [catalan(n) for n in range(1, t)], 25)
    assert g == z * ((one + truncated) * g + one)


@pytest.mark.parametrize("build", [h_series, g_series, h_series_rational, g_series_rational])
def test_series_refuse_a_negative_order_by_name(build):
    with pytest.raises(ValueError, match="^need order >= 0, got -1$"):
        build(1, -1)
    with pytest.raises(ValueError, match="^need t >= 1, got 0$"):
        build(0, -1)


@pytest.mark.parametrize("build", [h_series, g_series, h_series_rational, g_series_rational])
def test_series_refuse_an_order_past_the_bound(build):
    with pytest.raises(BoundExceeded, match="^order 7001 exceeds the bound 7000$"):
        build(1, 7001)


def test_every_coefficient_up_to_the_order_bound_prints():
    # h_t(n) <= C_n, with equality once t >= n
    assert len(str(catalan(series.MAX_ORDER))) < 4300


@pytest.mark.parametrize("build", [h_series, g_series, h_series_rational, g_series_rational])
def test_each_catalan_number_is_computed_once_and_none_past_the_order(monkeypatch, build):
    calls = []
    monkeypatch.setattr(series, "catalan", lambda n: calls.append(n) or catalan(n))
    # past t = order, t changes no coefficient below z^(order + 1)
    assert build(200, 25) == build(25, 25)
    assert calls == [*range(25), *range(25)]
