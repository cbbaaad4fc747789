"""Exact truncated power series and the counting sequences.

Everything here is plain Python integers; series are tuples of coefficients
up to a fixed truncation order, and mixing orders is an error rather than a
silent truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .paths import BoundExceeded

__all__ = [
    "IntSeries",
    "a055151",
    "add",
    "catalan",
    "g_series",
    "g_series_rational",
    "h_series",
    "h_series_rational",
    "motzkin",
    "multiply",
    "qpolynomial_formula",
    "reciprocal_one_minus",
]


def catalan(n: int) -> int:
    """n-th Catalan number."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    return math.comb(2 * n, n) // (n + 1)


@lru_cache(maxsize=None)
def motzkin(n: int) -> int:
    """n-th Motzkin number, via M(n+1) = M(n) + sum M(k) M(n-1-k), in a loop."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    m = [1, 1]
    for j in range(2, n + 1):
        m.append(m[j - 1] + sum(m[k] * m[j - 2 - k] for k in range(j - 1)))
    return m[n]


def a055151(n: int, k: int) -> int:
    """Triangle entry binom(2k,k) * binom(n,2k) / (k+1); zero out of range."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    if k < 0 or 2 * k > n:
        return 0
    num = math.comb(2 * k, k) * math.comb(n, 2 * k)
    if num % (k + 1):
        raise RuntimeError(f"a055151({n},{k}) is not integral")
    return num // (k + 1)


def qpolynomial_formula(m: int) -> dict[int, int]:
    """{m - k: a055151(m, k)} over the k with a nonzero entry: the closed form
    of the up-cover polynomial of the Pop image of Tam_{m+1}."""
    return {m - k: v for k in range(m // 2 + 1) if (v := a055151(m, k))}


@dataclass(frozen=True)
class IntSeries:
    """Power series truncated at a fixed order; coeffs[i] is the z^i term."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("a series needs at least the constant term")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> int:
        return self.coeffs[n]

    @classmethod
    def from_coeffs(cls, coeffs, order: int) -> "IntSeries":
        c = list(coeffs)[: order + 1]
        c += [0] * (order + 1 - len(c))
        return cls(tuple(c))

    @classmethod
    def one(cls, order: int) -> "IntSeries":
        return cls.from_coeffs([1], order)

    @classmethod
    def z(cls, order: int) -> "IntSeries":
        return cls.from_coeffs([0, 1], order)

    def __add__(self, other: "IntSeries") -> "IntSeries":
        return add(self, other)

    def __mul__(self, other: "IntSeries") -> "IntSeries":
        return multiply(self, other)


def _same_order(a: IntSeries, b: IntSeries) -> int:
    if a.order != b.order:
        raise ValueError(f"truncation orders differ: {a.order} vs {b.order}")
    return a.order


def add(a: IntSeries, b: IntSeries) -> IntSeries:
    _same_order(a, b)
    return IntSeries(tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))


def multiply(a: IntSeries, b: IntSeries) -> IntSeries:
    n = _same_order(a, b)
    out = [0] * (n + 1)
    for i, x in enumerate(a.coeffs):
        if x:
            for j in range(n + 1 - i):
                out[i + j] += x * b.coeffs[j]
    return IntSeries(tuple(out))


def reciprocal_one_minus(s: IntSeries) -> IntSeries:
    """1 / (1 - s) for a series with zero constant term."""
    if s.coeffs[0] != 0:
        raise ValueError(f"reciprocal_one_minus needs constant term 0, got {s.coeffs[0]}")
    n = s.order
    out = [0] * (n + 1)
    out[0] = 1
    for m in range(1, n + 1):
        out[m] = sum(s.coeffs[j] * out[m - j] for j in range(1, m + 1))
    return IntSeries(tuple(out))


#: Cap on the truncation order: h_t(n) <= C_n < 4^n, and 4^7000 has 4,215
#: digits, so every coefficient up to it prints in Python's default 4,300
#: digit limit for integer strings, whatever t is.
MAX_ORDER = 7000


def _check_args(t: int, order: int) -> None:
    if t < 1:
        raise ValueError(f"need t >= 1, got {t}")
    if order < 0:
        raise ValueError(f"need order >= 0, got {order}")
    if order > MAX_ORDER:
        raise BoundExceeded(f"order {order} exceeds the bound {MAX_ORDER}")


def _catalans(t: int, order: int) -> list[int]:
    """C_0 .. C_{k-1} for k = min(t, order): every Catalan number the
    t-series read below z^(order + 1), each computed once."""
    return [catalan(j) for j in range(min(t, order))]


def h_series(t: int, order: int) -> IntSeries:
    """Counting series of t-sortable lattice elements, by linear recurrence.

    h(1) = 1 and h(n) = 2 h(n-1) + sum_{j=2}^{t} C_{j-1} h(n-j).
    """
    _check_args(t, order)
    cat = _catalans(t, order)
    h = [0] * (order + 1)
    if order >= 1:
        h[1] = 1
    for n in range(2, order + 1):
        acc = 2 * h[n - 1]
        for j in range(2, min(t, n) + 1):
            acc += cat[j - 1] * h[n - j]
        h[n] = acc
    return IntSeries(tuple(h))


def h_series_rational(t: int, order: int) -> IntSeries:
    """Same series obtained as z / (1 - 2z - sum_{j=2}^t C_{j-1} z^j)."""
    _check_args(t, order)
    s = IntSeries.from_coeffs([0, 2] + _catalans(t, order)[1:], order)
    return IntSeries.z(order) * reciprocal_one_minus(s)


def g_series(t: int, order: int) -> IntSeries:
    """Counting series of t-sortable irreducible elements, by recurrence.

    g(1) = 1 and g(n) = sum_{j=1}^{min(t, n-1)} C_{j-1} g(n-j) for n >= 2.
    """
    _check_args(t, order)
    cat = _catalans(t, order)
    g = [0] * (order + 1)
    if order >= 1:
        g[1] = 1
    for n in range(2, order + 1):
        g[n] = sum(cat[j - 1] * g[n - j] for j in range(1, min(t, n - 1) + 1))
    return IntSeries(tuple(g))


def g_series_rational(t: int, order: int) -> IntSeries:
    """Same series obtained as z / (1 - sum_{n=1}^t C_{n-1} z^n)."""
    _check_args(t, order)
    s = IntSeries.from_coeffs([0] + _catalans(t, order), order)
    return IntSeries.z(order) * reciprocal_one_minus(s)
