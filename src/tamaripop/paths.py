"""Lattice paths weakly above a fixed path nu, and the nu-Tamari covers.

A lattice path is a word over the steps N (north) and E (east) starting at
the origin.  For a fixed path nu, the lattice Tam(nu) consists of all paths
with the same endpoints as nu that stay weakly above it.  Its cover relation
moves a subpath D one unit to the left: mu = X E D Y is covered by
mu' = X D E Y, where D starts with a north step, and the endpoints of D have
the same horizontal distance to nu with no intermediate point sharing it.

The horizontal distance of a point p is the number of east steps that can be
appended to p before leaving the region weakly above nu.  One walk,
_distances, gives it for every point of a path, negative below nu, so it also
decides membership.  One helper on step strings, _cover_steps, takes D from a
north step j to the first later point with the distance of point j, for both
cover directions and for pop.pop_generic; only covers_up and covers_down wrap
its strings in LatticePath objects, the ones they return.

enumerate_tam holds Tam(nu) as one bool matrix of east steps, a row per
element, built column by column without recursion; it builds a LatticePath
only for an element read from it, and brackets runs its path tables on the
matrix itself.  An enumeration past MAX_ELEMENTS elements, or whose matrix
would pass MAX_STEP_BYTES, is refused unless forced.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, count
from math import comb
from typing import Literal

__all__ = [
    "BoundExceeded",
    "LatticePath",
    "NuContext",
    "Step",
    "covers_down",
    "covers_up",
    "east_staircase",
    "enumerate_tam",
    "horizontal_distance",
    "lies_weakly_above",
    "parse_path",
    "staircase",
]

Step = Literal["N", "E"]

#: The most elements an enumeration may produce unless forced: C_13 = |Tam_13|.
MAX_ELEMENTS = 742_900

#: The most bytes the step matrix of an enumeration may take unless forced,
#: one byte per step of each element: 1,024 steps for every element admitted.
MAX_STEP_BYTES = MAX_ELEMENTS * 1024


class BoundExceeded(ValueError):
    """An enumeration request exceeded the configured safety bound; it is
    liftable when forcing the same request would pass."""

    def __init__(self, message: str, liftable: bool = False):
        super().__init__(message)
        self.liftable = liftable


def _check_elements(ctx: NuContext, force: bool = False) -> None:
    """BoundExceeded, unless forced, as soon as the count of Tam(nu) passes
    MAX_ELEMENTS, or when its step matrix, a byte per step of each element
    and the least any enumeration of it holds, would pass MAX_STEP_BYTES."""
    if force:
        return
    m = _count_tam(ctx, stop_past=MAX_ELEMENTS)
    if m > MAX_ELEMENTS:
        raise BoundExceeded(
            f"Tam(nu) of a {ctx.ell}-step nu has more than {MAX_ELEMENTS} elements", liftable=True
        )
    if m * ctx.ell > MAX_STEP_BYTES:
        raise BoundExceeded(
            f"an enumeration of Tam(nu) for a {ctx.ell}-step nu would take at least "
            f"{m * ctx.ell} bytes, more than {MAX_STEP_BYTES}",
            liftable=True,
        )


def _check_n(n: int, force: bool = False, shift: int = 0) -> None:
    """Refuse Tam_(n+shift) from n alone: n < 0, past MAX_ELEMENTS unless
    forced, and even forced where the census keys (n digits in radix n) pass int64."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    largest = next(k for k in count() if comb(2 * k + 2, k + 1) // (k + 2) > MAX_ELEMENTS)
    if not force and n + shift > largest:
        message = f"n={n} exceeds the enumeration bound {largest - shift}"
        raise BoundExceeded(message, liftable=_keys_fit(n, n))
    _check_key_bound(n, n, f"the census for n={n}")


def _keys_fit(base: int, width: int) -> bool:
    """Whether keys of width digits in base fit in int64 (no power past 64 digits)."""
    return base < 2 or (width < 64 and base**width <= 2**63)


def _check_key_bound(base: int, width: int, what: str) -> None:
    """BoundExceeded unless keys of width digits in base fit in int64."""
    if not _keys_fit(base, width):
        raise BoundExceeded(f"{what} needs {base}^{width} keys, more than int64 holds")


@dataclass(frozen=True)
class LatticePath:
    """Immutable N/E step word starting at the origin."""

    steps: str

    def __post_init__(self) -> None:
        if not isinstance(self.steps, str):
            raise TypeError(f"lattice path steps must be a str, not {type(self.steps).__name__}")
        if not self.steps:
            raise ValueError("a lattice path needs at least one step")
        if self.steps.strip("NE"):  # nonempty iff some character is neither N nor E
            bad = set(self.steps) - {"N", "E"}
            raise ValueError(f"invalid step characters {sorted(bad)!r} in {self.steps!r}")

    def __str__(self) -> str:
        return self.steps

    @property
    def ell(self) -> int:
        """Number of steps."""
        return len(self.steps)

    @property
    def north_count(self) -> int:
        return self.steps.count("N")

    @property
    def east_count(self) -> int:
        return len(self.steps) - self.north_count

    @property
    def endpoint(self) -> tuple[int, int]:
        return (self.east_count, self.north_count)

    def heights(self) -> tuple[int, ...]:
        """Height of each of the ell+1 grid points along the path."""
        out = [0]
        for s in self.steps:
            out.append(out[-1] + (s == "N"))
        return tuple(out)

    def points(self) -> tuple[tuple[int, int], ...]:
        """Grid points visited, from the origin to the endpoint."""
        x = y = 0
        pts = [(0, 0)]
        for s in self.steps:
            if s == "N":
                y += 1
            else:
                x += 1
            pts.append((x, y))
        return tuple(pts)


def parse_path(text: str) -> LatticePath:
    """Parse an N/E word such as "NENE" into a LatticePath."""
    return LatticePath(text)


def staircase(n: int) -> LatticePath:
    """The path (NE)^n, whose lattice is the Tamari lattice Tam_n."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return LatticePath("NE" * n)


def east_staircase(n: int) -> LatticePath:
    """The path E(NE)^(n-1); its lattice is also isomorphic to Tam_n."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return LatticePath("E" + "NE" * (n - 1))


@dataclass(frozen=True)
class NuContext:
    """Precomputed tables for a fixed base path nu.

    heights[i] is the height of nu after i steps; fixed_positions[k] is the
    largest index i with heights[i] == k (one per height 0..n_nu), and
    free_positions the others, in order; _rightmost[y] is the largest
    abscissa of nu at height y, which drives every horizontal-distance computation.
    """

    nu: LatticePath
    heights: tuple[int, ...]
    fixed_positions: tuple[int, ...]
    free_positions: tuple[int, ...]
    n_nu: int
    ell: int
    _rightmost: tuple[int, ...]

    @classmethod
    def from_path(cls, nu: LatticePath) -> "NuContext":
        heights = nu.heights()
        n_nu = heights[-1]
        fixed = [0] * (n_nu + 1)
        for i, h in enumerate(heights):
            fixed[h] = i
        rightmost = tuple(fixed[y] - y for y in range(n_nu + 1))
        free = tuple(i for i, step in enumerate(nu.steps) if step == "E")
        return cls(nu, heights, tuple(fixed), free, n_nu, nu.ell, rightmost)

    @classmethod
    def from_text(cls, text: str) -> "NuContext":
        return _context_from_text(text)

    def bottom_entries(self) -> tuple[int, ...]:
        """Entries of the minimal bracket vector, which is heights itself."""
        return self.heights


@lru_cache(maxsize=512)
def _context_from_text(text: str) -> NuContext:
    return NuContext.from_path(parse_path(text))


def horizontal_distance(ctx: NuContext, point: tuple[int, int]) -> int:
    """East steps from point before leaving the region weakly above nu.

    Raises ValueError for points strictly below nu (or outside the grid of
    paths sharing nu's endpoints).
    """
    x, y = point
    if x < 0 or not 0 <= y <= ctx.n_nu:
        raise ValueError(f"point {point} is outside the grid of {ctx.nu}")
    d = ctx._rightmost[y] - x
    if d < 0:
        raise ValueError(f"point {point} lies strictly below {ctx.nu}")
    return d


def lies_weakly_above(mu: LatticePath, ctx: NuContext) -> bool:
    """Whether mu stays weakly above nu.  Endpoints must agree."""
    return min(_distances(mu, ctx)) >= 0


def enumerate_tam(ctx: NuContext, *, force: bool = False) -> Sequence[LatticePath]:
    """All elements of Tam(nu), in lexicographic order with N < E, as a
    read-only sequence over the rows of one _east_rows matrix.  Its len is
    the row count, and a LatticePath is built only for an element indexed
    or iterated over."""
    _check_elements(ctx, force)
    return _Paths(_east_rows(ctx))


def _east_rows(ctx: NuContext):
    """Tam(nu) as one bool matrix, a row per element in lexicographic order
    with N < E and a column per step, True at east steps, built one column
    at a time without recursion.

    The rows sharing a prefix of i steps form one block, whose size is the
    number of ways to finish a path from the prefix's end point; column i
    splits each block into its north part, then its east part, where the
    step stays weakly above nu.  The matrix is stored transposed, so that
    every column is contiguous.
    """
    import numpy as np

    # the points weakly above nu, numbered height by height: first[y] + x is (x, y)
    first = list(accumulate([0] + [width + 1 for width in ctx._rightmost]))
    # after[p]: the point a north step from p reaches, then an east step,
    # or -1 where the step leaves the region; both are numbered after p
    after = [
        (first[y + 1] + x if y < ctx.n_nu else -1, first[y] + x + 1 if x < width else -1)
        for y, width in enumerate(ctx._rightmost)
        for x in range(width + 1)
    ]
    finish = [1] * len(after)  # the paths from each point to the end, the last point
    for p in range(len(after) - 2, -1, -1):
        finish[p] = sum(finish[q] for q in after[p] if q >= 0)
    # int32 point ids (the point list stays far below 2**31 entries) keep the
    # last columns' index arrays, one entry per row there, small
    steps, finish = np.array(after, dtype=np.int32), np.array(finish, dtype=np.int64)
    out = np.empty((ctx.ell, int(finish[0])), dtype=bool)
    ends = np.zeros(1, dtype=np.int32)  # the end point of each block's prefix
    for i in range(ctx.ell):
        kids = steps[ends].ravel()
        kept = np.flatnonzero(kids >= 0)  # odd where the step is east
        ends = kids[kept]
        del kids
        out[i] = np.repeat((kept & 1).astype(bool), finish[ends])
    return out.T


def _row_blocks(east) -> Iterator:
    """The rows of a bool east-step matrix in blocks of at most 8,192 rows
    and about 4 MB of steps, so that what a caller builds per block stays
    small whatever ell is."""
    block = max(1, min(1 << 13, (1 << 22) // east.shape[1]))
    return (east[first : first + block] for first in range(0, len(east), block))


def _step_texts(east) -> Iterator[str]:
    """The step string of each row of a bool east-step matrix, converted
    one _row_blocks block at a time."""
    import numpy as np

    ell = east.shape[1]
    letters = np.frombuffer(b"NE", dtype=np.uint8)
    for rows in _row_blocks(east):
        text = letters[rows.view(np.uint8)].tobytes().decode()
        yield from (text[k : k + ell] for k in range(0, len(text), ell))


class _Paths(Sequence[LatticePath]):
    """Read-only sequence of the paths whose steps are the rows of the bool
    east-step matrix east (True at an east step), which it makes read-only;
    enumerate_tam's result.  Two are equal when their matrices are."""

    __slots__ = ("east",)

    def __init__(self, east) -> None:
        east.flags.writeable = False
        self.east = east

    def __eq__(self, other) -> bool:
        if not isinstance(other, _Paths):
            return NotImplemented
        return self.east.shape == other.east.shape and bool((self.east == other.east).all())

    def __len__(self) -> int:
        return len(self.east)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return _Paths(self.east[index])
        return LatticePath(next(_step_texts(self.east[index][None])))

    def __iter__(self) -> Iterator[LatticePath]:
        return map(LatticePath, _step_texts(self.east))


def _count_tam(ctx: NuContext, stop_past: int | None = None) -> int:
    """|Tam(nu)| without enumerating, by heights; with stop_past, the first count past it."""
    ways = [1] * (ctx._rightmost[0] + 1)
    for width in ctx._rightmost[1:]:
        if stop_past is not None and ways[-1] > stop_past:
            break  # ways[-1] never decreases from one height to the next
        ways = list(accumulate(ways + [0] * (width + 1 - len(ways))))
    return ways[-1]


def _check_endpoint(mu: LatticePath, ctx: NuContext) -> None:
    """ValueError unless mu ends where nu does."""
    if len(mu.steps) != ctx.ell or mu.steps.count("N") != ctx.n_nu:
        raise ValueError(
            f"endpoint mismatch: {mu} ends at {mu.endpoint}, "
            f"{ctx.nu} ends at {ctx.nu.endpoint}"
        )


def _distances(mu: LatticePath, ctx: NuContext) -> list[int]:
    """Horizontal distance of every point of mu, negative below nu: the one
    walk of a path against nu.  ValueError unless mu ends where nu does."""
    _check_endpoint(mu, ctx)
    rightmost = ctx._rightmost
    x = y = 0
    d = [rightmost[0]]
    for s in mu.steps:
        if s == "N":
            y += 1
        else:
            x += 1
        d.append(rightmost[y] - x)
    return d


def _member_distances(mu: LatticePath, ctx: NuContext) -> list[int]:
    """_distances of mu; ValueError unless mu is in Tam(nu)."""
    dist = _distances(mu, ctx)
    if min(dist) < 0:
        raise ValueError(f"{mu} is not weakly above {ctx.nu}")
    return dist


def _cover_steps(steps: str, dist: list[int], down: bool) -> list[str]:
    """Step strings of the covers of a member of Tam(nu), the paths it
    covers if down, else those covering it, from the _distances of its points.

    For each north step j, D runs from point j to the first later point m
    with the distance of point j.  A lower cover exists where step m is east
    and moves it to just before D; an upper cover exists where step j - 1 is
    east and moves it to just after D.
    """
    ell = len(steps)
    out = []
    for j, s in enumerate(steps):
        if s != "N":
            continue
        if down:
            m = dist.index(dist[j], j + 1)
            if m < ell and steps[m] == "E":
                out.append(steps[:j] + "E" + steps[j:m] + steps[m + 1 :])
        elif j and steps[j - 1] == "E":
            m = dist.index(dist[j], j + 1)
            out.append(steps[: j - 1] + steps[j:m] + "E" + steps[m:])
    return out


def covers_up(mu: LatticePath, ctx: NuContext) -> set[LatticePath]:
    """All paths covering mu in Tam(nu): _cover_steps on mu's one
    _member_distances walk, one LatticePath per cover."""
    return set(map(LatticePath, _cover_steps(mu.steps, _member_distances(mu, ctx), False)))


def covers_down(mu: LatticePath, ctx: NuContext) -> set[LatticePath]:
    """All paths covered by mu in Tam(nu) (inverse of covers_up), through
    the same _cover_steps and one _member_distances walk."""
    return set(map(LatticePath, _cover_steps(mu.steps, _member_distances(mu, ctx), True)))
