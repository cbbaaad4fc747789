"""Bracket vectors: an integer encoding of Tam(nu) with componentwise meets.

A path mu weakly above nu is encoded by ell+1 integers: walk along mu, and
for each grid point of height k write k into the rightmost empty slot weakly
left of fixed_positions[k].  The resulting map is an order isomorphism from
Tam(nu) onto the set of valid vectors, where "valid" means:

  (1) entry fixed_positions[k] equals k for every height k,
  (2) heights[i] <= entry[i] <= n_nu for every index i,
  (3) if entry[i] = k then entry[j] <= k for all i < j <= fixed_positions[k].

Meets are componentwise minima under this encoding; both facts are verified
exhaustively by the test suite rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .paths import (
    BoundExceeded,
    LatticePath,
    NuContext,
    _check_ell,
    _count_tam,
    covers_down,
    enumerate_tam,
)

__all__ = [
    "BracketVector",
    "enumerate_vectors",
    "is_valid",
    "leq",
    "meet",
    "path_to_vector",
    "vector_to_path",
]


@dataclass(frozen=True)
class BracketVector:
    """Integer vector of length ell+1 attached to a NuContext."""

    entries: tuple[int, ...]
    ctx: NuContext

    def __post_init__(self) -> None:
        if len(self.entries) != self.ctx.ell + 1:
            raise ValueError(
                f"expected {self.ctx.ell + 1} entries for nu={self.ctx.nu}, "
                f"got {len(self.entries)}"
            )

    def __str__(self) -> str:
        return "(" + ",".join(map(str, self.entries)) + ")"


def is_valid(vec: Sequence[int], ctx: NuContext) -> bool:
    """Check conditions (1)-(3) for a raw integer vector.

    Length mismatches raise; anything else just returns False.
    """
    entries = tuple(vec)
    if len(entries) != ctx.ell + 1:
        raise ValueError(f"expected {ctx.ell + 1} entries, got {len(entries)}")
    heights = ctx.heights
    fixed = ctx.fixed_positions
    n_nu = ctx.n_nu
    for k, pos in enumerate(fixed):
        if entries[pos] != k:
            return False
    for i, b in enumerate(entries):
        if not heights[i] <= b <= n_nu:
            return False
    for i, b in enumerate(entries):
        limit = fixed[b]
        for j in range(i + 1, limit + 1):
            if entries[j] > b:
                return False
    return True


def path_to_vector(mu: LatticePath, ctx: NuContext) -> BracketVector:
    """Associated vector of mu: slot-filling along the path.

    Heights never fall along a path, so the points of height k fill slots
    leftwards from fixed_positions[k], skipping those of lower heights; a
    path that dips below nu runs out of slots.
    """
    steps = mu.steps
    if len(steps) != ctx.ell or steps.count("N") != ctx.n_nu:
        raise ValueError(
            f"endpoint mismatch: {mu} ends at {mu.endpoint}, "
            f"{ctx.nu} ends at {ctx.nu.endpoint}"
        )
    fixed = ctx.fixed_positions
    slots: list[int | None] = [None] * (ctx.ell + 1)
    k = 0
    j = fixed[0]
    slots[j] = 0
    for s in steps:
        if s == "N":
            k += 1
            j = fixed[k]  # lower heights fill only slots up to fixed[k - 1]
        else:
            j -= 1
            while j >= 0 and slots[j] is not None:
                j -= 1
            if j < 0:
                raise ValueError(f"{mu} is not weakly above {ctx.nu}")
        slots[j] = k
    return BracketVector(tuple(slots), ctx)  # type: ignore[arg-type]


def vector_to_path(vec: BracketVector) -> LatticePath:
    """Unique path whose associated vector is vec.

    The entry multiset of an associated vector is exactly the multiset of
    point heights of its path, so occurrence counts determine the path:
    count[k]-1 east steps at height k, separated by north steps.
    """
    ctx = vec.ctx
    counts = [0] * (ctx.n_nu + 1)
    for b in vec.entries:
        if not 0 <= b <= ctx.n_nu:
            raise ValueError(f"entry {b} out of range for nu={ctx.nu}")
        counts[b] += 1
    if min(counts) < 1:
        raise ValueError(f"{vec} is not a valid vector for nu={ctx.nu}")
    pieces = []
    for k, c in enumerate(counts):
        pieces.append("E" * (c - 1))
        if k < ctx.n_nu:
            pieces.append("N")
    return LatticePath("".join(pieces))


def meet(v1: BracketVector, v2: BracketVector) -> BracketVector:
    """Componentwise minimum (the lattice meet under the encoding)."""
    if v1.ctx != v2.ctx:
        raise ValueError("meet requires vectors over the same nu")
    return BracketVector(tuple(map(min, v1.entries, v2.entries)), v1.ctx)


def leq(v1: BracketVector, v2: BracketVector) -> bool:
    """Componentwise order (the lattice order under the encoding)."""
    if v1.ctx != v2.ctx:
        raise ValueError("leq requires vectors over the same nu")
    return all(a <= b for a, b in zip(v1.entries, v2.entries))


def _vector_rows(ctx: NuContext):
    """All valid vectors as one numpy matrix, rows in lexicographic order.

    Built one column at a time over all rows: each row carries its cap
    array, and assigning v at column i caps columns i+1..fixed_positions[v]
    at v, which is exactly condition (3).  A cap at column i comes from some
    v with fixed_positions[v] >= i, so it is at least heights[i]: a free
    column admits heights[i]..cap, a fixed column its single value.  Rows
    are int8 while n_nu fits, int16 past that.
    """
    import numpy as np

    ell, n_nu = ctx.ell, ctx.n_nu
    dtype = np.int8 if n_nu < 128 else np.int16
    fixed = np.array(ctx.fixed_positions, dtype=np.int16)
    fixed_value = {pos: k for k, pos in enumerate(ctx.fixed_positions)}
    cols: list = []  # cols[c]: column c of every row so far
    caps = [np.full(1, n_nu, dtype=dtype)] * (ell + 1)  # caps[k]: cap of column k+i
    for i in range(ell + 1):
        cap = caps.pop(0)  # now caps[k] is the cap of column k+i+1
        if i in fixed_value:
            values = np.full(len(cap), fixed_value[i], dtype=dtype)
        else:
            counts = cap.astype(np.intp) - (ctx.heights[i] - 1)
            parent = np.repeat(np.arange(len(counts)), counts)
            offset = np.arange(len(parent)) - np.repeat(np.cumsum(counts) - counts, counts)
            values = (ctx.heights[i] + offset).astype(dtype)
            cols = [c[parent] for c in cols]
            caps = [c[parent] for c in caps]
        cols.append(values)
        limit = fixed[values]
        for k in range(int(limit.max()) - i):
            caps[k] = np.minimum(caps[k], np.where(limit > k + i, values, dtype(n_nu)))
    return np.stack(cols).T


def enumerate_vectors(ctx: NuContext, *, force: bool = False) -> list[BracketVector]:
    """All valid vectors for nu, in lexicographic order on entries: the rows
    of _vector_rows, the one vector enumeration of the package."""
    _check_ell(ctx.ell, force)
    return [BracketVector(tuple(e), ctx) for e in _vector_rows(ctx).tolist()]


def _check_key_bound(base: int, width: int, what: str) -> None:
    """BoundExceeded unless keys of width digits in base fit in int64."""
    if base**width > 2**63:
        raise BoundExceeded(f"{what} needs {base}^{width} keys, more than int64 holds")


def _mixed_radix_keys(columns, base: int, length: int):
    """int64 keys of length rows by Horner's rule, one column at a time from
    an iterable of columns, so no matrix of them is built; check the width
    with _check_key_bound first."""
    import numpy as np

    keys = np.zeros(length, dtype=np.int64)
    for col in columns:
        keys *= base
        keys += col
    return keys


#: Bytes of one m x m bool order matrix that _lattice_tables may build.  The
#: bijection check holds a few such matrices at once.  2**29 admits Tam_10
#: (16,796 elements, 0.28 GB each) and refuses Tam_11 (58,786, 3.5 GB each).
ORDER_MATRIX_MAX_BYTES = 1 << 29


def _order_matrix_guard(ctx: NuContext) -> None:
    """BoundExceeded if the order matrix of Tam(nu) would pass
    ORDER_MATRIX_MAX_BYTES; |Tam(nu)| is counted without enumerating."""
    m = _count_tam(ctx)
    if m * m > ORDER_MATRIX_MAX_BYTES:
        raise BoundExceeded(
            f"Tam({ctx.nu}) has {m} elements; its order matrix would take "
            f"{m * m / 1e9:.1f} GB, over the bound of {ORDER_MATRIX_MAX_BYTES / 1e9:.2f} GB"
        )


@lru_cache(maxsize=4)
def _lattice_tables(nu_text: str):
    """Enumerated lattice with cover-closure order matrix and vector array.

    Returns (ctx, mus, vecs, V, O): the context, the paths, their vectors as
    tuples, the same vectors as an int16 array, and the bool order matrix with
    O[i, j] = i <= j; elements are sorted by (entry sum, entries).  Covers
    are looked up by path, so each path is encoded once.  Raises
    BoundExceeded before enumerating when O would be too large.
    """
    import numpy as np

    ctx = NuContext.from_text(nu_text)
    _order_matrix_guard(ctx)
    mus = enumerate_tam(ctx, force=True)
    m = len(mus)
    vecs = [path_to_vector(mu, ctx).entries for mu in mus]
    order_key = sorted(range(m), key=lambda i: (sum(vecs[i]), vecs[i]))
    mus = [mus[i] for i in order_key]
    vecs = [vecs[i] for i in order_key]
    sums = [sum(v) for v in vecs]
    index = {mu.steps: i for i, mu in enumerate(mus)}
    down = np.zeros((m, m), dtype=bool)
    for i, mu in enumerate(mus):
        down[i, i] = True
        for lower in covers_down(mu, ctx):
            j = index[lower.steps]
            if sums[j] >= sums[i]:
                raise RuntimeError(f"cover does not decrease entry sum over {nu_text}")
            down[i] |= down[j]
    V = np.array(vecs, dtype=np.int16)
    return ctx, mus, vecs, V, down.T  # O[i, j] = (i <= j) = down[j][i]
