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
from typing import Sequence

from .paths import (
    BoundExceeded,
    LatticePath,
    NuContext,
    _Paths,
    _check_elements,
    _check_endpoint,
    _check_key_bound,
    _count_tam,
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

    @classmethod
    def checked(cls, entries: Sequence[int], ctx: NuContext) -> "BracketVector":
        """A vector from untrusted entries: ValueError unless is_valid.  Hot
        paths build raw BracketVectors from entries they know are valid."""
        entries = tuple(entries)
        if not is_valid(entries, ctx):
            raise ValueError("not a valid vector for this base path")
        return cls(entries, ctx)

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
    """Associated vector of mu: _check_endpoint, then _slot_entries."""
    _check_endpoint(mu, ctx)
    return BracketVector(tuple(_slot_entries(mu.steps, ctx)), ctx)


def _slot_entries(steps: str, ctx: NuContext) -> list[int]:
    """Entries of the associated vector of the path with these steps, which
    must end where nu does, by slot-filling along the path.

    Heights never fall along a path, so the points of height k fill slots
    leftwards from fixed_positions[k], skipping those of lower heights; a
    path that dips below nu runs out of slots.
    """
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
                raise ValueError(f"{steps} is not weakly above {ctx.nu}")
        slots[j] = k
    return slots  # type: ignore[return-value]


def vector_to_path(vec: BracketVector) -> LatticePath:
    """Unique path whose associated vector is vec, which must be valid:
    _decode of its entries.

    Validity is assumed, not checked: the invalid (2,0,2,1,0,2) over ENENE
    decodes into ENNEE all the same.  BracketVector.checked refuses such input.
    """
    return _decode(vec.entries, vec.ctx)


def _decode(entries: Sequence[int], ctx: NuContext) -> LatticePath:
    """The path whose points have the heights in entries.  The entry
    multiset of an associated vector is exactly the multiset of point
    heights of its path, so in sorted order a repeated height is an east
    step and a rise, which must be of one, a north step."""
    n_nu = ctx.n_nu
    heights = sorted(entries)
    steps = "".join(["E" if a == b else "N" for a, b in zip(heights, heights[1:])])
    if heights[0] != 0 or heights[-1] != n_nu or steps.count("N") != n_nu:
        bad = [b for b in entries if b not in range(n_nu + 1)]
        if bad:
            raise ValueError(f"entry {bad[0]} out of range for nu={ctx.nu}")
        text = "(" + ",".join(map(str, entries)) + ")"
        raise ValueError(f"{text} is not a valid vector for nu={ctx.nu}")
    return LatticePath(steps)


def _slot_rows(east, ctx: NuContext):
    """_slot_entries of every row of the bool east-step matrix east, whose
    rows must be members of Tam(nu), as one matrix: int16 while ell fits,
    int32 past that.

    Slot-filling is a stack of empty slots: reaching height k pushes slots
    fixed_positions[k-1]+1 .. fixed_positions[k], and each point pops the
    top one.  An empty slot holds the slot under it on the stack until it
    is filled: s - 1 within a pushed run, and for the lowest slot of a run
    the top when the run was pushed.  So all rows step together, holding
    only their top and height besides the matrix.
    """
    import numpy as np

    m, ell = east.shape
    fixed = np.array(ctx.fixed_positions, dtype=np.intp)
    lowest = np.append(0, fixed[:-1] + 1)  # the lowest slot of each height's run
    V = np.tile(np.arange(-1, ell, dtype=np.int16 if ell < 2**15 else np.int32), m)
    at = np.arange(m) * (ell + 1)  # where row r starts in V
    V[at + fixed[0]] = 0
    top = np.full(m, fixed[0] - 1, dtype=np.intp)
    k = np.zeros(m, dtype=np.intp)
    for i in range(ell):
        north = np.flatnonzero(~east[:, i])
        k[north] += 1
        V[at[north] + lowest[k[north]]] = top[north]
        top[north] = fixed[k[north]]
        slot = at + top
        top = V[slot]
        V[slot] = k
    return V.reshape(m, ell + 1)


def _decode_rows(V):
    """_decode of every row of a matrix of valid vectors, as one bool
    east-step matrix: in each sorted row, a repeated height is an east step."""
    import numpy as np

    heights = np.sort(V, axis=1)
    return heights[:, 1:] == heights[:, :-1]


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
    """All valid vectors as one numpy matrix, rows in lexicographic order, of
    their free columns only: column q is index ctx.free_positions[q], and
    condition (1) fixes the other entries (_whole_rows writes them back).

    Built one column at a time over all rows, in one Fortran-ordered matrix
    of _count_tam(ctx) rows allocated up front: before column q is filled,
    the columns < q of the first r rows hold their entries and the others
    their caps.  Assigning v at column q caps the free indices up to
    fixed_positions[v], columns q+1.._rightmost[v]-1, at v: condition (3),
    which a fixed index fixed_positions[y] <= fixed_positions[v] meets, y <= v.
    A cap at index i is at least heights[i], so a column admits
    heights[i]..cap (see _split_rows).  Besides the matrix, the build holds
    a few arrays of at most 8 bytes a row.  Rows are int8 while n_nu fits,
    int16 past that.
    """
    import numpy as np

    n_nu = ctx.n_nu
    dtype = np.int8 if n_nu < 128 else np.int16
    rightmost = np.array(ctx._rightmost, dtype=np.int16)
    out = np.full((_count_tam(ctx), len(ctx.free_positions)), n_nu, dtype=dtype, order="F")
    r = 1  # rows so far
    for q, i in enumerate(ctx.free_positions):
        r = _split_rows(out, r, q, ctx.heights[i])
        limit = rightmost[out[:r, q]]
        for c in range(q + 1, int(limit.max())):
            np.minimum(out[:r, c], np.where(limit > c, out[:r, q], n_nu), out=out[:r, c])
        del limit  # not held through the next split
    if r != len(out):
        raise RuntimeError(f"counted {len(out)} vectors for {ctx.nu} but built {r}")
    return out


def _split_rows(out, r: int, q: int, low: int) -> int:
    """Replace each of the first r rows of out by one copy per value
    low..cap of column q, which holds its cap, in order, and return the new
    row count.  The other columns are re-gathered in place through one
    parent index, intp because numpy gathers through int32 indices about
    four times slower; column q becomes the values."""
    import numpy as np

    if out[:r, q].max() == low:  # one value a row, which column q holds
        return r
    counts = out[:r, q].astype(np.int32)
    counts -= low - 1
    ends = np.cumsum(counts, dtype=np.int32)
    size = int(ends[-1])
    starts = ends[:-1]  # the first copies of rows 1..r-1
    parent = np.zeros(size, dtype=np.intp)
    parent[starts] = 1
    np.cumsum(parent, out=parent)  # the row each new row copies
    # the values as a running sum of steps of 1 that restarts at low on
    # each row's first copy
    steps = np.ones(size, dtype=out.dtype)
    steps[0] = low
    steps[starts] = 1 - counts[:-1]
    del counts, ends, starts
    for c in range(out.shape[1]):
        if c != q:
            out[:size, c] = out[:r, c][parent]
    np.cumsum(steps, dtype=out.dtype, out=out[:size, q])
    return size


def _whole_rows(rows, ctx: NuContext):
    """The whole vectors of rows of free columns: height k goes in before column _rightmost[k]."""
    import numpy as np

    return np.insert(rows, ctx._rightmost, np.arange(ctx.n_nu + 1, dtype=rows.dtype), axis=1)


def enumerate_vectors(ctx: NuContext) -> list[BracketVector]:
    """All valid vectors for nu, in lexicographic order on entries: the
    _whole_rows of _vector_rows, the one vector enumeration of the package."""
    _check_elements(ctx)
    return [BracketVector(tuple(e), ctx) for e in _whole_rows(_vector_rows(ctx), ctx).tolist()]


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


#: Bytes of the packed order rows that _lattice_tables may build, m rows of
#: ceil(m / 64) uint64 words for m elements.  2**26 admits Tam_10 (16,796
#: elements, 35 MB) and refuses Tam_11 (58,786, 432 MB).
ORDER_MATRIX_MAX_BYTES = 1 << 26


def _order_matrix_guard(ctx: NuContext) -> None:
    """BoundExceeded if the packed order matrix of Tam(nu) would pass
    ORDER_MATRIX_MAX_BYTES; |Tam(nu)| is counted without enumerating."""
    m = _count_tam(ctx)
    size = m * ((m + 63) // 64) * 8
    if size > ORDER_MATRIX_MAX_BYTES:
        raise BoundExceeded(
            f"Tam({ctx.nu}) has {m} elements; its order matrix would take "
            f"{size / 1e9:.1f} GB, over the bound of {ORDER_MATRIX_MAX_BYTES / 1e9:.2f} GB"
        )


def _pack_bits(bits):
    """Bool rows (k, m) as packed uint64 rows (k, ceil(m / 64)): bit i of a
    row is bit i % 64 of its word i // 64."""
    import numpy as np

    k, m = bits.shape
    out = np.zeros((k, (m + 63) // 64 * 8), dtype=np.uint8)
    out[:, : (m + 7) // 8] = np.packbits(bits, axis=1, bitorder="little")
    return out.view("<u8")


def _unpack_bits(rows, m: int):
    """Inverse of _pack_bits: the first m bits of each packed row as bools."""
    import numpy as np

    flat = np.ascontiguousarray(rows, dtype="<u8").view(np.uint8)
    return np.unpackbits(flat, axis=1, count=m, bitorder="little").view(bool)


def _componentwise_down_rows(X):
    """Packed down-sets of the componentwise order on the rows of the integer
    matrix X, in the layout of _lattice_tables, yielded as (start, rows) for
    blocks of 256 KB of rows: bit i of row j is set iff X[i] <= X[j] in every
    column.  Per column c, at_most[c][k] packs {i : X[i, c] <= k}, and row j
    ANDs at_most[c][X[j, c]] over the columns, so that a block and the words
    gathered for it stay in cache.  Bits past m stay clear, even with no
    columns."""
    import numpy as np

    m = len(X)
    at_most = [_pack_bits(col[None, :] <= np.arange(int(col.max()) + 1)[:, None]) for col in X.T]
    ones = _pack_bits(np.ones((1, m), dtype=bool))
    block = max(1, (1 << 15) // ones.shape[1])
    for start in range(0, m, block):
        part = X[start : start + block]
        rows = np.repeat(ones, len(part), axis=0)
        for table, col in zip(at_most, part.T):
            rows &= table[col]
        yield start, rows


def _first_order_difference(X, down):
    """None if the componentwise order on the rows of X is the order of the
    packed down-set rows down, else the pair (i, j) on which they disagree
    about X[i] <= X[j], least i first, then least j.  Each block of
    _componentwise_down_rows is compared as it is made, so no second packed
    matrix is held."""
    import numpy as np

    first = None
    for start, rows in _componentwise_down_rows(X):
        differ = rows ^ down[start : start + len(rows)]
        words = np.flatnonzero(differ.any(axis=0))
        if len(words):
            bits = _unpack_bits(differ[:, words[0], None], 64)
            bit, k = map(int, np.argwhere(bits.T)[0])
            pair = (64 * int(words[0]) + bit, start + k)
            first = pair if first is None else min(first, pair)
    return first


def _incomparable(down, rows):
    """Bool (len(rows), m): [k, x] is set iff element x and element rows[k]
    are incomparable in the order of the packed down-set rows down."""
    import numpy as np

    below = _unpack_bits(down[rows], len(down))  # [k, x]: x <= rows[k]
    above = (down[:, rows >> 6] >> (rows & 63).astype(np.uint64)).T & np.uint64(1)  # rows[k] <= x
    return ~below & (above == 0)


def _lower_covers(mus: _Paths, ctx: NuContext):
    """(upper, lower) indices into mus, the enumerate_tam sequence of all of
    Tam(nu) in lexicographic order with N < E, of every cover: the lower
    covers of paths._cover_steps, applied to all paths at once on the rows
    of its east-step matrix mus.east and on the int64 step keys of the rows
    (E = 1, first step most significant), which ascend in that order.

    For a north step at j, the shifted subpath D runs from point j to the
    first later point whose horizontal distance is at most that of point j
    (distances fall by one per east step and never on a north step, so that
    point has the same distance); when the step there is east, the cover
    moves it to position j and shifts steps j.. one place later.  Keys fit
    int64 only up to 62 steps, so step counts and distances, both in
    0..ell, are int8.
    """
    import numpy as np

    ell = ctx.ell
    east = mus.east
    weight = np.int64(1) << np.arange(ell - 1, -1, -1, dtype=np.int64)  # weight of step i
    keys = _mixed_radix_keys(east.T, 2, len(east))
    x = np.cumsum(east, axis=1, dtype=np.int8)
    y = np.cumsum(~east, axis=1, dtype=np.int8)
    dist = np.empty((len(keys), ell + 1), dtype=np.int8)
    dist[:, 0] = ctx._rightmost[0]
    np.subtract(np.array(ctx._rightmost, dtype=np.int8)[y], x, out=dist[:, 1:])
    del x, y
    upper, lower = [], []
    for j in range(ell):
        end = j + 1 + np.argmax(dist[:, j + 1 :] <= dist[:, j, None], axis=1)
        rows = np.flatnonzero(~east[:, j] & (end < ell))
        end = end[rows]
        moved = east[rows, end]
        rows, end = rows[moved], end[moved]
        segment = keys[rows] & (2 * weight[j] - weight[end])  # steps j..end
        upper.append(rows)
        lower.append(keys[rows] - segment + weight[j] + ((segment - weight[end]) >> 1))
    target = np.concatenate(lower)
    pos = np.searchsorted(keys, target)
    if (keys[np.minimum(pos, len(keys) - 1)] != target).any():
        raise RuntimeError(f"lower cover outside Tam({ctx.nu})")
    return np.concatenate(upper), pos


def _path_rows(ctx: NuContext):
    """Tam(nu) as one path table (mus, V, upper, lower): the enumerate_tam
    sequence, the _slot_rows of its step matrix as int16 rows and its
    _lower_covers row pairs, with no LatticePath built.  Raises
    BoundExceeded before enumerating when the step keys of _lower_covers
    would pass int64."""
    _check_key_bound(2, ctx.ell + 1, f"a path of {ctx.ell} steps")
    mus = enumerate_tam(ctx)
    upper, lower = _lower_covers(mus, ctx)
    return mus, _slot_rows(mus.east, ctx), upper, lower


def _lattice_tables(ctx: NuContext):
    """Enumerated lattice with its covers, packed order rows and vectors.

    Returns (mus, V, down, covers): the paths and int16 vectors of
    _path_rows, mus over its step matrix with the rows reordered, so no
    LatticePath is built; the packed down-sets, a uint64 array of m rows of
    ceil(m / 64) words in which bit i of row j (bit i % 64 of word i // 64)
    is set iff element i <= element j; and the covers, an int array of
    (upper, lower) row pairs sorted by upper row.  Elements are sorted by
    (entry sum, entries).  The order is the reflexive-transitive
    closure of the path covers, ORed in one entry-sum level at a time (a
    cover that does not lower the entry sum is a RuntimeError), so it never
    reads the vectors' componentwise order.
    Both bijection checks compare their map with these rows, and each builds
    them once, uncached.  Raises BoundExceeded before enumerating when the
    rows would be too large or the step keys would pass int64.
    """
    import numpy as np

    _order_matrix_guard(ctx)
    mus, V, upper, lower = _path_rows(ctx)
    m = len(mus)
    sums = V.sum(axis=1, dtype=np.int64)
    order = np.lexsort((*V.T[::-1], sums))  # by entry sum, then entries
    V, sums = V[order], sums[order]
    mus = _Paths(mus.east[order])
    rank = np.empty(m, dtype=np.intp)
    rank[order] = np.arange(m)
    by_upper = np.argsort(rank[upper], kind="stable")
    upper, lower = rank[upper][by_upper], rank[lower][by_upper]
    if (sums[lower] >= sums[upper]).any():
        raise RuntimeError(f"cover does not decrease entry sum over {ctx.nu}")
    down = np.zeros((m, (m + 63) // 64), dtype=np.uint64)
    i = np.arange(m)
    down[i, i >> 6] = np.uint64(1) << (i & 63).astype(np.uint64)
    levels = np.concatenate(([0], np.flatnonzero(np.diff(sums)) + 1, [m]))
    cuts = np.searchsorted(upper, levels)
    for lo, start, stop in zip(levels, cuts, cuts[1:]):
        u, d = upper[start:stop], lower[start:stop]
        if not len(u):
            continue
        first = np.flatnonzero(np.concatenate(([True], u[1:] != u[:-1])))
        words = (lo + 63) // 64  # rows below this level only hold bits below lo
        down[u[first], :words] |= np.bitwise_or.reduceat(down[d, :words], first, axis=0)
    return mus, V, down, np.stack((upper, lower), axis=1)
