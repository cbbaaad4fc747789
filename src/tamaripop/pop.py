"""The Pop operator on Tam(nu): meet of an element with everything it covers.

Production route: Pop acts on bracket vectors entry by entry.  With
Delta(v) = {i : v[i] > v[i+1]}, the i-th entry of Pop(v) for i in Delta is

    eta_i = max{ x in [heights[i], v[i] - 1] :
                 v[j] <= x for all i < j <= fixed_positions[x] }

and entries outside Delta are unchanged.  The independent oracle never
reads eta: the pop-oracle suite compares _pop_rows with the entrywise min
of each vector and the vectors of its brackets._lower_covers, over one
brackets._path_rows table per lattice.  pop_generic, that meet for one
path, is the tests' scalar oracle of the array meet.

The census machinery (sortability times, Pop images, q-polynomials) works
over nu = E(NE)^(n-1), whose lattice is isomorphic to the Tamari lattice
Tam_n.  The production census is array-native: every vector of the lattice
is one row of the int8 matrix that brackets._vector_rows fills in place
(the enumeration behind enumerate_vectors too), Pop is the eta formula on
whole columns, one free index i at a time and written where i is a descent
(on valid rows the fixed columns carry nothing), on blocks of about
POP_BLOCK_BYTES of rows, each block's images are mapped to rows by
integer keys and a sorted search, and the int8 sortability times are the
fixpoint of 1 + times[pop_idx] off the minimum, gathered through the int32
Pop targets; no full-size image matrix or index copy is held.  The
q-polynomial counts the up-covers of the image rows from their entry
multiplicities, one height at a time over all rows.  The scalar functions
above serve single vectors and are the test oracle for the census
(up_cover_count, through the path covers, for the q-polynomial); the
irreducible-decomposition recursion is only a check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .brackets import BracketVector, vector_to_path
from .brackets import _decode, _mixed_radix_keys, _slot_entries, _vector_rows
from .paths import (
    LatticePath,
    NuContext,
    _check_n,
    _cover_steps,
    _member_distances,
    covers_up,
    east_staircase,
)

__all__ = [
    "PopPolynomial",
    "PopTrajectory",
    "count_t_sortable",
    "concat_irreducible",
    "decompose_irreducible",
    "eta",
    "hash_map",
    "pop_generic",
    "pop_image",
    "pop_polynomial",
    "pop_vector",
    "sortability_time",
    "trajectory",
    "up_cover_count",
]


def _eta_at(e: tuple[int, ...], heights: tuple[int, ...], fixed: tuple[int, ...], i: int) -> int:
    bi = e[i]
    hi_f = fixed[bi - 1]
    # prefix_max[j] = max(e[i+1..j]); only indices up to fixed[bi-1] are needed
    prefix_max = [0] * (hi_f + 1)
    run = -1
    for j in range(i + 1, hi_f + 1):
        if e[j] > run:
            run = e[j]
        prefix_max[j] = run
    for x in range(bi - 1, heights[i] - 1, -1):
        fx = fixed[x]
        if fx <= i or prefix_max[fx] <= x:
            return x
    raise RuntimeError(f"no admissible value at index {i} of {e}; input vector invalid?")


def eta(vec: BracketVector, i: int) -> int:
    """Entry i of Pop(vec): eta_i on descents, the entry itself elsewhere."""
    e = vec.entries
    if not 0 <= i <= vec.ctx.ell:
        raise ValueError(f"index {i} out of range 0..{vec.ctx.ell}")
    if i == vec.ctx.ell or e[i] <= e[i + 1]:
        return e[i]
    return _eta_at(e, vec.ctx.heights, vec.ctx.fixed_positions, i)


def _pop_entries(e: tuple[int, ...], heights: tuple[int, ...], fixed: tuple[int, ...]) -> tuple[int, ...]:
    out = list(e)
    for i in range(len(e) - 1):
        if e[i] > e[i + 1]:
            out[i] = _eta_at(e, heights, fixed, i)
    return tuple(out)


def pop_vector(vec: BracketVector) -> BracketVector:
    """Pop on bracket vectors (production route)."""
    ctx = vec.ctx
    return BracketVector(_pop_entries(vec.entries, ctx.heights, ctx.fixed_positions), ctx)


def pop_generic(mu: LatticePath, ctx: NuContext) -> LatticePath:
    """Pop computed as the meet of mu with all paths it covers (oracle route).

    One _member_distances walk checks mu and feeds paths._cover_steps, the
    step strings of its lower covers; brackets._slot_entries encodes each
    of them and mu, one componentwise min over all the vectors is their
    meet, and brackets._decode builds the one LatticePath returned.
    """
    steps = mu.steps
    lowers = _cover_steps(steps, _member_distances(mu, ctx), True)
    vectors = [_slot_entries(s, ctx) for s in [steps, *lowers]]
    return _decode(list(map(min, zip(*vectors))), ctx)


def trajectory(vec: BracketVector) -> "PopTrajectory":
    """Iterate Pop until the minimum; each step strictly lowers the sum."""
    ctx = vec.ctx
    heights, fixed = ctx.heights, ctx.fixed_positions
    bottom = ctx.bottom_entries()
    states = [vec]
    cur = vec.entries
    total = sum(cur)
    while cur != bottom:
        cur = _pop_entries(cur, heights, fixed)
        new_total = sum(cur)
        if new_total >= total:
            raise RuntimeError(f"Pop failed to decrease {states[-1]}; invalid input?")
        total = new_total
        states.append(BracketVector(cur, ctx))
    return PopTrajectory(tuple(states))


@dataclass(frozen=True)
class PopTrajectory:
    """Successive Pop images ending at the lattice minimum."""

    states: tuple[BracketVector, ...]

    @property
    def sortability_time(self) -> int:
        return len(self.states) - 1


def sortability_time(vec: BracketVector) -> int:
    """Least t with Pop^t(vec) equal to the lattice minimum."""
    return trajectory(vec).sortability_time


# ---------------------------------------------------------------------------
# Census over nu = E(NE)^(n-1)


def _east_staircase_ctx(n: int) -> NuContext:
    return NuContext.from_text(east_staircase(n).steps)


def _pop_rows(rows, ctx: NuContext):
    """Pop of every row at once: the eta formula of _eta_at on whole
    columns, one free index i at a time, in the rows' own dtype and layout.

    The rows must be valid vectors, each fixed column at its height.  Then
    fixed columns carry nothing: a fixed index i < ell never starts a
    descent (e[i] = k < heights[i+1] <= e[i+1]), and a fixed column
    fixed[y] <= fixed[x] holds y <= x, so it never fails eta's test.  For a
    free i, x climbs from heights[i] while one running maximum of the free
    columns i+1..fixed[x] grows with it, read in place; eta_i is the last
    admissible x below e[i], written where i is a descent.  A descent with
    no admissible x is a RuntimeError, lowest i first, then first row.
    """
    import numpy as np

    heights, fixed = ctx.heights, ctx.fixed_positions
    fixed_columns = set(fixed)
    out = rows.copy(order="K")
    eta_i = np.empty(len(rows), dtype=rows.dtype)
    run = np.empty(len(rows), dtype=rows.dtype)  # max of the free e[i+1..seen]
    for i in range(ctx.ell):
        if i in fixed_columns:
            continue
        b = rows[:, i]
        descent = b > rows[:, i + 1]
        if not descent.any():
            continue
        eta_i.fill(-1)
        run.fill(-1)
        seen = i
        for x in range(heights[i], int(b.max())):
            for j in range(seen + 1, fixed[x] + 1):
                if j not in fixed_columns:
                    np.maximum(run, rows[:, j], out=run)
            seen = max(seen, fixed[x])
            np.copyto(eta_i, x, where=(run <= x) & (x < b))
        bad = descent & (eta_i < 0)
        if bad.any():
            e = tuple(rows[int(np.argmax(bad))].tolist())
            raise RuntimeError(f"no admissible value at index {i} of {e}; input vector invalid?")
        np.copyto(out[:, i], eta_i, where=descent)
    return out


def _times_to_bottom(pop_idx, bottom, max_steps: int):
    """int8 steps each row takes along pop_idx to reach a bottom row: the
    fixpoint of 0 on bottom rows and 1 + times[pop_idx] elsewhere, gathered
    through the int32 pop_idx.  Pass k leaves min(time, k) in each row, so
    the passes stop at the first whose maximum is below k.  A Pop that
    strictly lowers the entry sum gets there within the spread of the sums,
    so a row not there after max_steps steps is a RuntimeError, not a hang;
    max_steps must stay below 127, so that pass max_steps + 1 fits int8."""
    import numpy as np

    times = np.zeros(len(pop_idx), dtype=np.int8)
    for k in range(1, max_steps + 2):
        times = times[pop_idx]
        times += 1
        times[bottom] = 0
        if times.max() < k:
            return times
    raise RuntimeError(f"Pop orbits miss the minimum after {max_steps} steps")


#: Bytes of int8 rows per block when _pop_targets and perms._pop_words run
#: Pop: a block's image matrix and its per-row keys and indices stay a small
#: fraction of the rows, whatever their width.
POP_BLOCK_BYTES = 1 << 18


def _pop_blocks(rows, entry_bytes: int = 0):
    """(start, block) over the rows of a matrix, about POP_BLOCK_BYTES at a
    time (at least one row), counting entry_bytes per entry, or else the
    rows' own itemsize: the one block rule of the array Pop kernels."""
    step = max(1, POP_BLOCK_BYTES // max(1, rows.shape[1] * (entry_bytes or rows.itemsize)))
    return ((start, rows[start : start + step]) for start in range(0, len(rows), step))


def _pop_targets(rows, ctx: NuContext):
    """int32 row of Pop(rows[r]) for every row r of the census matrix rows.

    Pop runs on _pop_blocks blocks of about POP_BLOCK_BYTES of rows, and a
    block's images are found by int64 keys over the free columns, which must
    strictly increase down rows.  A key names a row only once every image
    entry lies in heights[c]..n_nu and every fixed column holds its height,
    so both are checked per image row.
    """
    import numpy as np

    free = sorted(set(range(ctx.ell + 1)) - set(ctx.fixed_positions))
    radix = ctx.n_nu + 1

    def keys(m):  # mixed radix over the free columns
        return _mixed_radix_keys((m[:, c] for c in free), radix, len(m))

    row_keys = keys(rows)
    if (row_keys[1:] <= row_keys[:-1]).any():
        raise RuntimeError(f"census rows for {ctx.nu} are not strictly increasing")
    top = [ctx.n_nu] * (ctx.ell + 1)  # column c of a valid vector lies in heights[c]..top[c]
    for k, c in enumerate(ctx.fixed_positions):
        top[c] = k
    pop_idx = np.empty(len(rows), dtype=np.int32)
    for start, block in _pop_blocks(rows):
        image = _pop_rows(block, ctx)
        ok = np.ones(len(image), dtype=bool)
        for c, col in enumerate(image.T):
            ok &= (ctx.heights[c] <= col) & (col <= top[c])
        image_keys = keys(image)
        found = pop_idx[start : start + len(image)]
        found[:] = np.searchsorted(row_keys, image_keys)
        np.minimum(found, len(rows) - 1, out=found)
        ok &= row_keys[found] == image_keys
        if not ok.all():
            r = int(np.argmin(ok))
            raise RuntimeError(f"Pop image {tuple(image[r].tolist())} is not a census row")
    return pop_idx


class _Census:
    """All vectors for E(NE)^(n-1) with Pop targets and sortability times.

    rows is the int8 matrix of _vector_rows (one valid vector per row,
    lexicographic order), pop_idx[r] (int32, from _pop_targets) the row of
    Pop(rows[r]) and times[r] (int8) its sortability time.  Entry sums are
    int16.  Besides the rows, no array of more than 8 bytes per row is
    held, and no image matrix of more than about POP_BLOCK_BYTES.
    """

    def __init__(self, n: int):
        import numpy as np

        ctx = _east_staircase_ctx(n)
        self.ctx = ctx
        rows = _vector_rows(ctx)
        pop_idx = _pop_targets(rows, ctx)
        sums = rows.sum(axis=1, dtype=np.int16)
        bottom = sums == sum(ctx.bottom_entries())  # the minimum is the only vector of least sum
        if (sums[pop_idx] >= sums)[~bottom].any():
            raise RuntimeError("Pop must strictly decrease non-minimal vectors")
        # int8 times hold the spread n(n-1)/2 of the sums: 105 at n = 15, the
        # largest n whose keys fit int64
        times = _times_to_bottom(pop_idx, bottom, int(sums.max()) - int(sums.min()))
        self.rows, self.pop_idx, self.times = rows, pop_idx, times


def _census(n: int, force: bool = False) -> _Census:
    """The census of Tam_n, refused from n alone in front of the cache, so
    forced and unforced calls share a build."""
    _check_n(n, force)
    return _build_census(n)


@lru_cache(maxsize=None)
def _build_census(n: int) -> _Census:
    return _Census(n)


def count_t_sortable(n: int, t: int, *, force: bool = False) -> int:
    """Number of vectors for E(NE)^(n-1) that Pop sends to the minimum in <= t steps."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if t < 1:
        raise ValueError(f"need t >= 1, got {t}")
    return int((_census(n, force).times <= t).sum())


def _image_rows(n: int, force: bool):
    """The census context and the distinct Pop images as census rows, in
    census order: the rows some row's Pop target hits."""
    import numpy as np

    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    census = _census(n, force)
    hit = np.zeros(len(census.rows), dtype=bool)
    hit[census.pop_idx] = True
    return census.ctx, census.rows[hit]


def pop_image(n: int, *, force: bool = False) -> set[BracketVector]:
    """Distinct Pop images over all vectors for E(NE)^(n-1)."""
    ctx, rows = _image_rows(n, force)
    blocks = _pop_blocks(rows, 8)  # tolist spends a pointer, 8 bytes, on each entry
    return {BracketVector(tuple(e), ctx) for _, block in blocks for e in block.tolist()}


def up_cover_count(vec: BracketVector) -> int:
    """Number of covers above the corresponding path in Tam(nu)."""
    return len(covers_up(vector_to_path(vec), vec.ctx))


@dataclass(frozen=True)
class PopPolynomial:
    """Generating polynomial of up-cover counts over a Pop image."""

    coeffs: dict[int, int]

    def __post_init__(self) -> None:
        for e, c in self.coeffs.items():
            if e < 0 or c <= 0:
                raise ValueError(f"bad term {c} * q^{e}")

    def total(self) -> int:
        return sum(self.coeffs.values())


def _up_cover_counts(rows, n_nu: int):
    """up_cover_count of every row of a matrix of valid vectors: the number
    of heights k < n_nu that occur at least twice in the row, counted with
    one compare per height."""
    import numpy as np

    counts = np.zeros(len(rows), dtype=np.int32)
    for k in range(n_nu):
        counts += (rows == k).sum(axis=1, dtype=np.int32) >= 2
    return counts


def pop_polynomial(n: int, *, force: bool = False) -> PopPolynomial:
    """Histogram of up-cover counts over the Pop image of Tam_n, as q-exponents.

    Counted on the census image rows, with no path built: the entries of a
    valid vector are the heights of its path's points, so height k carries
    count_k - 1 east steps, and covers_up makes exactly one cover per valley
    (an east step followed by a north step).  A valley at height k exists
    iff count_k >= 2 and k < n_nu, the top height having no north step after
    it.  up_cover_count is the scalar oracle.
    """
    import numpy as np

    ctx, rows = _image_rows(n, force)
    counts = np.bincount(_up_cover_counts(rows, ctx.n_nu))
    exps = np.flatnonzero(counts)
    return PopPolynomial(dict(zip(exps.tolist(), counts[exps].tolist())))


# ---------------------------------------------------------------------------
# Irreducible decomposition and the deletion map


def _require_east_staircase(ctx: NuContext) -> int:
    """Return n if nu = E(NE)^(n-1), else raise."""
    s = ctx.nu.steps
    n = (len(s) + 1) // 2
    if s != "E" + "NE" * (n - 1):
        raise ValueError(f"nu must have the form E(NE)^(n-1), got {ctx.nu}")
    return n


def decompose_irreducible(vec: BracketVector) -> list[BracketVector]:
    """Split a vector for E(NE)^(n-1) into its irreducible components.

    The first component is the prefix ending at fixed_positions[first entry];
    the remainder, shifted down, decomposes recursively.  A component is
    irreducible exactly when its first and last entries agree.
    """
    _require_east_staircase(vec.ctx)
    parts: list[BracketVector] = []
    work = vec.entries
    while work:
        b0 = work[0]
        size = 2 * b0 + 2  # fixed position of height b0 is 2*b0 + 1
        head, work = work[:size], work[size:]
        parts.append(BracketVector(head, _east_staircase_ctx(b0 + 1)))
        work = tuple(x - (b0 + 1) for x in work)
    return parts


def concat_irreducible(parts: list[BracketVector]) -> BracketVector:
    """Inverse of decompose_irreducible (offset concatenation)."""
    if not parts:
        raise ValueError("need at least one component")
    entries: list[int] = []
    total = 0
    for part in parts:
        k = _require_east_staircase(part.ctx)
        entries.extend(x + total for x in part.entries)
        total += k
    return BracketVector(tuple(entries), _east_staircase_ctx(total))


def hash_map(vec: BracketVector) -> BracketVector:
    """Delete the first fixed_positions[0]+1 entries and shift the rest down.

    The image lives over nu with its first fixed_positions[0]+1 steps removed;
    nu must have steps left over.
    """
    ctx = vec.ctx
    f0 = ctx.fixed_positions[0]
    if f0 + 1 >= ctx.ell:
        raise ValueError(f"nu={ctx.nu} is exhausted by deleting {f0 + 1} steps")
    reduced_nu = NuContext.from_text(ctx.nu.steps[f0 + 1 :])
    entries = tuple(x - 1 for x in vec.entries[f0 + 1 :])
    return BracketVector(entries, reduced_nu)
