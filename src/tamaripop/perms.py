"""Pop-stack sorting on the weak order and its 312-avoiding sublattice.

The pop-stack map reverses every maximal descending run.  On the sublattice
of 312-avoiding permutations, Pop is the pop-stack map followed by pi_down,
the least element of the sylvester class: the words with one binary search
tree, letters inserted from the right (Hivert-Novelli-Thibon 2005, Reading
2006).  It is the tree's postorder (left, right, root), so value y lands at
position y - 1 - L(y) + R(y), 0-based: L(y) counts y's ancestors below y and
R(y) is the size of y's right subtree.  These scalar maps on one Permutation
are the public API and the test reference for the arrays below; each runs
on a plain word list and builds one Permutation, at the end.

The 312-avoiders of size n have one form: the read-only int8 matrices (W, V)
of _phi_words, one recursion on the position of the value 1, in which row i
of V is the vector for E(NE)^(n-1) of the word in row i of W.  _pop_words
runs Pop on every row of W at once.  tamari_perm_bijection checks (W, V)
against one brackets._lattice_tables build: onto its vectors, and carrying
the weak order onto its order matrix, since u <= w iff inv(u) is a subset of
inv(w), so the inversion-indicator rows of W, in the table's row order, go
through brackets._first_order_difference, the kernel that also checks the
bracket vectors.  The 231-avoiders with as many descents as peaks, which
Petersen counts by a055151, are rows of W's reverse-complement, so every
enumeration runs through _phi_words and none scans S_n.  A size whose C_n
words pass the element bound raises BoundExceeded before it runs.

Permutations are words on 1..n; text form is a digit string for n <= 9
("53412") and comma-separated for larger n.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from .brackets import BracketVector, _lattice_tables
from .brackets import _first_order_difference, _order_matrix_guard
from .paths import _check_n
from .pop import _east_staircase_ctx, _pop_blocks

__all__ = [
    "PermStats",
    "Permutation",
    "avoids",
    "count_231_equal_descents_peaks",
    "enumerate_av312",
    "format_permutation",
    "image_by_characterization",
    "parse_permutation",
    "perm_stats",
    "pi_down",
    "pi_down_random",
    "pop_stack",
    "pop_tamari_perm",
    "r_map",
    "tamari_perm_bijection",
    "weak_order_covers_down",
]


@dataclass(frozen=True)
class Permutation:
    """A permutation of 1..n in one-line notation."""

    word: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.word) != list(range(1, len(self.word) + 1)):
            raise ValueError(f"{self.word} is not a permutation of 1..{len(self.word)}")

    def __str__(self) -> str:
        return format_permutation(self)

    @property
    def n(self) -> int:
        return len(self.word)


def parse_permutation(text: str) -> Permutation:
    """Parse "53412" (n <= 9) or "10, 2, 1, ..." (comma-separated), in ASCII digits."""
    text = text.strip()
    if not text:
        raise ValueError("empty permutation text")
    parts = [part.strip() for part in text.split(",")] if "," in text else list(text)
    if not all(part.isascii() and part.isdigit() for part in parts):
        raise ValueError(f"not a permutation word: {text!r}")
    return Permutation(tuple(map(int, parts)))


def format_permutation(p: Permutation) -> str:
    if p.n <= 9:
        return "".join(map(str, p.word))
    return ",".join(map(str, p.word))


@dataclass(frozen=True)
class PermStats:
    """Descents/ascents (0-based positions i comparing word[i] to word[i+1]),
    peaks (0-based interior positions), and maximal descending run lengths."""

    descent_positions: tuple[int, ...]
    ascent_positions: tuple[int, ...]
    peak_positions: tuple[int, ...]
    run_lengths: tuple[int, ...]


def perm_stats(p: Permutation) -> PermStats:
    w = p.word
    n = len(w)
    desc = tuple(i for i in range(n - 1) if w[i] > w[i + 1])
    asc = tuple(i for i in range(n - 1) if w[i] < w[i + 1])
    peaks = tuple(i for i in range(1, n - 1) if w[i - 1] < w[i] > w[i + 1])
    runs = []
    start = 0
    for i in range(n - 1):
        if w[i] < w[i + 1]:
            runs.append(i - start + 1)
            start = i + 1
    runs.append(n - start)
    return PermStats(desc, asc, peaks, tuple(runs))


def _pop_stack_word(w) -> list[int]:
    """pop_stack on a word, as a new list."""
    out: list[int] = []
    start = 0
    for i in range(1, len(w)):
        if w[i - 1] < w[i]:
            out += w[start:i][::-1]
            start = i
    out += w[start:][::-1]
    return out


def pop_stack(p: Permutation) -> Permutation:
    """Reverse every maximal descending run."""
    return Permutation(tuple(_pop_stack_word(p.word)))


def weak_order_covers_down(p: Permutation) -> set[Permutation]:
    """Swap one descent: everything p covers in the right weak order."""
    w = p.word
    out = set()
    for i in range(len(w) - 1):
        if w[i] > w[i + 1]:
            swapped = list(w)
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            out.add(Permutation(tuple(swapped)))
    return out


def avoids(p: Permutation, pattern: str) -> bool:
    """Pattern avoidance for 231 and 312, in O(n): a word avoids 231 iff one
    pass through a stack sorts it (Knuth, TAOCP vol. 1, section 2.2.1), and
    avoids 312 iff its reverse-complement r_map avoids 231.  The pass below
    is that pass on the reverse-complement, read from the right with every
    comparison flipped, so the 312 test builds no second word; the 231 test
    runs it on r_map's word."""
    if pattern not in ("231", "312"):
        raise ValueError(f"unsupported pattern {pattern!r}; know ['231', '312']")
    w = p.word
    if pattern == "231":
        w = [len(w) + 1 - x for x in reversed(w)]
    stack, wanted = [], len(w)  # wanted: the next value the output, n down to 1, needs
    for x in reversed(w):
        while stack and stack[-1] > x:
            if stack.pop() != wanted:
                return False
            wanted -= 1
        stack.append(x)
    return True  # the stack increases upward, so it empties in order


def _sorted_rows(X):
    """The distinct rows of the matrix X in lexicographic order, read-only."""
    import numpy as np

    X = X[np.lexsort(X.T[::-1])] if X.shape[1] else X[:1]
    keep = np.ones(len(X), dtype=bool)
    keep[1:] = (X[1:] != X[:-1]).any(axis=1)
    X = X[keep]
    X.flags.writeable = False
    return X


@lru_cache(maxsize=None)
def _av312_words(n: int):
    """The W of _phi_words(n), the 312-avoiding words on 1..n, in
    lexicographic order."""
    return _sorted_rows(_phi_words(n)[0])


def enumerate_av312(n: int) -> list[Permutation]:
    """All 312-avoiding permutations of 1..n, lexicographically."""
    _check_n(n)
    return [Permutation(tuple(w)) for w in _av312_words(n).tolist()]


def _swap_candidates(w: list[int]) -> list[int]:
    out = []
    for i in range(len(w) - 1):
        if w[i] > w[i + 1] and any(w[i + 1] < v < w[i] for v in w[i + 2 :]):
            out.append(i)
    return out


def _pi_down_word(w) -> list[int]:
    """pi_down on a word, as a new list, by one monotone stack of values
    whose positions fall upward.  The z that pops y is the first value above
    y placed after it, so R(y) = z - 1 - y, and the values left below y are
    L(y); the sentinel n + 1 at position n pops the rest."""
    n = len(w)
    where = [0] * (n + 1) + [n]  # where[x]: the position of x
    for i, x in enumerate(w):
        where[x] = i
    out, stack = [0] * n, []
    for z in range(1, n + 2):
        while stack and where[stack[-1]] < where[z]:
            y = stack.pop()
            out[z - 2 - len(stack)] = y  # y - 1 - L(y) + R(y)
        stack.append(z)
    return out


def pi_down(p: Permutation) -> Permutation:
    """Minimal element of the sylvester class: the postorder of the binary
    search tree of p's letters inserted from the right, in O(n)."""
    return Permutation(tuple(_pi_down_word(p.word)))


def pi_down_random(p: Permutation, rng: random.Random) -> Permutation:
    """pi_down by swaps: swap a random corner, a descent c > a with a later
    b, a < b < c, every candidate found by a full rescan, until none is left."""
    w = list(p.word)
    while cands := _swap_candidates(w):
        i = rng.choice(cands)
        w[i], w[i + 1] = w[i + 1], w[i]
    return Permutation(tuple(w))


def pop_tamari_perm(p: Permutation) -> Permutation:
    """Pop on the 312-avoiding sublattice: pop-stack, then project down, on
    one word list, so the result is the one Permutation built."""
    if not avoids(p, "312"):
        raise ValueError(f"{p} contains a 312 pattern; not in the sublattice")
    return Permutation(tuple(_pi_down_word(_pop_stack_word(p.word))))


def _pi_down_rows(A):
    """pi_down of every row of the word matrix A, as a new matrix.  With P
    the position of each value, the x < y with P[x] above max P(x..y] are
    the ancestors of y below it, L(y), and the y > x that pass the same test
    are x's right subtree, R(x); value y + 1 goes to column y - L(y) + R(y)."""
    import numpy as np

    m, n = A.shape
    rows = np.arange(m)
    P = np.empty(A.shape, dtype=A.dtype, order="F")
    for i in range(n):
        P[rows, A[:, i] - 1] = i
    shift = np.zeros_like(P)  # R - L
    for x in range(n - 1):
        run = np.zeros(m, dtype=A.dtype)  # max P(x..y]; positions are >= 0
        for y in range(x + 1, n):
            np.maximum(run, P[:, y], out=run)
            under = P[:, x] > run
            shift[:, x] += under
            shift[:, y] -= under
    out = np.empty_like(A)
    for y in range(n):
        out[rows, y + shift[:, y]] = y + 1
    return out


def _pop_words(W):
    """pop_tamari_perm of every row of the 312-avoider matrix W, in W's row
    order, one pop._pop_blocks block at a time.  Pop-stack sends position i to
    start(i) + end(i) - i, its mirror image in its descending run; then
    _pi_down_rows."""
    import numpy as np

    n = W.shape[1]
    out = np.empty_like(W)
    cols = np.arange(n, dtype=np.int8)
    for top, A in _pop_blocks(W):
        edge = np.pad(A[:, :-1] < A[:, 1:], ((0, 0), (1, 1)), constant_values=True)
        start = np.maximum.accumulate(np.where(edge[:, :-1], cols, 0), axis=1)
        end = np.minimum.accumulate(np.where(edge[:, 1:], cols, n - 1)[:, ::-1], axis=1)
        A = np.take_along_axis(A, start + end[:, ::-1] - cols, axis=1)
        out[top : top + len(A)] = _pi_down_rows(A)
    return out


def _image_mask(W):
    """The rows of W that end in n and have no double descent
    w[i] > w[i+1] > w[i+2]."""
    desc = W[:, :-1] > W[:, 1:]
    return (W[:, -1] == W.shape[1]) & ~(desc[:, :-1] & desc[:, 1:]).any(axis=1)


def image_by_characterization(n: int) -> set[Permutation]:
    """312-avoiders ending in n with no double descent w[i] > w[i+1] > w[i+2]."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    _check_n(n)
    W = _av312_words(n)
    return {Permutation(tuple(w)) for w in W[_image_mask(W)].tolist()}


def r_map(p: Permutation) -> Permutation:
    """The involution w -> (n+1 - w[n-1-i])_i; preserves descent counts and
    reverses the sequence of run lengths."""
    w = p.word
    m = len(w)
    return Permutation(tuple(m + 1 - w[m - 1 - i] for i in range(m)))


def _r_rows(W):
    """r_map of every row of the word matrix W."""
    return W.shape[1] + 1 - W[:, ::-1]


def _descents_peaks(W):
    """The number of descents and the number of peaks of every row of W."""
    desc = W[:, :-1] > W[:, 1:]
    return desc.sum(axis=1), (~desc[:, :-1] & desc[:, 1:]).sum(axis=1)


def count_231_equal_descents_peaks(n: int, k: int) -> int:
    """Exhaustive count of the 231-avoiding words in S_{n+1} with k descents
    and k peaks, over every row that _equal_descents_peaks_231 keeps."""
    _check_n(n, shift=1)
    return int((_descents_peaks(_equal_descents_peaks_231(n + 1))[0] == k).sum())


@lru_cache(maxsize=None)
def _equal_descents_peaks_231(m: int):
    """The 231-avoiders in S_m with as many descents as peaks, as int8 rows
    in lexicographic order: the reverse-complements w -> (m+1 - w[m-1-i])_i
    of the 312-avoiders, written out here and not taken from _r_rows, so
    that the rmap check compares its r with a target it did not build."""
    R = m + 1 - _phi_words(m)[0][:, ::-1]
    descents, peaks = _descents_peaks(R)
    return _sorted_rows(R[descents == peaks])


# ---------------------------------------------------------------------------
# The explicit isomorphism onto bracket vectors for nu = E(NE)^(n-1)


@lru_cache(maxsize=None)
def _phi_words(n: int):
    """Every 312-avoiding word on 1..n with its vector for E(NE)^(n-1), as
    read-only int8 matrices (W, V): row i of V is the vector of row i of W.

    With the value 1 at position k, w = (L, 1, R): the block (L, 1) becomes
    the irreducible head (k-1, 0, phi(L-1)+1) and R becomes phi(R-k)+k.
    Each k fills one block of rows, each left row repeated once per right row.
    """
    import numpy as np

    parts = [(_phi_words(k - 1), _phi_words(n - k)) for k in range(1, n + 1)]
    m = sum(len(lw) * len(rw) for (lw, _), (rw, _) in parts) or 1  # n = 0: the empty word
    W, V = np.empty((m, n), dtype=np.int8), np.empty((m, 2 * n), dtype=np.int8)
    top = 0
    for k, ((lw, lv), (rw, rv)) in enumerate(parts, 1):
        a, b = len(lw), len(rw)
        w = W[top : top + a * b].reshape(a, b, n)  # views: (i, j) pairs left row i with right row j
        v = V[top : top + a * b].reshape(a, b, 2 * n)
        w[:, :, : k - 1] = lw[:, None] + 1
        w[:, :, k - 1] = 1
        w[:, :, k:] = rw + k
        v[:, :, :2] = k - 1, 0
        v[:, :, 2 : 2 * k] = lv[:, None] + 1
        v[:, :, 2 * k :] = rv + k
        top += a * b
    W.flags.writeable = V.flags.writeable = False
    return W, V


def _inversion_indicators(words):
    """Inversion sets of words on 1..n as an int8 matrix (len(words), C(n, 2)):
    column k is 1 when the k-th value pair a < b, in itertools.combinations
    order, appears as b before a."""
    import numpy as np

    pos = np.argsort(np.array(words, dtype=np.int8), axis=1)  # pos[r, v-1]: where v sits
    a, b = np.triu_indices(pos.shape[1], 1)
    return (pos[:, b] < pos[:, a]).astype(np.int8)


@lru_cache(maxsize=None)
def _verified_bijection(n: int):
    """_phi_words(n), checked against one _lattice_tables build: onto its
    vectors, and carrying the weak order onto its order matrix."""
    import numpy as np

    ctx = _east_staircase_ctx(n)
    _order_matrix_guard(ctx)
    W, V = _phi_words(n)
    _, table, down, _ = _lattice_tables(ctx)
    order = np.lexsort((*V.T[::-1], V.sum(axis=1, dtype=np.int64)))  # the table's row order
    if not np.array_equal(V[order], table):
        raise RuntimeError(f"constructed map is not onto the vectors for n={n}")
    row_words = W[order]
    inversions = _inversion_indicators(row_words)
    pair = _first_order_difference(inversions, down)
    if pair is not None:
        i, j = pair
        weak = bool((inversions[i] <= inversions[j]).all())
        u, w = tuple(row_words[i].tolist()), tuple(row_words[j].tolist())
        x, y = tuple(table[i].tolist()), tuple(table[j].tolist())
        raise RuntimeError(
            f"constructed map is not an order isomorphism for n={n}: "
            f"{u} <= {w} is {weak} in the weak order, {x} <= {y} is {not weak} in Tamari"
        )
    return W, V


def tamari_perm_bijection(n: int) -> dict[Permutation, BracketVector]:
    """Verified order isomorphism from 312-avoiders onto vectors for E(NE)^(n-1).

    The recursive construction must be onto the vectors of one
    brackets._lattice_tables build (else a RuntimeError "not onto") and
    carry the weak order exactly onto the table's Tamari order, the closure
    of the path-level lower covers (see the module docstring).  A
    disagreement is a RuntimeError naming both words and both vectors of
    the differing pair (i, j) of table rows with the least i, then the least
    j.  Past the order-matrix bound (n >= 11) it raises BoundExceeded before
    enumerating a word.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    _check_n(n)
    W, V = _verified_bijection(n)
    ctx = _east_staircase_ctx(n)
    return {
        Permutation(tuple(w)): BracketVector(tuple(v), ctx) for w, v in zip(W.tolist(), V.tolist())
    }
