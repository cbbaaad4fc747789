"""Pop-stack sorting on the weak order and its 312-avoiding sublattice.

The pop-stack map reverses every maximal descending run.  On the sublattice
of 312-avoiding permutations, Pop is the pop-stack map followed by the
projection pi_down to the minimal element of the sylvester class, computed
by repeatedly swapping an adjacent descent (c, a) that has a later witness b
with a < b < c.  The bridge to bracket vectors is tamari_perm_bijection:
_phi_words, one recursion on the position of the value 1, builds the
312-avoiding words (its sorted keys) with their vectors, and is checked on
the spot against one brackets._lattice_tables build, to be onto its vectors
and to carry the weak order onto its order matrix.  u <= w in the weak order
iff inv(u) is a subset of inv(w), so the weak order is the componentwise
order on 0/1 inversion-indicator rows: the indicators of the words, taken in
the table's row order through the map, go through
brackets._first_order_difference, the kernel that also checks the bracket
vectors, and must give that matrix exactly.  The 231-avoiders with as many
descents as peaks, which Petersen counts by a055151, are found among the
reverse-complements of the same 312-avoiding words, so every enumeration
here runs through _phi_words; no function scans all of S_n.  A size whose
C_n words pass the element bound raises BoundExceeded before it runs.

Permutations are words on 1..n; text form is a digit string for n <= 9
("53412") and comma-separated for larger n.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

from .brackets import BracketVector, _lattice_tables
from .brackets import _first_order_difference, _order_matrix_guard
from .paths import _check_n
from .pop import _east_staircase_ctx

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
    """Parse "53412" (digits, n <= 9) or "10,2,1,..." (comma-separated)."""
    text = text.strip()
    if not text:
        raise ValueError("empty permutation text")
    if "," in text:
        word = tuple(int(part) for part in text.split(","))
    else:
        if not text.isdigit():
            raise ValueError(f"not a permutation word: {text!r}")
        word = tuple(int(ch) for ch in text)
    return Permutation(word)


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


def pop_stack(p: Permutation) -> Permutation:
    """Reverse every maximal descending run."""
    w = p.word
    n = len(w)
    out: list[int] = []
    start = 0
    for i in range(n - 1):
        if w[i] < w[i + 1]:
            out.extend(reversed(w[start : i + 1]))
            start = i + 1
    out.extend(reversed(w[start:]))
    return Permutation(tuple(out))


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


def _avoids_312(w: tuple[int, ...]) -> bool:
    # pattern w[i] > w[k] > w[j] at i < j < k: scan pairs (j, k) against prefix max
    best = 0
    prefix_max = [0] * len(w)
    for j, v in enumerate(w):
        prefix_max[j] = best
        if v > best:
            best = v
    for j in range(1, len(w)):
        for k in range(j + 1, len(w)):
            if w[j] < w[k] < prefix_max[j]:
                return False
    return True


def _avoids_231(w: tuple[int, ...]) -> bool:
    # pattern w[j] > w[i] > w[k] at i < j < k
    n = len(w)
    if n < 3:
        return True
    min_after = [0] * n
    m = w[-1]
    for j in range(n - 2, -1, -1):
        min_after[j] = m
        if w[j] < m:
            m = w[j]
    for j in range(1, n - 1):
        if min_after[j] < w[j]:
            for i in range(j):
                if min_after[j] < w[i] < w[j]:
                    return False
    return True


_PATTERN_CHECKS = {"312": _avoids_312, "231": _avoids_231}


def avoids(p: Permutation, pattern: str) -> bool:
    """Pattern avoidance for the patterns used here: 312 and 231."""
    try:
        return _PATTERN_CHECKS[pattern](p.word)
    except KeyError:
        raise ValueError(f"unsupported pattern {pattern!r}; know {sorted(_PATTERN_CHECKS)}") from None


@lru_cache(maxsize=None)
def _av312_words(n: int) -> tuple[tuple[int, ...], ...]:
    """All 312-avoiding words on 1..n, lexicographically: the domain of
    _phi_words, the one recursion that builds them."""
    return tuple(sorted(_phi_words(n)))


def enumerate_av312(n: int) -> list[Permutation]:
    """All 312-avoiding permutations of 1..n, lexicographically."""
    _check_n(n)
    return [Permutation(w) for w in _av312_words(n)]


def _swap_candidates(w: list[int]) -> list[int]:
    out = []
    for i in range(len(w) - 1):
        if w[i] > w[i + 1] and any(w[i + 1] < v < w[i] for v in w[i + 2 :]):
            out.append(i)
    return out


def _clear_corners(p: Permutation, choose: Callable[[list[int]], int]) -> Permutation:
    """Swap at the candidate position that choose picks until none is left."""
    w = list(p.word)
    while cands := _swap_candidates(w):
        i = choose(cands)
        w[i], w[i + 1] = w[i + 1], w[i]
    return Permutation(tuple(w))


def pi_down(p: Permutation) -> Permutation:
    """Minimal element of the sylvester class: clear 31bar2 corners, leftmost first."""
    return _clear_corners(p, min)


def pi_down_random(p: Permutation, rng: random.Random) -> Permutation:
    """Same map with a randomly chosen applicable swap at each step."""
    return _clear_corners(p, rng.choice)


def pop_tamari_perm(p: Permutation) -> Permutation:
    """Pop on the 312-avoiding sublattice: pop-stack, then project down."""
    if not _avoids_312(p.word):
        raise ValueError(f"{p} contains a 312 pattern; not in the sublattice")
    return pi_down(pop_stack(p))


def image_by_characterization(n: int) -> set[Permutation]:
    """312-avoiders ending in n with no double descent w[i] > w[i+1] > w[i+2]."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    _check_n(n)
    out = set()
    for w in _av312_words(n):
        if w[-1] != n:
            continue
        if any(w[i] > w[i + 1] > w[i + 2] for i in range(n - 2)):
            continue
        out.add(Permutation(w))
    return out


def r_map(p: Permutation) -> Permutation:
    """The involution w -> (n+1 - w[n-1-i])_i; preserves descent counts and
    reverses the sequence of run lengths."""
    w = p.word
    m = len(w)
    return Permutation(tuple(m + 1 - w[m - 1 - i] for i in range(m)))


def count_231_equal_descents_peaks(n: int, k: int) -> int:
    """Exhaustive count of the 231-avoiding words in S_{n+1} with k descents
    and k peaks, over every word that _equal_descents_peaks_231 keeps."""
    _check_n(n, shift=1)
    return sum(_descents(w) == k for w in _equal_descents_peaks_231(n + 1))


def _descents(w: tuple[int, ...]) -> int:
    return sum(a > b for a, b in zip(w, w[1:]))


def _peaks(w: tuple[int, ...]) -> int:
    return sum(a < b > c for a, b, c in zip(w, w[1:], w[2:]))


@lru_cache(maxsize=None)
def _equal_descents_peaks_231(m: int) -> tuple[tuple[int, ...], ...]:
    """The 231-avoiders in S_m with as many descents as peaks, lexicographically.

    Reverse-complement w -> (m+1 - w[m-1-i])_i sends the pattern 312 to 231,
    so the 231-avoiders are the reverse-complements of _av312_words(m).
    """
    words = sorted(tuple(m + 1 - x for x in reversed(w)) for w in _av312_words(m))
    return tuple(w for w in words if _descents(w) == _peaks(w))


# ---------------------------------------------------------------------------
# The explicit isomorphism onto bracket vectors for nu = E(NE)^(n-1)


@lru_cache(maxsize=None)
def _phi_words(n: int) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Map each 312-avoiding word on 1..n to a vector for E(NE)^(n-1).

    With the value 1 at position k, w = (L, 1, R): the block (L, 1) becomes
    the irreducible head (k-1, 0, phi(L-1)+1) and R becomes phi(R-k)+k.
    """
    if n == 0:
        return {(): ()}
    out: dict[tuple[int, ...], tuple[int, ...]] = {}
    for k in range(1, n + 1):
        left_map = _phi_words(k - 1)
        right_map = _phi_words(n - k)
        for lw, lv in left_map.items():
            word_l = tuple(x + 1 for x in lw) + (1,)
            head = (k - 1, 0) + tuple(x + 1 for x in lv)
            for rw, rv in right_map.items():
                word = word_l + tuple(x + k for x in rw)
                out[word] = head + tuple(x + k for x in rv)
    return out


def _inversion_indicators(words):
    """Inversion sets of words on 1..n as an int8 matrix (len(words), C(n, 2)):
    column k is 1 when the k-th value pair a < b, in itertools.combinations
    order, appears as b before a."""
    import numpy as np

    pos = np.argsort(np.array(words, dtype=np.int8), axis=1)  # pos[r, v-1]: where v sits
    a, b = np.triu_indices(pos.shape[1], 1)
    return (pos[:, b] < pos[:, a]).astype(np.int8)


@lru_cache(maxsize=None)
def _verified_bijection(n: int) -> dict[tuple[int, ...], tuple[int, ...]]:
    """_phi_words(n), checked against one _lattice_tables build: onto its
    vectors, and carrying the weak order onto its order matrix."""
    ctx = _east_staircase_ctx(n)
    _order_matrix_guard(ctx)
    phi = _phi_words(n)
    _, vecs, _, down, _ = _lattice_tables(ctx)
    if sorted(phi.values()) != sorted(vecs):
        raise RuntimeError(f"constructed map is not onto the vectors for n={n}")
    word_of = {v: w for w, v in phi.items()}
    row_words = [word_of[v] for v in vecs]
    inversions = _inversion_indicators(row_words)
    pair = _first_order_difference(inversions, down)
    if pair is not None:
        i, j = pair
        weak = bool((inversions[i] <= inversions[j]).all())
        raise RuntimeError(
            f"constructed map is not an order isomorphism for n={n}: "
            f"{row_words[i]} <= {row_words[j]} is {weak} in the weak order, "
            f"{vecs[i]} <= {vecs[j]} is {not weak} in Tamari"
        )
    return phi


def tamari_perm_bijection(n: int) -> dict[Permutation, BracketVector]:
    """Verified order isomorphism from 312-avoiders onto vectors for E(NE)^(n-1).

    The recursive construction is compared with one brackets._lattice_tables
    build: it must be onto the table's vectors (else a RuntimeError "not
    onto") and carry the weak order (inversion-set containment) exactly onto
    the table's Tamari order (closure of the path-level lower covers).  The
    weak order is the componentwise order of the words' inversion-indicator
    rows, packed a block of rows at a time by brackets._componentwise_down_rows
    (the kernel that also checks the bracket vectors) and compared with the
    Tamari order matrix block by block.  A disagreement is a RuntimeError
    naming both words and both vectors of the differing pair (i, j) of table
    rows with the least i, then the least j.
    Past the order-matrix bound (n >= 11) it raises BoundExceeded before
    enumerating a word.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    _check_n(n)
    phi = _verified_bijection(n)
    ctx = _east_staircase_ctx(n)
    return {Permutation(w): BracketVector(v, ctx) for w, v in phi.items()}
