"""Finite-word combinatorics over the alphabet {1..N}.

Provides the word stream, composition-class arrays, exact Birkhoff-sum
ranges over cylinders, periodic-point Birkhoff sums, and the vectorized
kernels the pressure and constrained-pressure modules aggregate with.  Words
are 1-based in the public API; the array kernels use 0-based symbol blocks.
"""

from __future__ import annotations

import itertools
import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import BudgetExceeded, DepthExceedsBudget, ValidationError
from .model import PotentialTable

DEFAULT_BUDGET = 2**24
_BLOCK = 2**16


@dataclass(frozen=True)
class Word:
    """A finite word i_1..i_n with symbols in {1..alphabet_size}."""

    symbols: tuple
    alphabet_size: int

    def __post_init__(self):
        object.__setattr__(self, "symbols", tuple(int(s) for s in self.symbols))
        if len(self.symbols) == 0:
            raise ValidationError("words must have length >= 1")
        if any(not (1 <= s <= self.alphabet_size) for s in self.symbols):
            raise ValidationError("word symbol out of range")

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)


@dataclass(frozen=True)
class BirkhoffRange:
    """Closed range of a length-n Birkhoff sum over one cylinder."""

    lo: float
    hi: float

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValidationError("range needs lo <= hi")


def multinomial(counts: Sequence[int]) -> int:
    """Exact multinomial coefficient n! / (k_1! ... k_N!)."""
    out, total = 1, 0
    for k in counts:
        total += int(k)
        out *= math.comb(total, int(k))
    return out


def enumerate_words(
    n: int, N: int, budget: int = DEFAULT_BUDGET
) -> Iterator[Word]:
    """All N^n words of length n in lexicographic order."""
    if n < 1:
        raise ValidationError("word length must be >= 1")
    if N**n > budget:
        raise BudgetExceeded(f"{N}^{n} words exceed budget {budget}")
    symbols = [1] * n
    while True:
        yield Word(tuple(symbols), N)
        j = n - 1
        while j >= 0 and symbols[j] == N:
            symbols[j] = 1
            j -= 1
        if j < 0:
            return
        symbols[j] += 1


def class_count(n: int, N: int) -> int:
    """Number of composition classes of length-n words: C(n+N-1, N-1)."""
    return math.comb(n + N - 1, N - 1)


def check_class_budget(
    n_values: Iterable[int], N: int, budget: int = DEFAULT_BUDGET
) -> int:
    """Total class count over the levels n_values; raises past the budget.

    Callers check before generating any level, so work that cannot fit is
    refused up front instead of after part of it has been built.
    """
    total = sum(class_count(int(n), N) for n in n_values)
    if total > budget:
        raise BudgetExceeded(
            f"{total} composition classes (N={N}) exceed budget {budget}"
        )
    return total


# Composition-class arrays are cached per (n, N) up to this many array
# bytes; a Bowen window revisits its levels at every target.
CLASS_CACHE_BYTES = 64 * 2**20


class _ByteLRU:
    """Least-recently-used map from (n, N) to read-only arrays, capped in bytes."""

    def __init__(self, cap_bytes: int):
        self.cap_bytes = cap_bytes
        self.nbytes = 0
        self._items: OrderedDict = OrderedDict()

    def __contains__(self, key) -> bool:
        return key in self._items

    def get(self, key):
        arrays = self._items.get(key)
        if arrays is not None:
            self._items.move_to_end(key)
        return arrays

    def put(self, key, arrays) -> None:
        size = sum(a.nbytes for a in arrays)
        if key in self._items or size > self.cap_bytes:
            return
        while self.nbytes + size > self.cap_bytes:
            _, old = self._items.popitem(last=False)
            self.nbytes -= sum(a.nbytes for a in old)
        self._items[key] = arrays
        self.nbytes += size


_CLASS_CACHE = _ByteLRU(CLASS_CACHE_BYTES)


def _log_factorials(n: int) -> np.ndarray:
    """log k! for k = 0..n, accumulated in extended precision."""
    lf = np.zeros(n + 1, dtype=np.longdouble)
    np.cumsum(np.log(np.arange(1, n + 1, dtype=np.longdouble)), out=lf[1:])
    return lf


def composition_arrays(n: int, N: int):
    """(counts, log_mult) arrays over all composition classes of (n, N).

    ``counts`` is a read-only (K, N) int32 array of symbol counts with
    K = C(n+N-1, N-1) rows, in descending lexicographic order: the first
    count runs from n down to 0, and the remaining counts follow the same
    order for each value of it.  ``log_mult`` holds the log multinomial
    coefficients log(n! / (k_1! ... k_N!)), which sum (exponentiated) to
    N^n over the rows.  Rows come from stars and bars: each choice of N-1
    bar positions among n+N-1 slots is one class.  Log-multiplicities are
    formed in extended precision and rounded to float64 once.
    """
    if n < 1 or N < 2:
        raise ValidationError("need n >= 1 and N >= 2")
    key = (int(n), int(N))
    cached = _CLASS_CACHE.get(key)
    if cached is not None:
        return cached
    n, N = key
    bars = np.fromiter(
        itertools.combinations(range(n + N - 1), N - 1),
        dtype=np.dtype((np.int32, N - 1)),
        count=class_count(n, N),
    )
    # combinations() yields bar positions in ascending lexicographic order,
    # which is ascending order of the counts, so the rows are reversed
    counts = np.diff(
        bars[::-1], axis=1, prepend=np.int32(-1), append=np.int32(n + N - 1)
    )
    counts -= 1
    del bars
    lf = _log_factorials(n)
    # one column at a time keeps the extended-precision temporaries at (K,)
    denom = lf[counts[:, 0]]
    for j in range(1, N):
        denom += lf[counts[:, j]]
    log_mult = (lf[n] - denom).astype(np.float64)
    counts.flags.writeable = False
    log_mult.flags.writeable = False
    _CLASS_CACHE.put(key, (counts, log_mult))
    return counts, log_mult


def word_blocks(
    n: int, N: int, budget: int = DEFAULT_BUDGET, block_size: int = _BLOCK
) -> Iterator[np.ndarray]:
    """0-based symbol arrays of shape (B, n) covering all words in lex order."""
    total = N**n
    if total > budget:
        raise BudgetExceeded(f"{N}^{n} words exceed budget {budget}")
    shape = (N,) * n
    for start in range(0, total, block_size):
        stop = min(start + block_size, total)
        idx = np.unravel_index(np.arange(start, stop), shape)
        yield np.stack(idx, axis=1).astype(np.int64)


def tail_count(depth: int, N: int, budget: int = DEFAULT_BUDGET) -> int:
    """Number of tail extensions a depth-k potential can see: N^(k-1)."""
    T = N ** (depth - 1)
    if T > budget:
        raise DepthExceedsBudget(
            f"depth {depth} needs {T} tail extensions, budget {budget}"
        )
    return T


def tail_sum_matrix(
    phi: PotentialTable, words: np.ndarray, budget: int = DEFAULT_BUDGET
) -> np.ndarray:
    """Birkhoff sums S_n(phi) over every tail extension of every word.

    ``words`` is a (B, n) array of 0-based symbols.  Returns a (B, T)
    matrix with T = N^(depth-1) tail columns in lexicographic tail order;
    column t holds S_n(phi) for the cylinder extended by tail t.  Summation
    runs in increasing position order, so identical extensions produce
    bit-identical floats.
    """
    B, n = words.shape
    N = phi.N
    k = phi.depth
    T = tail_count(k, N, budget)
    if k == 1:
        vals = phi.values[words].sum(axis=1)
        return vals[:, None]
    out = np.empty((B, T), dtype=float)
    tails_idx = np.unravel_index(np.arange(T), (N,) * (k - 1))
    tails = np.stack(tails_idx, axis=1)  # (T, k-1)
    for t in range(T):
        ext = np.concatenate(
            [words, np.broadcast_to(tails[t], (B, k - 1))], axis=1
        )
        out[:, t] = _extension_sums(phi, ext, n)
    return out


def _extension_sums(phi: PotentialTable, ext: np.ndarray, n: int) -> np.ndarray:
    """S_n(phi) over extended words (B, n+k-1), in increasing position order."""
    k = phi.depth
    s = np.zeros(ext.shape[0], dtype=float)
    for j in range(n):
        s += phi.values[tuple(ext[:, j + d] for d in range(k))]
    return s


def periodic_sums(phi: PotentialTable, words: np.ndarray) -> np.ndarray:
    """S_n(phi) at the periodic point of every word of a (B, n) block.

    Only the wrap-around tail is summed, in the same position order as
    tail_sum_matrix, so the result equals its column periodic_tail_index
    bit for bit without building the other N^(k-1) - 1 columns.
    """
    n = words.shape[1]
    if phi.depth == 1:
        return phi.values[words].sum(axis=1)
    wrap = [d % n for d in range(phi.depth - 1)]
    return _extension_sums(phi, np.concatenate([words, words[:, wrap]], axis=1), n)


def periodic_tail_index(words: np.ndarray, depth: int, N: int) -> np.ndarray:
    """Column index of the wrap-around tail (first depth-1 symbols) per word."""
    B, n = words.shape
    if depth == 1:
        return np.zeros(B, dtype=np.int64)
    idx = np.zeros(B, dtype=np.int64)
    for d in range(depth - 1):
        idx = idx * N + words[:, d % n]
    return idx


def cylinder_birkhoff_range(
    phi: PotentialTable, w: Word, budget: int = DEFAULT_BUDGET
) -> BirkhoffRange:
    """Exact min and max of S_n(phi) over the cylinder of w.

    The first n-k+1 summands are fixed by the word; the last k-1 summands
    range over the N^(k-1) possible tail extensions, which are enumerated
    exactly.  Depth-1 potentials collapse to a single value.
    """
    arr = np.array([s - 1 for s in w.symbols], dtype=np.int64)[None, :]
    mat = tail_sum_matrix(phi, arr, budget)
    return BirkhoffRange(float(mat.min()), float(mat.max()))


def periodic_birkhoff_sum(phi: PotentialTable, w: Word) -> float:
    """S_n(phi) at the periodic point www...; tails wrap around cyclically.

    Sums the wrap-around extension in the same order as
    cylinder_birkhoff_range sums every extension (it is one of them), so
    the result always lies inside that range, bit for bit.
    """
    arr = np.array([s - 1 for s in w.symbols], dtype=np.int64)[None, :]
    return float(periodic_sums(phi, arr)[0])
