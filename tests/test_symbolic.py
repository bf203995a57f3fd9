import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfshift import symbolic
from mfshift.errors import BudgetExceeded, ValidationError
from mfshift.model import PotentialTable
from mfshift.symbolic import (
    CLASS_CACHE_BYTES,
    BirkhoffRange,
    Word,
    check_class_budget,
    composition_arrays,
    cylinder_birkhoff_range,
    enumerate_words,
    multinomial,
    periodic_birkhoff_sum,
    periodic_sums,
    periodic_tail_index,
    tail_sum_matrix,
    word_blocks,
)


def test_enumerate_words_base_case():
    words = list(enumerate_words(1, 2))
    assert [w.symbols for w in words] == [(1,), (2,)]


def test_enumerate_words_n2():
    words = [w.symbols for w in enumerate_words(2, 2)]
    assert words == [(1, 1), (1, 2), (2, 1), (2, 2)]


def test_enumerate_words_count_n10():
    assert sum(1 for _ in enumerate_words(10, 2)) == 2**10


def test_enumerate_words_budget():
    with pytest.raises(BudgetExceeded):
        list(enumerate_words(30, 2, budget=2**24))


def test_word_validation():
    with pytest.raises(ValidationError):
        Word((0, 1), 2)
    with pytest.raises(ValidationError):
        Word((), 2)


def class_rows(n, N):
    counts, log_mult = composition_arrays(n, N)
    return [tuple(row) for row in counts.tolist()], log_mult


def test_compositions_binomial_row():
    rows, log_mult = class_rows(2, 2)
    classes = dict(zip(rows, log_mult))
    assert set(classes) == {(2, 0), (1, 1), (0, 2)}
    assert classes[(1, 1)] == pytest.approx(math.log(2), abs=1e-15)


def test_compositions_pascal_row_10():
    rows, log_mult = class_rows(10, 2)
    assert len(rows) == 11
    for row, lm in zip(rows, log_mult):
        assert lm == pytest.approx(math.log(math.comb(10, row[1])))


def test_compositions_ternary_word_count():
    # brute-force word enumeration is the oracle for the class multiplicities
    rows, log_mult = class_rows(3, 3)
    assert len(rows) == 10
    total = sum(round(math.exp(lm)) for lm in log_mult)
    assert total == 27
    from collections import Counter

    brute = Counter()
    for w in enumerate_words(3, 3):
        counts = tuple(sum(1 for s in w if s == i) for i in (1, 2, 3))
        brute[counts] += 1
    for row in rows:
        assert brute[row] == multinomial(row)


@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("n", [1, 5, 12, 20])
def test_multiplicity_partition_exact(n, N):
    rows, _ = class_rows(n, N)
    total = sum(multinomial(row) for row in rows)
    assert total == N**n


@pytest.mark.parametrize("n, N", [(1, 2), (4, 3), (7, 4), (5, 5), (12, 3)])
def test_composition_rows_descending_lexicographic(n, N):
    # every composition once; the first count runs from n down to 0 and the
    # rest follow in reverse lexicographic order
    expected = sorted(
        (c for c in itertools.product(range(n + 1), repeat=N) if sum(c) == n),
        reverse=True,
    )
    counts, log_mult = composition_arrays(n, N)
    assert [tuple(row) for row in counts.tolist()] == expected
    assert counts.dtype == np.int32 and log_mult.dtype == np.float64
    assert not counts.flags.writeable and not log_mult.flags.writeable


@pytest.mark.parametrize(
    "n, N",
    [(n, N) for n in range(1, 13) for N in (2, 3, 4)]
    + [(60, 4), (200, 3), (400, 2)],
)
def test_log_multiplicity_matches_exact_multinomial(n, N):
    counts, log_mult = composition_arrays(n, N)
    exact = np.array([math.log(multinomial(row)) for row in counts.tolist()])
    assert np.all(np.abs(log_mult - exact) <= 1e-15 * np.abs(exact))


def test_composition_arrays_validation():
    with pytest.raises(ValidationError):
        composition_arrays(0, 2)
    with pytest.raises(ValidationError):
        composition_arrays(3, 1)


def test_class_budget_counts_every_level():
    assert check_class_budget([3, 4], 3, budget=25) == 10 + 15
    with pytest.raises(BudgetExceeded):
        check_class_budget([3, 4], 3, budget=24)


def test_class_cache_bounded_in_bytes(monkeypatch):
    assert CLASS_CACHE_BYTES == 64 * 2**20
    assert symbolic._CLASS_CACHE.nbytes <= CLASS_CACHE_BYTES
    sizes = {
        n: sum(a.nbytes for a in composition_arrays(n, 3)) for n in (30, 31, 32, 33)
    }
    cache = symbolic._ByteLRU(sizes[30] + sizes[32] + sizes[33])
    monkeypatch.setattr(symbolic, "_CLASS_CACHE", cache)
    first = composition_arrays(30, 3)
    for n in (31, 32, 30, 33):  # the second call for 30 makes it most recent
        composition_arrays(n, 3)
        assert cache.nbytes <= cache.cap_bytes
    assert composition_arrays(30, 3)[0] is first[0]
    assert (31, 3) not in cache
    assert all((n, 3) in cache for n in (30, 32, 33))
    assert cache.nbytes == sizes[30] + sizes[32] + sizes[33]
    # a level larger than the whole cap is returned but never cached
    counts, _ = composition_arrays(60, 4)
    assert counts.shape == (math.comb(63, 3), 4)
    assert (60, 4) not in cache and cache.nbytes <= cache.cap_bytes


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=14),
    phi1=st.floats(-3, 3),
    phi2=st.floats(-3, 3),
)
def test_aggregation_consistency(n, phi1, phi2):
    # word-by-word sum of exp(S_n phi) equals the composition-class sum
    phi = np.array([phi1, phi2])
    by_words = 0.0
    for w in enumerate_words(n, 2):
        by_words += math.exp(sum(phi[s - 1] for s in w))
    counts, log_mult = composition_arrays(n, 2)
    by_classes = float(np.sum(np.exp(log_mult + counts @ phi)))
    assert by_classes == pytest.approx(by_words, rel=1e-12)


def test_cylinder_range_depth1_collapse():
    phi = PotentialTable(np.array([0.7, -0.3]))
    r = cylinder_birkhoff_range(phi, Word((1, 2, 1), 2))
    assert r.lo == r.hi == pytest.approx(2 * 0.7 - 0.3, abs=1e-14)


def test_cylinder_range_depth2_single_symbol():
    vals = np.array([[1.0, 4.0], [2.0, 3.0]])
    phi = PotentialTable(vals)
    r = cylinder_birkhoff_range(phi, Word((1,), 2))
    assert (r.lo, r.hi) == (1.0, 4.0)


def test_cylinder_range_depth2_diagonal_indicator():
    phi = PotentialTable(np.eye(2))
    r = cylinder_birkhoff_range(phi, Word((1, 1, 2), 2))
    # S_3 over the two tails: tail 1 -> 1+0+0, tail 2 -> 1+0+1
    assert (r.lo, r.hi) == (1.0, 2.0)


def test_periodic_depth1_matches_range():
    phi = PotentialTable(np.array([0.25, -1.5]))
    w = Word((2, 1, 2, 2), 2)
    r = cylinder_birkhoff_range(phi, w)
    assert periodic_birkhoff_sum(phi, w) == r.lo == r.hi


def test_periodic_depth2_examples():
    phi = PotentialTable(np.eye(2))
    assert periodic_birkhoff_sum(phi, Word((1, 2), 2)) == 0.0
    assert periodic_birkhoff_sum(phi, Word((1, 1), 2)) == 2.0


@settings(max_examples=50, deadline=None)
@given(
    data=st.data(),
    n=st.integers(min_value=1, max_value=8),
)
def test_periodic_inside_cylinder_range(data, n):
    vals = np.array(
        [
            [data.draw(st.floats(-2, 2)) for _ in range(2)]
            for _ in range(2)
        ]
    )
    phi = PotentialTable(vals)
    symbols = tuple(data.draw(st.integers(1, 2)) for _ in range(n))
    w = Word(symbols, 2)
    r = cylinder_birkhoff_range(phi, w)
    s = periodic_birkhoff_sum(phi, w)
    assert r.lo <= s <= r.hi


def test_birkhoff_range_invariant():
    with pytest.raises(ValidationError):
        BirkhoffRange(2.0, 1.0)


def test_word_blocks_cover_lexicographically():
    blocks = list(word_blocks(3, 2, block_size=3))
    stacked = np.vstack(blocks)
    assert stacked.shape == (8, 3)
    listed = [tuple(row + 1) for row in stacked]
    assert listed == [w.symbols for w in enumerate_words(3, 2)]


def test_periodic_tail_index_wraps():
    words = np.array([[0, 1, 0]])
    # depth 3 tail = first two symbols (0, 1) -> index 0*2 + 1
    assert periodic_tail_index(words, 3, 2)[0] == 1
    short = np.array([[1]])
    # length-1 word wraps onto itself: tail (1, 1) -> index 3
    assert periodic_tail_index(short, 3, 2)[0] == 3


def test_tail_sum_matrix_depth2_columns():
    phi = PotentialTable(np.eye(2))
    words = np.array([[0, 0, 1]])
    mat = tail_sum_matrix(phi, words)
    # tail 0: windows (00,01,10) -> 1; tail 1: windows (00,01,11) -> 2
    assert mat.tolist() == [[1.0, 2.0]]


@pytest.mark.parametrize("depth", [2, 3])
@pytest.mark.parametrize("n", range(1, 9))
def test_periodic_sums_match_tail_matrix_column(depth, n):
    rng = np.random.default_rng(100 * depth + n)
    N = 3 if depth == 2 else 2
    phi = PotentialTable(rng.uniform(-2.0, 2.0, size=(N,) * depth))
    words = np.vstack(list(word_blocks(n, N)))
    column = tail_sum_matrix(phi, words)[
        np.arange(len(words)), periodic_tail_index(words, depth, N)
    ]
    assert np.array_equal(periodic_sums(phi, words), column)
