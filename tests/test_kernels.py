import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankone import _kernels
from rankone import construction as cons
from rankone.mobius import mobius_direct


def cut_and_stack(params, K):
    """Stage-1 level word at depth K, built one stage at a time."""
    word = list(range(params.h1 + 1))
    for m in range(1, K):
        st = params.stage(m)
        new = []
        for i in range(st.r):
            new += word
            new += [-m] * st.s[i]
        word = new
    return word


def stage_arrays(params, j, K):
    stages = [params.stage(m) for m in range(j, K)]
    r_arr = np.array([st.r for st in stages], dtype=np.int64)
    s_flat = np.array([x for st in stages for x in st.s], dtype=np.int64)
    s_ptr = np.cumsum([0] + [st.r for st in stages[:-1]]).astype(np.int64)
    return r_arr, s_flat, s_ptr


@pytest.mark.parametrize(
    "params, K",
    [
        (cons.chacon(), 8),
        (cons.ConstructionParams.random_bounded(1, 4, 3, seed=5), 6),
    ],
)
def test_build_word_matches_cut_and_stack(params, K):
    table = cons.heights(params, K)
    base = np.arange(table.L(1), dtype=np.int64)
    fills = -np.arange(1, K, dtype=np.int64)
    got = _kernels.build_word(base, *stage_arrays(params, 1, K), fills, table.L(K))
    assert got.tolist() == cut_and_stack(params, K)


@st.composite
def restack_requests(draw):
    params = cons.ConstructionParams.random_bounded(
        draw(st.integers(0, 3)), draw(st.integers(2, 4)), draw(st.integers(0, 4)),
        draw(st.integers(0, 10**6)),
    )
    j = draw(st.integers(1, 3))
    K = draw(st.integers(j, j + 3))
    while K > j and cons.heights(params, K).L(K) > 600:
        K -= 1
    return params, j, K


@settings(max_examples=40, deadline=None)
@given(restack_requests(), st.integers(-5, 5))
def test_build_word_cut_at_every_stop(request, shift):
    params, j, K = request
    table = cons.heights(params, K)
    n_ref, L_K = table.L(j), table.L(K)
    arrays = stage_arrays(params, j, K)
    labels = np.arange(n_ref, dtype=np.int64)
    marks = -np.arange(j, K, dtype=np.int64)
    word = _kernels.build_word(labels, *arrays, marks, L_K)
    ext = np.append(np.arange(n_ref, dtype=np.int64) * 3 + shift, 0)
    restacked = ext[np.where(word >= 0, word, n_ref)]  # spacers map to 0
    zeros = np.zeros(K - j, dtype=np.int64)
    for stop in range(L_K + 1):
        cut = _kernels.build_word(labels, *arrays, marks, stop)
        assert np.array_equal(cut, word[:stop])
        values = _kernels.build_word(ext[:-1], *arrays, zeros, stop)
        assert np.array_equal(values, restacked[:stop])


def test_pair_counts_match_python_bruteforce():
    labels = np.array([0, 1, -1, 0, 2, -2, 0, 1], dtype=np.int64)
    for shift in (-3, -1, 0, 2):
        got = _kernels.pair_counts(labels, shift, 3)
        want = np.zeros((4, 4), dtype=np.int64)
        for l in range(len(labels)):
            if 0 <= l + shift < len(labels):
                a = labels[l] if labels[l] >= 0 else 3
                b = labels[l + shift] if labels[l + shift] >= 0 else 3
                want[a, b] += 1
        assert np.array_equal(got, want)


def test_class_counts_match_python_count():
    rng = np.random.default_rng(0)
    labels = rng.integers(-3, 7, size=5000).astype(np.int64)
    want = [int(np.sum(labels == c)) for c in range(7)]
    want.append(int(np.sum(labels < 0)))
    assert _kernels.class_counts(labels, 7).tolist() == want


def reader(vals):
    """read(a, b, step): the values at the times a, a + step, ... < b, as
    a view, with vals[i - 1] the value at time i."""
    return lambda a, b, step: vals[a - 1 : b - 1 : step]


def mu_direct(n_max):
    return np.array(
        [0] + [mobius_direct(n) for n in range(1, n_max + 1)], dtype=np.int8
    )


def test_weighted_mobius_sums_match_running_sum():
    rng = np.random.default_rng(1)
    vals = rng.integers(-5, 6, size=3000).astype(np.int64)
    checkpoints = [0, 1, 100, 1000, 3000]
    running, acc = {0: 0}, 0
    for i in range(1, 3001):
        acc += int(vals[i - 1]) * mobius_direct(i)
        running[i] = acc
    got = _kernels.weighted_mobius_sums(reader(vals), np.array(checkpoints, dtype=np.int64))
    assert got.tolist() == [running[n] for n in checkpoints]


BLOCK = _kernels.BLOCK
MU_CHUNKS = _kernels.sieve_mobius(3 * BLOCK)
NARROW = {np.int8: 2**7, np.int16: 2**15, np.int64: 2**40}


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(list(NARROW)), st.integers(2 * BLOCK, 3 * BLOCK),
       st.integers(0, 2**32 - 1))
def test_chunked_mobius_sums_match_unchunked_running_sum(dtype, N, seed):
    # one inner product per chunk of a block of odd times, split at
    # checkpoints on both sides of the seam between the sieve's first two
    # blocks at n = 2*BLOCK
    rng = np.random.default_rng(seed)
    bound = NARROW[dtype]
    vals = rng.integers(-bound, bound, size=N, endpoint=False).astype(dtype)
    checkpoints = [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK, N]
    running = np.cumsum(vals.astype(np.int64) * MU_CHUNKS[1 : N + 1])
    want = [0] + running[np.array(checkpoints[1:]) - 1].tolist()
    got = _kernels.weighted_mobius_sums(reader(vals), np.array(checkpoints, np.int64))
    assert got.dtype == np.int64 and got.tolist() == want


@settings(max_examples=12, deadline=None)
@given(st.sampled_from([np.int8, np.int16, np.int32, np.int64]),
       st.sampled_from([2 * BLOCK, 4 * BLOCK]), st.integers(-4, 3),
       st.integers(0, 2**32 - 1), st.data())
def test_block_fed_sums_match_cumsum_over_the_whole_sieve(dtype, seam, offset, seed, data):
    # N takes every residue mod 4 on both sides of the seam between the
    # first two blocks of odd n (2*BLOCK) and of the end of the first
    # block's even half, n = 2m for odd m < 2*BLOCK (4*BLOCK)
    N = seam + offset
    rng = np.random.default_rng(seed)
    # the dtype minimum, times mu = -1, is one past the dtype; int64
    # values stay inside the exact range max|values| * N < 2**63
    lowest = -(2**40) if dtype is np.int64 else int(np.iinfo(dtype).min)
    vals = rng.integers(lowest, -lowest, size=N, endpoint=False).astype(dtype)
    vals[rng.integers(0, N, size=1000)] = lowest
    drawn = data.draw(st.lists(st.integers(1, N), max_size=4))
    near = range(seam - 3, seam + 4)
    checkpoints = sorted({1, 2, N, *drawn, *(n for n in near if n <= N)})
    running = np.cumsum(vals.astype(np.int64) * _kernels.sieve_mobius(N)[1:])
    got = _kernels.weighted_mobius_sums(reader(vals), np.array(checkpoints, np.int64))
    assert got.tolist() == running[np.array(checkpoints) - 1].tolist()


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32])
def test_chunk_products_hold_the_dtype_minimum_times_minus_one(dtype):
    # min * -1 = -min is one past the dtype's range, so every product at a
    # time with mu = -1 must be formed in the wider accumulator
    N = 2 * BLOCK + 7
    lowest = int(np.iinfo(dtype).min)
    minus = MU_CHUNKS[1 : N + 1] == -1
    vals = np.where(minus, lowest, 0).astype(dtype)
    checkpoints = [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK, N]
    got = _kernels.weighted_mobius_sums(reader(vals), np.array(checkpoints, np.int64))
    want = [-lowest * sum(minus[:cp].tolist()) for cp in checkpoints]
    assert got.tolist() == want


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64])
def test_integer_sum_holds_no_products_buffer(dtype):
    # the one block of odd n to 2*BLOCK, kept before tracing starts: each
    # chunk is one inner product, widened a bounded buffer at a time, so
    # the peak is numpy's cast buffers, far below BLOCK products; so is a
    # strided sum's over 2*BLOCK picks
    vals = np.ones(4 * BLOCK, dtype=dtype)
    mu = _kernels.sieve_mobius(2 * BLOCK)
    _kernels._kept_block(0)
    tracemalloc.start()
    try:
        _kernels.weighted_mobius_sums(reader(vals), np.array([2 * BLOCK], np.int64))
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        strided = _kernels.strided_mobius_sum(vals, mu, 2, 2 * BLOCK)
        strided_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**18 and strided_peak < 2**18
    assert strided == int(mu.sum(dtype=np.int64))


#: bytes of one kept block's two sign planes
PLANE_BYTES = 2 * -(-BLOCK // 64) * 8


def test_weighted_sum_never_holds_mu_whole():
    # the sieve's two block buffers and numpy's cast buffers, with no
    # products: the same bound whether the orbit spans one block of odd n
    # or four, besides what each sum leaves in the process's keep, from a
    # cleared one: block 0's planes and int8 mu, then blocks 1-3's planes
    # and blocks 1-2's int8 mu (block 3 is past the int8 blocks)
    _kernels._kept_block.cache_clear()
    _kernels._kept_int8.cache_clear()
    sizes = {2 * BLOCK: PLANE_BYTES + BLOCK, 8 * BLOCK: 3 * PLANE_BYTES + 2 * BLOCK}
    values = {N: np.ones(N, dtype=np.int8) for N in sizes}
    for N, kept in sizes.items():
        before = (_kernels._kept_block.cache_info().currsize,
                  _kernels._kept_int8.cache_info().currsize)
        tracemalloc.start()
        try:
            got = _kernels.weighted_mobius_sums(reader(values[N]), np.array([N], np.int64))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        added = ((_kernels._kept_block.cache_info().currsize - before[0]) * PLANE_BYTES
                 + (_kernels._kept_int8.cache_info().currsize - before[1]) * BLOCK)
        assert added == kept, N
        assert peak - added < 5 * BLOCK, N  # mu to 8*BLOCK alone would take 8*BLOCK
        assert got.tolist() == [int(_kernels.sieve_mobius(N).sum(dtype=np.int64))]


def test_int8_values_sum_past_the_int8_range():
    # +-127 against mu's sign: every squarefree time adds 127
    N = 2 * BLOCK + 7
    squarefree = int(np.count_nonzero(MU_CHUNKS[1 : N + 1]))
    vals = (127 * MU_CHUNKS[1 : N + 1]).astype(np.int8)
    got = _kernels.weighted_mobius_sums(reader(vals), np.array([BLOCK, N], np.int64))
    assert got[-1] == 127 * squarefree
    stride, count = 2, N // 2
    vals = np.full(N, -127, dtype=np.int8)
    vals[stride - 1 :: stride][:count] = 127 * MU_CHUNKS[1 : count + 1]
    squarefree = int(np.count_nonzero(MU_CHUNKS[1 : count + 1]))
    assert _kernels.strided_mobius_sum(vals, MU_CHUNKS, stride, count) == 127 * squarefree


def test_strided_mobius_sum_matches_python_loop():
    rng = np.random.default_rng(2)
    vals = rng.integers(-5, 6, size=3000).astype(np.int64)
    mu = mu_direct(1500)
    for stride, count in ((2, 1500), (7, 428), (100, 30), (5, 1), (3, 0)):
        want = sum(
            int(vals[stride * k - 1]) * int(mu[k]) for k in range(1, count + 1)
        )
        assert _kernels.strided_mobius_sum(vals, mu, stride, count) == want
