import functools
import hashlib
import math
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankone import _kernels
from rankone.mobius import mobius_direct, sieve_mobius

MU = sieve_mobius(10_000)
MU_BIG = sieve_mobius(50_000)
DIRECT = [0] + [mobius_direct(n) for n in range(1, 20_001)]


@pytest.mark.parametrize(
    "n,expected",
    [(1, 1), (4, 0), (6, 1), (12, 0), (30, -1), (2, -1), (9, 0), (2310, -1)],
)
def test_known_values(n, expected):
    assert MU[n] == expected
    assert mobius_direct(n) == expected


def test_sum_up_to_100():
    # cross-check the sieved partial sum against the trial-division oracle
    oracle = sum(mobius_direct(n) for n in range(1, 101))
    assert oracle == 1
    assert MU[1:101].sum() == 1


def test_sieve_matches_direct_oracle():
    assert MU.tolist() == DIRECT[:10_001]


def test_sieve_matches_direct_at_every_size_to_3000():
    for n_max in range(1, 3001):
        assert _kernels.sieve_mobius(n_max).tolist() == DIRECT[: n_max + 1], n_max


@pytest.mark.parametrize("n_max,digest", [
    (100_000, "21513e44d1e6635baf50c07b111da07f1eec59f18464f724761e9932f75b9b7c"),
    (1_000_000, "f6091ebd8653e385c9e028e53d331fd7e38302f090770521f629e8cf4837566e"),
    (5_000_000, "d6ce1ecb2523906636320a3947bdae8a0b20c3af16fa49de9bcacebd339a084b"),
])
def test_sieve_bytes_are_pinned(n_max, digest):
    # the digests of the earlier sieves, as CHANGES.md records them
    assert hashlib.sha256(_kernels.sieve_mobius(n_max).tobytes()).hexdigest() == digest


def test_sieve_takes_numpy_integer_sizes():
    assert _kernels.sieve_mobius(np.int64(3000)).tolist() == DIRECT[:3001]
    with pytest.raises(TypeError):
        _kernels.sieve_mobius(3000.0)


def test_sieve_refuses_sizes_past_its_uint8_sums_before_allocating(monkeypatch):
    def first_allocation(*args, **kwargs):
        raise MemoryError("first allocation")

    monkeypatch.setattr(_kernels.np, "ones", first_allocation)
    tracemalloc.start()
    try:
        for n_max in (2**57, 2**64):
            with pytest.raises(ValueError, match=r"2\*\*57"):
                _kernels.sieve_mobius(n_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16
    # one below passes the guard
    with pytest.raises(MemoryError, match="first allocation"):
        _kernels.sieve_mobius(2**57 - 1)


def test_mobius_blocks_refuse_at_the_call():
    # at the call, not at the first block, so sieve_mobius refuses before
    # it allocates mu
    with pytest.raises(ValueError, match=r"2\*\*57"):
        _kernels.mobius_blocks(2**57)
    with pytest.raises(TypeError):
        _kernels.mobius_blocks(3000.0)


@given(st.integers(1, 20_000))
@settings(max_examples=60, deadline=None)
def test_sieve_matches_direct_at_any_size(n_max):
    assert sieve_mobius(n_max).tolist() == DIRECT[: n_max + 1]


def clear_kept():
    """Drops the kept planes and the int8 mu kept from them."""
    _kernels._kept_block.cache_clear()
    _kernels._kept_int8.cache_clear()


def streamed(monkeypatch):
    """With no block kept, every size streams: the sieve runs to n_max
    itself, with the primes to sqrt(n_max) and the threshold of n_max."""
    monkeypatch.setattr(_kernels, "KEPT_BLOCKS", 0)
    clear_kept()


@pytest.mark.parametrize("p", [2, 3, 5, 7, 31, 97, 521, 1009, 2003])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_sieve_at_prime_square_boundaries(monkeypatch, p, offset):
    # n_max around p^2 moves p in or out of the struck primes <= sqrt(n_max);
    # the (n_max + 1)/2 odd n then make one block shorter than p^2, so from
    # p = 11 on, p^2 is struck as a scalar; read from the kept table, then
    # streamed
    n_max = p * p + offset
    mu = _kernels.sieve_mobius(n_max)
    streamed(monkeypatch)
    assert np.array_equal(_kernels.sieve_mobius(n_max), mu)
    if n_max < len(DIRECT):
        assert mu.tolist() == DIRECT[: n_max + 1]
    for k in range(1, n_max // (p * p) + 1):
        for n in range(k * p * p - 1, min(k * p * p + 1, n_max) + 1):
            assert mu[n] == mobius_direct(n), n


@given(st.integers(1, 50_000))
@settings(max_examples=60, deadline=None)
def test_sieve_prefix_consistency(m):
    assert np.array_equal(sieve_mobius(m), MU_BIG[: m + 1])


def _is_prime(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_sieve_at_one_million_large_prime_path():
    n_max = 1_000_000
    mu = _kernels.sieve_mobius(n_max)
    rng = np.random.default_rng(20_000)
    sample = rng.integers(1, n_max + 1, size=2000).tolist()
    # n = p*q (times a small squarefree or square cofactor) with
    # p <= 1000 < q: only the final vector step can see q
    for p in (2, 3, 31, 991):
        top = n_max // p
        qs = [q for q in range(1001, min(1200, top) + 1) if _is_prime(q)]
        qs += [q for q in range(top, max(1000, top - 300), -1) if _is_prime(q)]
        for q in qs:
            sample += [p * q, q]
            if p * q * 5 <= n_max:
                sample.append(p * q * 5)
            if p * p * q <= n_max:
                sample.append(p * p * q)
    assert len(sample) > 2100
    for n in sample:
        assert mu[n] == mobius_direct(n), n


def unsegmented_sieve(n_max):
    """The one-pass strike over the whole range that the block sieve
    replaced: sign flip, product and square strike for each prime <=
    sqrt(n_max), then one flip where a larger prime factor remains."""
    mu = np.ones(n_max + 1, dtype=np.int8)
    mu[0] = 0
    prod = np.ones(n_max + 1, dtype=np.int64)
    for p in range(2, math.isqrt(n_max) + 1):
        if _is_prime(p):
            mu[p::p] *= -1
            prod[p::p] *= p
            mu[p * p :: p * p] = 0
    mu[prod < np.arange(n_max + 1)] *= -1
    return mu


# the block ends of earlier sieves (2**18 entries, then 6 * 44_100 and
# 24 * 44_100, whole periods of a 2/3/5/7 tile); the sieve of odd n has
# blocks of BLOCK odd n, so they meet at n = 2 * BLOCK, and the first
# block's even half (n = 2m, m odd and below 2 * BLOCK) ends at 4 * BLOCK
SEAMS = [44_100, 2**18, 6 * 44_100, 2 * 2**18, 12 * 44_100, 3 * 2**18,
         _kernels.BLOCK, _kernels.BLOCK + 44_100, 2 * _kernels.BLOCK,
         4 * _kernels.BLOCK + 2]


@pytest.mark.parametrize("n_max", [n + d for n in SEAMS for d in (-1, 0, 1)])
def test_sieve_blocks_match_unsegmented_strike(monkeypatch, n_max):
    # read from the kept table, then streamed
    want = unsegmented_sieve(n_max)
    assert np.array_equal(_kernels.sieve_mobius(n_max), want)
    streamed(monkeypatch)
    assert np.array_equal(_kernels.sieve_mobius(n_max), want)
    assert kept_blocks() == []


@pytest.mark.parametrize("n_max,expected", [(1, [0, 1]), (2, [0, 1, -1])])
def test_sieve_dtype_and_length_at_tiny_sizes(n_max, expected):
    mu = _kernels.sieve_mobius(n_max)
    assert mu.dtype == np.int8
    assert mu.shape == (n_max + 1,)
    assert mu.tolist() == expected


def test_squareful_entries_vanish():
    for p in (2, 3, 5, 7, 11, 13):
        sq = p * p
        assert not MU[sq::sq].any()


def test_first_entry_and_range():
    # mu(n) sits at index n, through n_max; mu(0) is not defined and left 0
    assert MU.dtype == np.int8 and MU.shape == (10_001,)
    assert MU[1] == 1 and MU[0] == 0


@given(st.integers(1, 200), st.integers(1, 200))
@settings(max_examples=200, deadline=None)
def test_multiplicative_on_coprime_pairs(m, n):
    if math.gcd(m, n) == 1:
        assert MU_BIG[m * n] == MU_BIG[m] * MU_BIG[n]


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_prime_extension_facts(d):
    # mu(dk) = mu(d)mu(k) for k coprime to d, and mu(d^2 k) = 0
    for k in range(1, 400):
        if k % d != 0:
            assert MU_BIG[d * k] == MU_BIG[d] * MU_BIG[k]
        assert MU_BIG[d * d * k] == 0


def test_invalid_sieve_size():
    with pytest.raises(ValueError):
        sieve_mobius(0)


@pytest.mark.parametrize("n", [0, -3])
def test_direct_oracle_refuses_n_below_one(n):
    with pytest.raises(ValueError, match="^n must be >= 1$"):
        mobius_direct(n)


def test_table_is_readonly():
    with pytest.raises(ValueError):
        MU[3] = 5


# the kept table: KEPT_BLOCKS whole blocks of odd n as their sign planes,
# to TOP = 50,803,199, and the first KEPT_INT8 of them as int8 mu as well,
# to INT8_TOP = 6,350,399, where the unsegmented oracle stops
BLOCK, KEPT, KEPT_INT8 = _kernels.BLOCK, _kernels.KEPT_BLOCKS, _kernels.KEPT_INT8_BLOCKS
TOP = 2 * KEPT * BLOCK - 1
INT8_TOP = 2 * KEPT_INT8 * BLOCK - 1
PLANES = (2, -(-BLOCK // 64))  # the shape of a kept block's planes
EDGES = [2 * BLOCK - 1, 2 * BLOCK, 2 * BLOCK + 1, 4 * BLOCK - 1, 4 * BLOCK + 1,
         INT8_TOP - 1, INT8_TOP, INT8_TOP + 1, INT8_TOP + 2, INT8_TOP + 3]
ORACLE_TOP = INT8_TOP + 3


@functools.cache
def oracle():
    return unsegmented_sieve(ORACLE_TOP)


def int8_blocks(n_max):
    """The blocks of ``mobius_blocks(n_max)`` read as int8 mu, each
    copied out of the one buffer that the blocks past the kept int8 share."""
    blocks = _kernels.mobius_blocks(n_max)
    int8 = _kernels._int8_mu(n_max)
    return (int8(i, planes, n).copy() for i, (planes, n) in enumerate(blocks))


def odd_mu(n_max):
    return np.concatenate([np.empty(0, np.int8), *int8_blocks(n_max)])


def handed(n_max):
    """The planes ``mobius_blocks(n_max)`` hands out, with their lengths."""
    return list(_kernels.mobius_blocks(n_max))


def cached(cache):
    """What a cache of the block index holds, block 0 first, read
    without computing any."""
    info = cache.cache_info()
    kept = [cache(i) for i in range(info.currsize)]
    assert cache.cache_info().misses == info.misses
    return kept


def kept_blocks():
    """The kept planes, block 0 first."""
    return cached(_kernels._kept_block)


def kept_int8():
    """The kept int8 mu, block 0 first."""
    return cached(_kernels._kept_int8)


def reader(vals):
    """read(a, b, step): the values at the times a, a + step, ... < b, as
    a view, with vals[i - 1] the value at time i."""
    return lambda a, b, step: vals[a - 1 : b - 1 : step]


ONES = np.ones(BLOCK, dtype=bool)


def ones(a, b, step):
    """read(a, b, step) of the indicator that is 1 at every time; a read
    spans at most one block of odd n."""
    return ONES[: -((a - b) // step)]


DRAWN = np.random.default_rng(5).integers(-128, 128, size=BLOCK + 64, dtype=np.int8)


def drawn(a, b, step):
    """read(a, b, step) of int8 values fixed by the read alone, so every
    sum that makes the same reads reads the same values; a read spans at
    most one block of odd n."""
    return DRAWN[a % 64 :][: -((a - b) // step)]


@settings(max_examples=20, deadline=None)
@given(st.lists(st.one_of(st.integers(1, 20_000), st.sampled_from(EDGES),
                          st.integers(1, ORACLE_TOP)), min_size=1, max_size=4),
       st.sampled_from(["drawn", "ascending", "descending", "repeated"]),
       st.integers(0, 2**32 - 1))
def test_kept_table_serves_any_sequence_of_sizes(sizes, order, seed):
    # from cold, in any order: each sieve is the unsegmented strike, each
    # sum is the same with the blocks kept as they stand and from cold, and
    # the process never keeps more than KEPT_BLOCKS whole planes and
    # KEPT_INT8 whole int8 blocks
    sizes = {"ascending": sorted(sizes), "descending": sorted(sizes, reverse=True),
             "repeated": [n for n in sizes for _ in range(2)]}.get(order, sizes)
    vals = np.random.default_rng(seed).integers(-128, 128, size=max(sizes), dtype=np.int8)
    clear_kept()
    for n_max in sizes:
        assert np.array_equal(_kernels.sieve_mobius(n_max), oracle()[: n_max + 1]), n_max
        checkpoints = np.array(sorted({1, n_max // 2 or 1, n_max}), np.int64)
        warm = _kernels.weighted_mobius_sums(reader(vals), checkpoints)
        clear_kept()
        cold = _kernels.weighted_mobius_sums(reader(vals), checkpoints)
        assert warm.tolist() == cold.tolist(), n_max
        kept, mus = kept_blocks(), kept_int8()
        assert len(kept) <= KEPT and len(mus) <= KEPT_INT8
        assert all(planes.shape == PLANES for planes in kept)
        assert all(len(mu) == BLOCK for mu in mus)


SEAM_POINTS = [2 * BLOCK, 4 * BLOCK, INT8_TOP]


@settings(max_examples=12, deadline=None)
@given(st.one_of(st.builds(lambda n, d: n + d, st.sampled_from(SEAM_POINTS),
                           st.integers(-130, 130)),
                 st.integers(1, INT8_TOP + 130)),
       st.floats(0, 1), st.integers(0, 2**32 - 1), st.data())
def test_indicator_sums_by_popcount_match_int8_products_and_the_sieve(N, density, seed, data):
    # bool values take the sign planes, the same values as int8 take the
    # products, and both equal the running sum over sieve_mobius: from
    # cold, then warm, then with no block kept, so that every block
    # streams through one buffer and one pair of planes
    rng = np.random.default_rng(seed)
    vals = rng.random(N) < density
    drawn = data.draw(st.lists(st.integers(1, N), max_size=5))
    near = [n + d for n in SEAM_POINTS for d in (-65, -1, 0, 1, 63)]
    checkpoints = np.array(sorted({c for c in (1, 2, 129, N, *drawn, *near) if c <= N}),
                           np.int64)
    # 129 cuts the odd read at k = 65 and the even read at k = 32, both
    # inside a 64-bit word
    prods = vals.view(np.int8) * sieve_mobius(N)[1:]
    want = np.add.reduceat(prods, np.r_[0, checkpoints[:-1]], dtype=np.int64).cumsum()
    modes = [("cold", KEPT), ("warm", KEPT), ("streamed", 0)]
    for mode, kept in modes:
        with mock.patch.object(_kernels, "KEPT_BLOCKS", kept):
            if mode == "cold":
                clear_kept()
            before = _kernels._kept_block.cache_info()
            for v in (vals, vals.view(np.int8)):
                got = _kernels.weighted_mobius_sums(reader(v), checkpoints)
                assert got.tolist() == want.tolist(), (mode, v.dtype)
            if mode != "cold":  # warm reads its blocks, streamed reads none
                assert _kernels._kept_block.cache_info().misses == before.misses


def test_kept_planes_are_packed_once_per_process(monkeypatch):
    # each kept block is sieved, and its planes packed, once; every later
    # sum reads views of those planes
    packed, sieve = [], _kernels._odd_blocks

    def counted(*args, **kwargs):
        for planes, n in sieve(*args, **kwargs):
            packed.append(planes)
            yield planes, n

    monkeypatch.setattr(_kernels, "_odd_blocks", counted)
    clear_kept()
    for n_max in (3000, 2 * BLOCK + 1, TOP, TOP - 1, 5000, TOP):
        _kernels.weighted_mobius_sums(ones, np.array([n_max], np.int64))
        kept = kept_blocks()
        assert all(np.shares_memory(a, b) for (a, _), b in zip(handed(n_max), kept))
    assert len(packed) == KEPT
    assert all(a is b for a, b in zip(packed, kept))
    assert kept_int8() == []  # an indicator reads no int8 mu


def test_table_grows_whole_blocks_only_when_asked():
    clear_kept()
    assert handed(0) == [] and kept_blocks() == []
    handed(3000)
    first = kept_blocks()
    assert len(first) == 1 and first[0].shape == PLANES
    handed(2 * BLOCK - 1)  # the first block's last odd n
    assert _kernels._kept_block.cache_info().misses == 1
    handed(2 * BLOCK + 1)
    kept = kept_blocks()
    assert len(kept) == 2 and kept[0] is first[0]
    handed(TOP + 2)  # streams, and leaves the blocks kept as they were
    assert len(kept_blocks()) == 2
    handed(TOP + 1)  # the even n past TOP adds no odd n
    assert [planes.shape for planes in kept_blocks()] == [PLANES] * KEPT
    assert _kernels._kept_block.cache_info().misses == KEPT
    # int8 mu is derived from the kept planes on its first read, and kept
    # for the first KEPT_INT8 blocks alone
    assert kept_int8() == []
    odd_mu(2 * BLOCK + 1)
    assert len(kept_int8()) == 2
    odd_mu(TOP)
    assert [len(mu) for mu in kept_int8()] == [BLOCK] * KEPT_INT8
    assert _kernels._kept_block.cache_info().misses == KEPT


def test_a_table_hit_finds_no_primes(monkeypatch):
    odd_mu(TOP)  # the whole table

    def no_primes(root):
        raise AssertionError("found primes on a table hit")

    monkeypatch.setattr(_kernels, "_primes", no_primes)
    for n_max in (1, 3000, 2 * BLOCK, INT8_TOP, ORACLE_TOP):
        assert np.array_equal(odd_mu(n_max), oracle()[1 : n_max + 1 : 2])
    assert len(odd_mu(TOP)) == KEPT * BLOCK
    with pytest.raises(AssertionError, match="found primes"):
        _kernels.mobius_blocks(TOP + 2)  # streams: its primes are found at the call


@pytest.mark.parametrize("n_max", [3000, 2 * BLOCK + 1, INT8_TOP, INT8_TOP + 2, TOP, TOP + 2])
def test_blocks_handed_out_are_read_only(n_max):
    # views of the kept planes, and the streamed planes past them, and
    # the int8 mu read from either: kept or in the one buffer
    clear_kept()
    blocks = _kernels.mobius_blocks(n_max)
    int8 = _kernels._int8_mu(n_max)
    for i, (planes, n) in enumerate(blocks):
        for arr in (planes, int8(i, planes, n)):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1


def mu_at(n_max, ns):
    """{n: mu(n)} for the odd n in ``ns``, read as int8 from the blocks
    of ``mobius_blocks(n_max)``."""
    got = {}
    for i, mu in enumerate(int8_blocks(n_max)):
        lo = i * BLOCK
        got.update({n: int(mu[n // 2 - lo]) for n in ns if lo <= n // 2 < lo + len(mu)})
    return got


# the odd n on both sides of each seam between kept blocks, and about the top
KEPT_SEAMS = sorted({2 * i * BLOCK + d for i in range(1, KEPT) for d in (-1, 1)}
                    | {TOP - 2, TOP})


def test_int8_mu_from_the_planes_matches_the_oracle_at_every_seam():
    # kept int8 blocks and unpacked ones, from cold and warm, and the
    # streamed blocks past the kept ones, past the top too
    want = {n: mobius_direct(n) for n in (*KEPT_SEAMS, TOP + 2)}
    clear_kept()
    for _ in ("cold", "warm"):
        assert mu_at(TOP, KEPT_SEAMS) == {n: want[n] for n in KEPT_SEAMS}
    assert mu_at(TOP + 2, want) == want


def test_integer_sums_read_warm_equal_those_read_cold_across_the_seams(monkeypatch):
    # at each kept-block seam and at the top, for both reads (odd and even
    # times), with int8 and wider values; and the same with every block
    # streamed through one buffer
    checkpoints = np.array(sorted({1, *(n + d for n in KEPT_SEAMS for d in (0, 1)), TOP}),
                           np.int64)
    wide = lambda a, b, step: drawn(a, b, step).astype(np.int64) << 20
    sums = {}
    for read in (drawn, wide):
        clear_kept()
        for state in ("cold", "warm"):
            sums[read, state] = _kernels.weighted_mobius_sums(read, checkpoints).tolist()
        assert len(kept_int8()) == KEPT_INT8
    streamed(monkeypatch)
    for read in (drawn, wide):
        sums[read, "streamed"] = _kernels.weighted_mobius_sums(read, checkpoints).tolist()
        assert sums[read, "cold"] == sums[read, "warm"] == sums[read, "streamed"]
    assert sums[wide, "cold"] == [s << 20 for s in sums[drawn, "cold"]]


def test_threads_growing_the_table_at_once_read_the_same_mu():
    # more threads than cores, switching often, each from its own point of
    # a cold table: a torn table or a block still being sieved would show
    sizes = [3000, 2 * BLOCK + 1, INT8_TOP, 4 * BLOCK - 1, ORACLE_TOP, 5000]
    want, results, errors = oracle(), {}, []

    def work(i):
        try:
            for n_max in sizes[i:] + sizes[:i]:
                results[i, n_max] = np.array_equal(_kernels.sieve_mobius(n_max),
                                                   want[: n_max + 1])
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        clear_kept()
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
        assert not any(th.is_alive() for th in threads)
        kept, mus = kept_blocks(), kept_int8()
        assert len(kept) <= KEPT and len(mus) == KEPT_INT8
        for mu, lo in zip(mus, range(0, KEPT_INT8 * BLOCK, BLOCK)):
            assert np.array_equal(mu, want[2 * lo + 1 : 2 * (lo + BLOCK) : 2])
    finally:
        sys.setswitchinterval(switch)
    assert not errors
    assert len(results) == 4 * len(sizes) and all(results.values())
