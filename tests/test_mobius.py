import hashlib
import math
import tracemalloc

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


@pytest.mark.parametrize("p", [2, 3, 5, 7, 31, 97, 521, 1009, 2003])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_sieve_at_prime_square_boundaries(p, offset):
    # n_max around p^2 moves p in or out of the struck primes <= sqrt(n_max);
    # the (n_max + 1)/2 odd n then make one block shorter than p^2, so from
    # p = 11 on, p^2 is struck as a scalar
    n_max = p * p + offset
    mu = _kernels.sieve_mobius(n_max)
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
def test_sieve_blocks_match_unsegmented_strike(n_max):
    assert np.array_equal(_kernels.sieve_mobius(n_max), unsegmented_sieve(n_max))


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


def test_table_is_readonly():
    with pytest.raises(ValueError):
        MU[3] = 5
