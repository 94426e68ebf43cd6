"""Hot numeric kernels, in numpy.

Label-word convention used throughout: entries >= 0 are reference-level
indices, entries < 0 are spacers (value -m marks a spacer inserted at
stage m).
"""

from __future__ import annotations

import math
import operator

import numpy as np

# Recorded by the benchmark's machine facts.
BACKEND = "numpy"


#: primes struck once into a tile that every block copies
WHEEL = (2, 3, 5, 7)
#: the period of their weights and squares, 4*9*25*49 = 44100
PERIOD = math.prod(p * p for p in WHEEL)
#: sieve block and sum chunk: a whole number of periods, so every block
#: starts at a multiple of the period, and about 1 MB of uint8 sums, so
#: a block stays in L2
BLOCK = 24 * PERIOD
#: products of the first 1..15 primes; the last is past the sieve's range
PRIMORIALS = np.cumprod([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47],
                        dtype=np.int64).tolist()
#: one period of the wheel primes' sums and square marks (see sieve_mobius)
WHEEL_TILE = np.zeros(PERIOD, dtype=np.uint8)
for _p in WHEEL:
    WHEEL_TILE[::_p] += ((_p * _p).bit_length() - 1) | 1
    WHEEL_TILE[:: _p * _p] = 128
WHEEL_TILE.flags.writeable = False


def sieve_mobius(n_max: int) -> np.ndarray:
    """mu(0..n_max) as int8; entry 0 is unused and left 0.

    Let N = n_max and l(x) = floor(2*log2(x)), the bit length of x*x
    less 1. Per n, a uint8 holds in bit 7 whether p*p | n for some prime
    p <= sqrt(N), and in its low 7 bits S, the sum over those p | n of
    w_p = l(p) | 1, which is odd and has l(p) <= w_p <= l(p) + 1. A
    squarefree n <= N is m*q**e, with m the product of its k primes
    <= sqrt(N), q a prime above sqrt(N) and e in {0, 1} (two such primes
    exceed N). The weights are odd, so mu(n) = (-1)**((S & 1) ^ e), and
    e = 1 exactly when l(n) - S >= t. Here t = max(omega, 1), with omega
    the largest k whose product P_k of the first k primes is at most N.
    Proof: the floor of a sum of k terms is at least the sum of their
    floors and less than that plus k. So e = 0 gives l(n) - S <= k - 1
    < t, as P_k <= N (and l(1) - S = 0 < t). And e = 1 gives
    l(n) - S >= l(q) - k >= t, as k + 1 <= t and l(q) >= 2t - 1: q*q >
    P_t, the least squares above P_1..P_4 are 4, 9, 36, 225 >=
    2**(2t - 1), and P_t > 4**t from t = 5 on (P_5 = 2310, and every
    later prime exceeds 4). Likewise S <= l(N) + t, so S fits 7 bits
    while l(N) + t < 128, that is N < 2**57; past that, ValueError is
    raised before anything is allocated.

    WHEEL_TILE starts every block, which then strikes the primes
    7 < p <= sqrt(N) with two strided slices each and fills the bound
    l(n) - t + 1 on S with one slice per run of constant l.
    """
    n_max = operator.index(n_max)  # an exact int, for bit_length
    t = max(sum(P <= n_max for P in PRIMORIALS), 1)
    if (n_max * n_max).bit_length() - 1 + t >= 128:
        raise ValueError(f"n_max={n_max} is past the sieve's uint8 sums (2**57)")
    root = math.isqrt(n_max)
    is_prime = np.ones(root + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(root) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    primes = [p for p in np.flatnonzero(is_prime).tolist() if p > WHEEL[-1]]
    size = min(BLOCK, n_max + 1)
    bound = np.empty(size, dtype=np.uint8)
    big = np.empty(size, dtype=bool)
    mu = np.empty(n_max + 1, dtype=np.int8)
    for lo in range(0, n_max + 1, size):
        blk = mu[lo : lo + size].view(np.uint8)  # the sums, then mu in place
        n = len(blk)
        whole = n - n % PERIOD
        blk[:whole].reshape(-1, PERIOD)[:] = WHEEL_TILE
        blk[whole:] = WHEEL_TILE[: n - whole]
        for p in primes:
            blk[-lo % p :: p] += ((p * p).bit_length() - 1) | 1
            sq = p * p
            if sq < size:
                blk[-lo % sq :: sq] = 128  # later weights keep it below 256
            elif (i := -lo % sq) < n:  # at most one hit per block
                blk[i] = 128
        a = max(lo, root + 1)  # no n <= sqrt(N) has a prime factor above it
        bound[: a - lo] = 0
        while a < lo + n:
            j = (a * a).bit_length()  # l(a) + 1
            b = min(lo + n, math.isqrt((1 << j) - 1) + 1)  # the first n with l(n) = j
            bound[a - lo : b - lo].fill(j - t)
            a = b
        np.less(blk, bound[:n], out=big[:n])  # a prime factor above sqrt(N)
        np.bitwise_and(blk, 129, out=blk)
        blk ^= big[:n].view(np.uint8)  # 0 or 1 if squarefree, else 128 or 129
        np.equal(blk, 0, out=big[:n])
        np.equal(blk, 1, out=blk.view(bool))
        np.subtract(big[:n].view(np.int8), blk.view(np.int8), out=blk.view(np.int8))
    return mu


def build_word(base, r_arr, s_flat, s_ptr, fills, length):
    """The first ``length`` entries of the word ``base`` restacked
    through later cutting stages, in ``base``'s dtype.

    Stage m stacks r_m copies of the word, copy i followed by s_m(i)
    entries equal to ``fills[m]``, which must fit that dtype. Every
    stage starts with the word it restacks, so once ``length`` entries
    are written the rest is never read and the build stops.
    """
    word = np.empty(length, dtype=base.dtype)
    cur = min(len(base), length)
    word[:cur] = base[:cur]
    for st in range(len(r_arr)):
        if cur == length:
            break
        pos = cur
        for i in range(r_arr[st]):
            if i > 0:
                n = min(cur, length - pos)
                word[pos : pos + n] = word[:n]
                pos += n
            word[pos : pos + s_flat[s_ptr[st] + i]] = fills[st]
            pos = min(pos + s_flat[s_ptr[st] + i], length)
        cur = pos
    return word


def pair_counts(labels, shift, n_ref):
    """Count label pairs (labels[l], labels[l+shift]) into a dense
    (n_ref+1)x(n_ref+1) matrix; spacers are aggregated into class n_ref."""
    n = labels.shape[0]
    if shift >= 0:
        a = labels[: n - shift]
        b = labels[shift:]
    else:
        a = labels[-shift:]
        b = labels[: n + shift]
    side = n_ref + 1
    ca = np.where(a >= 0, a, n_ref)
    cb = np.where(b >= 0, b, n_ref)
    flat = np.bincount(ca * side + cb, minlength=side * side)
    return flat.reshape(side, side).astype(np.int64)


def class_counts(labels, n_ref):
    """Occurrences of each class (reference levels plus the spacer class)."""
    c = np.where(labels >= 0, labels, n_ref)
    return np.bincount(c, minlength=n_ref + 1).astype(np.int64)


def weighted_mobius_sums(values, mu, checkpoints):
    """Partial sums S_n = sum_{i<=n} values[i-1]*mu(i) at each of the
    ascending checkpoints, as int64.

    ``values[i-1]`` holds the observable along the orbit at time i, in
    any integer dtype. The orbit is walked in chunks split at the
    checkpoints; each chunk multiplies mu into one reused buffer of
    2*BLOCK bytes, one width up from the values (BLOCK int16 products
    for int8 values, int32 for int16, else int64), and is summed in
    int64, so no N-entry int64 array is built. Every sum is exact when
    max|values| * len(values) < 2**63.
    """
    wide = np.dtype({1: np.int16, 2: np.int32}.get(values.dtype.itemsize, np.int64))
    step = 2 * BLOCK // wide.itemsize
    buf = np.empty(min(step, values.shape[0]), dtype=wide)
    sums, acc, lo = [], 0, 0
    for cp in checkpoints:
        for a in range(lo, cp, step):
            b = min(a + step, cp)
            prods = buf[: b - a]
            np.multiply(values[a:b], mu[a + 1 : b + 1], out=prods, dtype=wide)
            acc += int(prods.sum(dtype=np.int64))
        sums.append(acc)
        lo = cp
    return np.array(sums, dtype=np.int64)


def strided_mobius_sum(values, mu, stride, count):
    """sum_{k=1..count} values[stride*k - 1] * mu(k), exact in int64."""
    if count <= 0:
        return 0
    picked = values[stride - 1 : stride * count : stride].astype(np.int64)
    return int(np.dot(picked, mu[1 : count + 1].astype(np.int64)))
