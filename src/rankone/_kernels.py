"""Hot numeric kernels, in numpy.

Label-word convention used throughout: entries >= 0 are reference-level
indices, entries < 0 are spacers (value -m marks a spacer inserted at
stage m).
"""

from __future__ import annotations

import math

import numpy as np

# Recorded by the benchmark's machine facts.
BACKEND = "numpy"


#: primes struck once into a tile that every block copies
WHEEL = (2, 3, 5, 7)
#: sieve block: a whole number of periods (4*9*25*49 = 44100) of mu over
#: the wheel primes, so every block starts with the same tile, and about
#: 2**18 entries, so the int32 products stay in cache
BLOCK = 6 * 44100


def sieve_mobius(n_max: int) -> np.ndarray:
    """mu(0..n_max) as int8; entry 0 is unused and left 0.

    prod[n] is +-(the product of the distinct struck primes dividing n),
    its sign (-1)^(their number), or 0 when the square of one divides n.
    It is periodic in the wheel primes 2, 3, 5, 7, so they are struck
    once into a tile of BLOCK entries (cut to n_max + 1) that starts
    every block. Each block then strikes the primes 7 < p <= sqrt(n_max)
    with two strided slices, prod[p::p] *= -p and prod[p*p::p*p] = 0;
    a square of at least the block's length hits at most one entry of
    it, which is stored as a scalar.
    So mu(n) = sign(prod[n]), negated when |prod[n]| < n: a squarefree
    n has at most one prime factor above sqrt(n_max).
    """
    root = math.isqrt(n_max)
    is_prime = np.ones(root + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(root) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    primes = [p for p in np.flatnonzero(is_prime).tolist() if p > WHEEL[-1]]
    # exact: the product of the distinct primes dividing n is at most n
    dtype = np.int32 if n_max < 2**31 else np.int64
    size = min(BLOCK, n_max + 1)
    tile = np.ones(size, dtype=dtype)
    for p in WHEEL:
        tile[::p] *= -p
        tile[:: p * p] = 0
    mu = np.empty(n_max + 1, dtype=np.int8)
    offsets = np.arange(size, dtype=dtype)
    for lo in range(0, n_max + 1, size):
        block = mu[lo : lo + size]
        prod = tile[: len(block)].copy()
        for p in primes:
            prod[-lo % p :: p] *= -p
            sq = p * p
            if sq < size:
                prod[-lo % sq :: sq] = 0
            elif (i := -lo % sq) < len(prod):  # at most one hit per block
                prod[i] = 0
        np.sign(prod, out=block)
        np.abs(prod, out=prod)
        prod -= lo  # |prod[n]| - lo against n - lo
        block *= 1 - 2 * (prod < offsets[: len(block)]).view(np.int8)
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
    any integer dtype. The orbit is walked in chunks of at most BLOCK
    entries, split at the checkpoints; each chunk is widened to int64
    in one reused buffer while it multiplies mu, and the chunk sums
    are accumulated, so no N-entry int64 array is built. Every sum is
    exact when max|values| * len(values) < 2**63.
    """
    buf = np.empty(min(BLOCK, values.shape[0]), dtype=np.int64)
    sums, acc, lo = [], 0, 0
    for cp in checkpoints:
        for a in range(lo, cp, BLOCK):
            b = min(a + BLOCK, cp)
            prods = buf[: b - a]
            np.multiply(values[a:b], mu[a + 1 : b + 1], out=prods, dtype=np.int64)
            acc += int(prods.sum())
        sums.append(acc)
        lo = cp
    return np.array(sums, dtype=np.int64)


def strided_mobius_sum(values, mu, stride, count):
    """sum_{k=1..count} values[stride*k - 1] * mu(k), exact in int64."""
    if count <= 0:
        return 0
    picked = values[stride - 1 : stride * count : stride].astype(np.int64)
    return int(np.dot(picked, mu[1 : count + 1].astype(np.int64)))
