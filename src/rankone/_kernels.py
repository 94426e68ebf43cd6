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
    with two strided slices: prod[p::p] *= -p and prod[p*p::p*p] = 0.
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
            prod[-lo % (p * p) :: p * p] = 0
        np.sign(prod, out=block)
        np.abs(prod, out=prod)
        prod -= lo  # |prod[n]| - lo against n - lo
        block *= 1 - 2 * (prod < offsets[: len(block)]).view(np.int8)
    return mu


def build_word(base, r_arr, s_flat, s_ptr, fills, length):
    """The first ``length`` entries of the int64 word ``base`` restacked
    through later cutting stages.

    Stage m stacks r_m copies of the word, copy i followed by s_m(i)
    entries equal to ``fills[m]``. Every stage starts with the word it
    restacks, so once ``length`` entries are written the rest is never
    read and the build stops.
    """
    word = np.empty(length, dtype=np.int64)
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
    ascending checkpoints.

    ``values[i-1]`` holds the observable along the orbit at time i;
    all arithmetic stays in int64. Each stretch between checkpoints is
    summed once and the stretch sums are accumulated.
    """
    prods = values * mu[1 : values.shape[0] + 1]
    edges = [0, *checkpoints]
    return np.cumsum([prods[a:b].sum() for a, b in zip(edges, edges[1:])], dtype=np.int64)


def strided_mobius_sum(values, mu, stride, count):
    """sum_{k=1..count} values[stride*k - 1] * mu(k), exact in int64."""
    if count <= 0:
        return 0
    idx = stride * np.arange(1, count + 1, dtype=np.int64) - 1
    return int(np.dot(values[idx], mu[1 : count + 1].astype(np.int64)))
