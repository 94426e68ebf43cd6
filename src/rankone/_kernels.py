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


def sieve_mobius(n_max: int) -> np.ndarray:
    """mu(0..n_max) as int8; entry 0 is unused and left 0.

    Only the primes p <= sqrt(n_max) are struck, one strided pass each:
    mu[p::p] changes sign, prod[p::p] gains the factor p and
    mu[p*p::p*p] is zeroed, so prod[n] is the product of the distinct
    small primes dividing n. A squarefree n with prod[n] < n has exactly
    one prime factor above sqrt(n_max); one vector step flips its sign.
    Cost: pi(sqrt(n_max)) numpy passes, 331 at n_max = 5e6.
    """
    mu = np.ones(n_max + 1, dtype=np.int8)
    mu[0] = 0
    if n_max < 2:
        return mu
    root = math.isqrt(n_max)
    is_prime = np.ones(root + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(root) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    # exact: the product of the distinct primes dividing n is at most n
    dtype = np.int32 if n_max < 2**31 else np.int64
    prod = np.ones(n_max + 1, dtype=dtype)
    for p in np.flatnonzero(is_prime).tolist():
        mu[p::p] *= -1
        prod[p::p] *= p
        mu[p * p :: p * p] = 0
    mu[prod < np.arange(n_max + 1, dtype=dtype)] *= -1
    return mu


def build_word(base_len, r_arr, s_flat, s_ptr, marks, total_len):
    """Expand the level word of a stage through later cutting stages.

    Starts from the identity word [0..base_len) and, for each stage m,
    restacks r_m copies with s_m(i) spacer symbols after copy i.
    """
    word = np.empty(total_len, dtype=np.int64)
    word[:base_len] = np.arange(base_len, dtype=np.int64)
    cur = base_len
    for st in range(len(r_arr)):
        r = r_arr[st]
        mark = -marks[st]
        pos = cur
        for i in range(r):
            if i > 0:
                word[pos : pos + cur] = word[:cur]
                pos += cur
            ns = s_flat[s_ptr[st] + i]
            if ns > 0:
                word[pos : pos + ns] = mark
                pos += ns
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
    """Partial sums S_n = sum_{i<=n} values[i-1]*mu(i) at each checkpoint.

    ``values[i-1]`` holds the observable along the orbit at time i;
    all arithmetic stays in int64.
    """
    n_total = values.shape[0]
    prods = values * mu[1 : n_total + 1].astype(np.int64)
    csum = np.cumsum(prods)
    out = np.empty(len(checkpoints), dtype=np.int64)
    for k, n in enumerate(checkpoints):
        out[k] = csum[n - 1] if n > 0 else 0
    return out


def strided_mobius_sum(values, mu, stride, count):
    """sum_{k=1..count} values[stride*k - 1] * mu(k), exact in int64."""
    if count <= 0:
        return 0
    idx = stride * np.arange(1, count + 1, dtype=np.int64) - 1
    return int(np.dot(values[idx], mu[1 : count + 1].astype(np.int64)))
