"""Number-theoretic kernel: the Mobius sieve and a trial-division oracle.

mu(1) = 1, mu(n) = (-1)^k when n is a product of k distinct primes,
mu(n) = 0 when a square divides n. The sieve is the production path;
``mobius_direct`` is the independent trial-division oracle kept for
testing the sieve against, built on the trial-division factoriser
``prime_factors``.
"""

from __future__ import annotations

import numpy as np

from . import _kernels


def sieve_mobius(n_max: int) -> np.ndarray:
    """mu(0..n_max) as a read-only int8 array, so that ``mu[n]`` is
    mu(n); entry 0 is unused and left 0 (mu(0) is not defined). The odd
    entries are ``_kernels.mobius_blocks``' sign planes read as int8, so
    an n_max up to 50,803,199 reads the process's kept planes and sieves
    no block it already holds; to 6,350,399 it reads the int8 mu kept
    from them, and past that each block is unpacked again. The array
    itself is new on every call."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    mu = _kernels.sieve_mobius(n_max)
    mu.flags.writeable = False
    return mu


def prime_factors(n: int) -> list[int]:
    """Prime factors of n with multiplicity, nondecreasing, by trial
    division; empty for n <= 1."""
    out = []
    p = 2
    while p * p <= n:
        while n % p == 0:
            out.append(p)
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out.append(n)
    return out


def mobius_direct(n: int) -> int:
    """mu(n) by trial division; exact for any n >= 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    factors = prime_factors(n)
    if len(set(factors)) < len(factors):
        return 0
    return -1 if len(factors) % 2 else 1
