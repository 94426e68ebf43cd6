"""Number-theoretic kernel: Mobius function and Mertens-type partial sums.

mu(1) = 1, mu(n) = (-1)^k when n is a product of k distinct primes,
mu(n) = 0 when a square divides n. The sieve is the production path;
``mobius_direct`` is the independent trial-division oracle kept for
testing the sieve against, built on the trial-division factoriser
``prime_factors``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from . import _kernels


@dataclass(frozen=True)
class MobiusTable:
    """Sieved values mu(1..n_max).

    ``values`` has length n_max+1 so that ``values[n]`` is mu(n);
    index 0 is unused (mu(0) is not defined).
    """

    n_max: int
    values: np.ndarray = field(repr=False)

    def mu(self, n: int) -> int:
        if not 1 <= n <= self.n_max:
            raise ValueError(f"n={n} outside table range 1..{self.n_max}")
        return int(self.values[n])

    def mertens(self, n: int) -> int:
        """Partial sum M(n) = sum_{k<=n} mu(k)."""
        if not 1 <= n <= self.n_max:
            raise ValueError(f"n={n} outside table range 1..{self.n_max}")
        return int(self.values[1 : n + 1].sum(dtype=np.int64))


def sieve_mobius(n_max: int) -> MobiusTable:
    """Sieve mu(n) for all n <= n_max."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    values = _kernels.sieve_mobius(n_max)
    values.flags.writeable = False
    return MobiusTable(n_max=n_max, values=values)


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


def residue_mertens(table: MobiusTable, p: int, n: int) -> int:
    """sum_{0 < i <= n/p} mu(p*i), exactly.

    The sum over the arithmetic progression p, 2p, ... is the quantity
    whose o(N) decay drives the odometer case; here it is just read off
    the table.
    """
    if p < 1 or n < 1:
        raise ValueError("p and N must be >= 1")
    top = p * (n // p)
    if top > table.n_max:
        raise ValueError(
            f"range exceeds table: need mu up to {top}, table has {table.n_max}"
        )
    if top < p:
        return 0
    return int(table.values[p : top + 1 : p].sum(dtype=np.int64))


def gcd_all(values: Iterable[int]) -> int:
    """gcd of an iterable of nonnegative integers (0 for an empty one)."""
    return math.gcd(*values)
