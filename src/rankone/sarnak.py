"""Mobius-independence computations on rank-one towers.

Both the weighted Birkhoff sums S_N = sum_{i<=N} f(T^i x) mu(i) and
the telescoping identities of the prime-extension argument are
evaluated in exact integer arithmetic: an observable's rational
coefficients are cleared to their common denominator once, when it is
built, and every sum runs on those numerators. Along an orbit they
are restacked in the narrowest signed integer dtype that holds them,
int8 for an indicator. The weighted sum never builds its orbit: it
reads mu one sieve block of odd n at a time (mu(2m) = -mu(m) for odd
m, mu(4m) = 0), and for each block ``tower._decoder`` decodes the
values at the odd times 2k + 1 and at the times 4k + 2 of that
block's k, each into a reused buffer of at most BLOCK entries, from
one cached stage word of at most BLOCK/4 entries. The values at the
times 4k are never decoded. It multiplies in one integer width up and
sums exactly, so its memory is flat in N: it holds no N-entry mu or
orbit. A strided sum widens the entries it picks a block at a time,
so no sum holds an N-entry int64 array. The telescoping chain is an
algebraic identity and its check must not depend on rounding. Only
the decay traces |S_N|/N are floats. Each sum is fixed by (start, N):
it runs at depth ``tower.orbit_depth`` and sieves mu to N itself once
the orbit has passed the word guard, so an orbit past that guard fails
before the sieve.

There is one telescoping chain, ``_unfold``, with one hypothesis,
checked on the orbit: f(T^i x) = 0 at every time i not divisible by d.
It unfolds S_N M times when d is prime, carrying the sum over times
d^2 m, and once per prime factor when d is composite, carrying the sum
over the new stride; the single telescoping step and the
prime-extension report both read it. The cyclic factor is its order d,
``compact_factor``.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

import numpy as np

from . import _kernels
from .construction import (
    ConstructionParams, column_offsets, eigenvalue_order, tail_start,
)
from .errors import ConsistencyFailure
from .mobius import prime_factors, sieve_mobius
from .tower import _cut, _decoder, checked_heights, orbit_depth

_INT64_SAFE = 2**62


def _clear_denominators(coeffs) -> tuple[np.ndarray, int]:
    """Exact coefficients as int64 numerators over the lcm of their
    reduced denominators."""
    coeffs = tuple(coeffs)
    if not all(issubclass(t, (int, Fraction)) for t in set(map(type, coeffs))):
        raise ValueError("coefficients must be ints or Fractions")
    denom = lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (denom // c.denominator) for c in coeffs]
    if ints and max(map(abs, ints)) >= _INT64_SAFE:
        raise ValueError("observable coefficients too large for exact int64 path")
    return np.array(ints, dtype=np.int64), denom


class Observable:
    """Finite observable: one exact coefficient per stage-j level;
    spacers evaluate to 0.

    Built from a tuple of ints or Fractions, it holds them as int64
    numerators ``nums`` over one denominator ``denom``, the lcm of the
    reduced coefficient denominators; ``coeffs`` gives the exact tuple
    back.
    """

    def __init__(self, stage: int, coeffs: tuple, name: str = ""):
        nums, denom = _clear_denominators(coeffs)
        self._set(stage, nums, denom, name)

    @classmethod
    def _from_nums(cls, stage: int, nums: np.ndarray, denom: int,
                   name: str = "") -> "Observable":
        obs = cls.__new__(cls)
        obs._set(stage, nums, denom, name)
        return obs

    def _set(self, stage, nums, denom, name):
        nums.flags.writeable = False
        self.stage, self.nums, self.denom, self.name = stage, nums, denom, name

    def __repr__(self):
        return (f"Observable(stage={self.stage}, levels={len(self.nums)}, "
                f"denom={self.denom}, name={self.name!r})")

    @cached_property
    def coeffs(self) -> tuple:
        if self.denom == 1:
            return tuple(self.nums.tolist())
        return tuple(_exact(v, self.denom) for v in self.nums.tolist())

    @property
    def sup_norm(self):
        # no |nums| copy; numerators are below 2**62, so -min cannot overflow
        return _exact(int(max(-self.nums.min(initial=0), self.nums.max(initial=0))),
                      self.denom)

    @classmethod
    def indicator(cls, params: ConstructionParams, stage: int, indices,
                  name: str = "") -> "Observable":
        """Indicator of a set of stage-j levels, given as a sequence
        (list, tuple, range), an integer array or any other iterable (a
        set, an iterator), which is read once as a list; repeats count
        once. Floats and bools raise ValueError, as do indices outside
        0..L_j-1, named, sorted. No loop runs in Python: an array's dtype
        gives its type, and ``array("q")`` copies a sequence refusing
        non-integers, so only its 0s and 1s are read, for bools."""
        n = checked_heights(params, stage).L(stage)
        idx = None
        if isinstance(indices, np.ndarray):
            idx, kinds = indices, {indices.dtype.type}
        else:
            if not isinstance(indices, Sequence):
                indices = list(indices)
            try:
                idx = np.frombuffer(array("q", indices), dtype=np.int64)
                maybe_bool = np.flatnonzero((idx == 0) | (idx == 1)).tolist()
                kinds = set(map(type, map(indices.__getitem__, maybe_bool)))
            except TypeError:  # a float or another non-integer
                kinds = set(map(type, indices))
            except OverflowError:  # an index beyond int64 is outside
                kinds = {int}
        if not all(issubclass(t, (int, np.integer)) and t is not bool for t in kinds):
            names = sorted(t.__name__ for t in kinds)
            raise ValueError(f"level indices must be integers, got entries of type {names}")
        if idx is None or (idx.size and (idx.min() < 0 or idx.max() >= n)):
            bad = sorted({int(i) for i in indices if not 0 <= i < n})
            raise ValueError(f"level indices {bad} outside 0..{n - 1}")
        nums = np.zeros(n, dtype=np.int64)
        nums[idx] = 1
        return cls._from_nums(stage, nums, 1, name)

    def scaled_ints(self) -> tuple[np.ndarray, int]:
        """Numerators with a trailing 0 slot for the spacer class, and
        the common denominator."""
        return np.append(self.nums, 0), self.denom


def _orbit_base(obs: Observable, N: int):
    """The numerators in the narrowest signed integer dtype that holds
    every one and 0 (int8 for an indicator), and whether an N-term sum
    of them could overflow, so that the orbit values need a scan."""
    lo, hi = int(obs.nums.min(initial=0)), int(obs.nums.max(initial=0))
    dtype = next(t for t in (np.int8, np.int16, np.int32, np.int64)
                 if np.iinfo(t).min <= lo and hi <= np.iinfo(t).max)
    return obs.nums.astype(dtype, copy=False), max(-lo, hi) * N >= _INT64_SAFE


def _check_overflow(vals, N: int):
    if max(-int(vals.min(initial=0)), int(vals.max(initial=0))) * N >= _INT64_SAFE:
        raise ValueError("sum could overflow the exact int64 path")


def _orbit_values(params, obs: Observable, start: int, N: int):
    """Values f(T^i x) for i = 1..N, plus the denominator: the
    numerators (``_orbit_base``) restacked to depth ``orbit_depth`` with
    spacers valued 0 and cut at the orbit's end by ``_cut``. The values
    are scanned for overflow only when the largest numerator could
    overflow an N-term sum, so never for an indicator."""
    K = orbit_depth(params, obs.stage, start, N)
    base, scan = _orbit_base(obs, N)
    vals = _cut(params, obs.stage, K, start + 1, start + N + 1, base, 0)
    if scan:
        _check_overflow(vals, N)
    return vals, obs.denom


def _exact(value: int, denom: int):
    f = Fraction(value, denom)
    return int(f) if f.denominator == 1 else f


# ------------------------------------------------------ weighted sums

@dataclass(frozen=True)
class MobiusSumResult:
    """S_N with intermediate checkpoints (exact values)."""

    N: int
    final: int | Fraction
    checkpoints: tuple

    def decay_rows(self):
        """(n, S_n, S_n/n) rows for the decay trace."""
        for n, s in self.checkpoints:
            yield (str(n), repr(float(s)), repr(float(s) / n))


def _checkpoint_grid(N: int) -> list[int]:
    grid = []
    n = 100
    while n < N:
        grid.append(n)
        n *= 10
    grid.append(N)
    return grid


def mobius_weighted_sum(
    params: ConstructionParams, obs: Observable, start: int, N: int,
) -> MobiusSumResult:
    """S_N = sum_{i=1..N} f(T^i x) mu(i), exactly, for x the point at
    level ``start``; checkpoints at n = 100, 1000, ... and N. The orbit
    values are decoded one mu block at a time (``tower._decoder``), the
    values at the odd times 2k + 1 and at the times 4k + 2 each into a
    reused buffer of at most BLOCK entries, and scanned for overflow
    block by block when the largest numerator could overflow the sum.
    mu is sieved to N a block at a time once the orbit has passed the
    word guard, and neither mu nor the orbit is ever held whole."""
    K = orbit_depth(params, obs.stage, start, N)
    base, scan = _orbit_base(obs, N)
    decode = _decoder(params, obs.stage, K, start + N + 1, base, 0)
    # the reads' and the sieve's buffers in one allocation, larger than the
    # sum's others, which glibc then keeps on its heap from one sum to the
    # next; apart, they were trimmed off the heap's top after each sum and
    # faulted in again by the next (1200 faults, about 2 ms, a sum at
    # N = 5e6 on a 2-core x86 VM)
    odd, even = (min(_kernels.BLOCK, n) for n in ((N + 1) // 2, (N + 2) // 4))
    work = np.empty(odd + even + -(-2 * odd // base.itemsize), dtype=base.dtype)

    def reader(first, step, buf):  # f(T^i x) at the times i = first + step*k
        def read(a, b):
            vals = decode(start + first + step * a, start + first + step * b, step,
                          buf[: b - a])
            if scan:
                _check_overflow(vals, N)
            return vals

        return read

    grid = _checkpoint_grid(N)
    sums = _kernels.weighted_mobius_sums(
        (reader(1, 2, work[:odd]), reader(2, 4, work[odd : odd + even])),
        _kernels.mobius_blocks(N, work[odd + even :].view(np.uint8)),
        np.array(grid, dtype=np.int64)
    )
    checkpoints = tuple(
        (n, _exact(int(s), obs.denom)) for n, s in zip(grid, sums)
    )
    return MobiusSumResult(N=N, final=checkpoints[-1][1], checkpoints=checkpoints)


# ------------------------------------------------------ cyclic factor

def compact_factor(params: ConstructionParams, horizon: int, K: int) -> int:
    """Order d of the cyclic factor at depth K: the ``eigenvalue_order``
    of the tail window (OdometerCase when the rational spectrum is
    infinite), once the column offsets of stages K and K+1, which
    restack the stage-K levels, are checked divisible by d, so that
    stage-K level l keeps its residue class l mod d and T advances it
    by 1. Offsets of earlier stages do not move stage-K levels between
    classes."""
    d = eigenvalue_order(params, tail_start(horizon), horizon)
    for j in (K, K + 1):
        for off in column_offsets(params, j):
            if off % d != 0:
                raise ConsistencyFailure(
                    f"stage {j} column offset {off} not divisible by d={d}; "
                    "the residue partition is not T^d-invariant"
                )
    return d


# ------------------------------------------------- telescoping identity

def _unfold(params, obs, d, primes, start, N):
    """The telescoping chain of S_N = sum_{i<=N} f(T^i x) mu(i), in int64
    units of 1/denom. Its one hypothesis is that the orbit values vanish
    at every time i not divisible by d, whatever levels f sits on and
    wherever x starts; it is checked on the orbit (ConsistencyFailure
    names the first time that fails), and mu is sieved to N once it holds;
    S_N and every F and G read that one mu.

    Starting from cur = S_N at stride s = 1, the step for the prime p
    computes

        F = sum_{k<=N/(sp)}   f(T^{spk} x)    mu(k)
        G = sum_{m<=N/(sp^2)} f(T^{sp^2 m} x) mu(pm)

    and checks cur = mu(p)(F - G), that is mu(pk) = mu(p)mu(k) for p
    not dividing k and mu(p^2 m) = 0: S_N only sees times divisible by
    d, so a carried F or G only sees multiples of the current stride,
    and a carried G already has the weight mu(pm). The stride becomes sp
    and cur becomes G when p = d (G is the rest of S_N) or F when p is a
    proper factor of d (the next factor splits F). Returns denom, S_N,
    the (p, stride, F, G) rows, the last cur and whether every step held.
    """
    vals, denom = _orbit_values(params, obs, start, N)
    if np.count_nonzero(vals) != np.count_nonzero(vals[d - 1::d]):
        times = np.flatnonzero(vals) + 1
        raise ConsistencyFailure(
            f"f(T^i x) != 0 at time i={times[times % d != 0][0]}, not divisible by "
            f"d={d}; the telescoping identity needs f to vanish there")
    mu = sieve_mobius(N)
    s_n = _kernels.strided_mobius_sum(vals, mu, 1, N)
    cur, stride, rows, holds = s_n, 1, [], True
    for p in primes:
        F = _kernels.strided_mobius_sum(vals, mu, stride * p, N // (stride * p))
        G = _kernels.strided_mobius_sum(
            vals, mu[::p], stride * p * p, N // (stride * p * p)
        )
        holds &= cur == -(F - G)  # mu(p) = -1
        stride *= p
        rows.append((p, stride, F, G))
        cur = G if p == d else F
    return denom, s_n, rows, cur, holds


@dataclass(frozen=True)
class TelescopeResult:
    """Exact two-sided evaluation of one telescoping step."""

    d: int
    N: int
    lhs: int | Fraction
    rhs: int | Fraction
    first_term: int | Fraction
    second_term: int | Fraction
    n_first: int
    n_second: int

    @property
    def equal(self) -> bool:
        return self.lhs == self.rhs


def telescope_identity_check(
    params: ConstructionParams, obs: Observable, d: int, start: int, N: int,
) -> TelescopeResult:
    """Verify, exactly, for prime d:

        sum_{i<=N} f(T^i x) mu(i)
          = sum_{0<k<=N/d} f(T^{dk} x) mu(d) mu(k)
            - sum_{0<m<=N/d^2} f(T^{d^2 m} x) mu(d) mu(dm)

    which holds when f(T^i x) = 0 at every i not divisible by d (so only
    i = dk contribute), as mu(dk) = mu(d)mu(k) for k coprime to d and
    mu(d^2 k) = 0. That hypothesis is checked on the orbit, and a
    ConsistencyFailure names the first time it fails. The two sums are
    mu(d)F and mu(d)G of the first step of the chain.
    """
    if prime_factors(d) != [d]:
        raise ValueError(f"d={d} must be prime")
    denom, lhs, [(_, _, F, G)], _, _ = _unfold(params, obs, d, [d], start, N)
    first, second = -F, -G  # mu(d) = -1
    return TelescopeResult(
        d=d, N=N,
        lhs=_exact(lhs, denom), rhs=_exact(first - second, denom),
        first_term=_exact(first, denom), second_term=_exact(second, denom),
        n_first=N // d, n_second=N // (d * d),
    )


@dataclass(frozen=True)
class ExtensionStep:
    """One unfolding of the telescoping chain."""

    depth: int
    prime: int
    stride: int
    n_terms: int
    term: int | Fraction


@dataclass(frozen=True)
class PrimeExtensionReport:
    """Unfolding S_N = sum_u term_u + remainder (prime d) with the crude
    tail bound alongside the exact remainder."""

    d: int
    N: int
    M: int
    s_n: int | Fraction
    steps: tuple[ExtensionStep, ...]
    remainder: int | Fraction
    remainder_bound: Fraction
    identity_holds: bool
    triangle_holds: bool


def prime_extension_report(
    params: ConstructionParams, obs: Observable, d: int, start: int,
    N: int, M: int,
) -> PrimeExtensionReport:
    """Unfold S_N along the telescoping chain: M times for prime d, once
    per prime factor (nondecreasing) for composite d, M then being the
    number of factors.

    Step u, at stride p_1...p_u, records the term mu(p_u) F_u with
    F_u = sum_{k<=N/stride} f(T^{stride k} x) mu(k). For prime d the
    chain carries G, so S_N = sum_u term_u + remainder with remainder
    sum_{m<=N/d^{M+1}} f(T^{d^{M+1} m} x) mu(dm) and bound N*||f||/d^M.
    For composite d it carries F, the remainder is the last F and its
    bound (N//d)*||f||.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    if d < 2:
        raise ValueError("d must be >= 2")
    factors = prime_factors(d)
    prime = factors == [d]
    primes = [d] * M if prime else factors
    denom, s_n, rows, rem, holds = _unfold(params, obs, d, primes, start, N)
    norm = Fraction(obs.sup_norm)
    steps = tuple(
        ExtensionStep(
            depth=u, prime=p, stride=stride, n_terms=N // stride,
            term=_exact(-F, denom),  # mu(p) = -1
        )
        for u, (p, stride, F, _) in enumerate(rows, 1)
    )
    stride = steps[-1].stride
    bound = N * norm / stride if prime else (N // stride) * norm
    return PrimeExtensionReport(
        d=d, N=N, M=len(steps), s_n=_exact(s_n, denom), steps=steps,
        remainder=_exact(rem, denom), remainder_bound=bound,
        identity_holds=holds,
        triangle_holds=abs(Fraction(s_n, denom))
        <= sum(abs(Fraction(st.term)) for st in steps) + bound,
    )
