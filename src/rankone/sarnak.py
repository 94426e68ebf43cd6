"""Mobius-independence computations on rank-one towers.

Both the weighted Birkhoff sums S_N = sum_{i<=N} f(T^i x) mu(i) and
the telescoping identities of the prime-extension argument are
evaluated in exact integer arithmetic: an observable's rational
coefficients are cleared to their common denominator once, when it is
built, into the narrowest dtype that holds them (bool for an indicator,
whose numerators are all 0 or 1, else the narrowest signed integer),
and every sum runs on those numerators. Both read f(T^i x) through one
orbit reader, ``_orbit``: one ``tower._decoder`` at depth
``tower.orbit_depth`` of the numerators, spacers valued 0 (False),
scanned for overflow only when a sum of them could overflow, and read
in place when the orbit lies in the observable's own stage. Each sum
is fixed by (start, N), and its orbit meets the word guard before any
sieve. The weighted sum hands that reader, which fills the decoder's one
buffer, to ``_kernels.weighted_mobius_sums`` as its ``read``, which
owns the layout of mu and of the times it reads (see there): it never
builds its orbit, and its memory is flat in N. Every block of mu comes
from one sieve, ``_kernels._sieve_block``, into arrays of its own. An
indicator's sum reads mu as the sign planes the process keeps of them
for every n the word guard admits, so no such sum sieves a block the
process has sieved before; an integer sum reads int8 mu unpacked from
them. The telescoping chain is an algebraic identity and its check
must not depend on rounding; each of its strided sums is one exact
inner product, which numpy widens a bounded buffer at a time, so no
sum holds an N-entry int64 array.
Every sum is an exact int or Fraction; only the rows of the decay trace
are written as floats (S_n and S_n/n).

There is one telescoping chain, ``prime_extension_report``, which is
also its one report, with one hypothesis, checked on the orbit:
f(T^i x) = 0 at every time i not divisible by d. It unfolds S_N M times
when d is prime, carrying the sum over times d^2 m, and once per prime
factor when d is composite, carrying the sum over the new stride.
``telescope_identity_check`` is its one step of a prime d.
The cyclic factor is its order d, ``compact_factor``.
"""

from __future__ import annotations

import struct
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
from .tower import MAX_WORD_LENGTH, _decoder, checked_heights, orbit_depth

_INT64_SAFE = 2**62


def _clear_denominators(coeffs) -> tuple[np.ndarray, int, int]:
    """Exact coefficients as numerators over the lcm of their reduced
    denominators, in the narrowest dtype that holds them and 0 (bool when
    they are all 0 or 1, else int8, int16, int32 or int64), and the bound
    max|numerator|."""
    coeffs = tuple(coeffs)
    if not all(issubclass(t, (int, Fraction)) for t in set(map(type, coeffs))):
        raise ValueError("coefficients must be ints or Fractions")
    denom = lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (denom // c.denominator) for c in coeffs]
    lo, hi = min(ints, default=0), max(ints, default=0)
    if (bound := max(-lo, hi)) >= _INT64_SAFE:
        raise ValueError("observable coefficients too large for exact int64 path")
    dtype = bool if 0 <= lo and hi <= 1 else next(
        t for t in (np.int8, np.int16, np.int32, np.int64)
        if np.iinfo(t).min <= lo and hi <= np.iinfo(t).max)
    return np.array(ints, dtype=dtype), denom, bound


class Observable:
    """Finite observable: one exact coefficient per stage-j level;
    spacers evaluate to 0.

    Built from a tuple of ints or Fractions, it holds them as numerators
    ``nums`` over one denominator ``denom``, the lcm of the reduced
    coefficient denominators, in the narrowest dtype that holds them
    (bool for an indicator), with their bound max|numerator| as
    ``bound``; ``coeffs`` gives the exact tuple back.
    """

    def __init__(self, stage: int, coeffs: tuple):
        self._set(stage, *_clear_denominators(coeffs))

    def _set(self, stage, nums, denom, bound):
        nums.flags.writeable = False
        self.stage, self.nums, self.denom, self.bound = stage, nums, denom, bound
        return self

    def __repr__(self):
        return (f"Observable(stage={self.stage}, levels={len(self.nums)}, "
                f"denom={self.denom})")

    @cached_property
    def coeffs(self) -> tuple:
        ints = self.nums.astype(np.int64, copy=False).tolist()
        if self.denom == 1:
            return tuple(ints)
        return tuple(_exact(v, self.denom) for v in ints)

    @property
    def sup_norm(self):
        return _exact(self.bound, self.denom)

    @classmethod
    def indicator(cls, params: ConstructionParams, stage: int, indices) -> "Observable":
        """Indicator of a set of stage-j levels, given as a sequence
        (list, tuple, range), an integer array or any other iterable (a
        set, an iterator), which is read once as a list; repeats count
        once. Floats and bools raise ValueError, as do indices outside
        0..L_j-1, named, sorted. No loop runs in Python: a range (the
        CLI's default levels) is set as one slice between its ends, with
        no index array, an array's dtype gives its type, and a sequence
        is copied by ``level_array``."""
        n = checked_heights(params, stage).L(stage)
        if isinstance(indices, range):
            lo, hi = sorted((indices[0], indices[-1])) if indices else (0, -1)
            idx = slice(lo, hi + 1, abs(indices.step))
        elif isinstance(indices, np.ndarray):
            _check_integer_kinds({indices.dtype.type})
            idx = indices
        else:
            if not isinstance(indices, Sequence):
                indices = list(indices)
            try:
                idx = level_array(indices)
            except OverflowError:  # an index beyond int64 is outside
                idx = None
        if isinstance(idx, np.ndarray):
            lo, hi = (idx.min(), idx.max()) if idx.size else (0, -1)
        if idx is None or lo < 0 or hi >= n:
            bad = sorted({int(i) for i in indices if not 0 <= i < n})
            raise ValueError(f"level indices {bad} outside 0..{n - 1}")
        nums = np.zeros(n, dtype=bool)
        nums[idx] = True
        return cls.__new__(cls)._set(stage, nums, 1, int(lo <= hi))

    def scaled_ints(self) -> tuple[np.ndarray, int]:
        """Numerators with a trailing 0 slot for the spacer class, and
        the common denominator."""
        return np.append(self.nums, 0), self.denom


def _check_integer_kinds(kinds):
    if not all(issubclass(t, (int, np.integer)) and t is not bool for t in kinds):
        names = sorted(t.__name__ for t in kinds)
        raise ValueError(f"level indices must be integers, got entries of type {names}")


def level_array(indices: Sequence) -> np.ndarray:
    """A sequence of level indices as a read-only int64 array, the one
    conversion of a level list. ``struct.pack`` copies it with no loop
    in Python, in half the time ``array("q")`` takes, and refuses any
    entry that is not an integer; it reads a bool as 0 or 1, so only the
    0s and 1s are checked for bools. ValueError names the entry types of
    a sequence that holds a non-integer; OverflowError is an index
    beyond int64."""
    try:
        idx = np.frombuffer(struct.pack(f"{len(indices)}q", *indices), dtype=np.int64)
    except struct.error:  # a non-integer, or an index beyond int64
        _check_integer_kinds(set(map(type, indices)))
        raise OverflowError("a level index is beyond int64") from None
    # the 0s and 1s; a negative entry read as uint64 is past 1
    maybe_bool = (idx.view(np.uint64) < 2).nonzero()[0].tolist()
    _check_integer_kinds(set(map(type, map(indices.__getitem__, maybe_bool))))
    return idx


def _orbit(params, obs: Observable, start: int, N: int):
    """The one reader of the orbit of the point at level ``start``:
    read(a, b, step=1) gives f(T^i x) at the times i = a, a + step, ... < b
    (0 < a <= b <= N + 1), as numerators in the observable's dtype, with
    the signature ``_kernels.weighted_mobius_sums`` reads. Decided once:
    the depth ``orbit_depth``, one ``_decoder`` of entries
    [0, start + N + 1) with spacers valued 0, and whether reads need the
    overflow scan (max|numerator| * N >= 2**62).

    A read is the decoder's: a view of ``obs.nums`` when the orbit lies
    in the observable's own stage, and of the one word the decoder built
    when that is the stage-K word; else the decoder's one buffer, grown
    to the longest read so far, so a result stays valid until the next
    read. For the Möbius sum that is one mu block, or the odd n to N, and
    it is the sum's one large allocation: the kernel forms no products,
    and a bool sum's packed words take under a third of it."""
    K = orbit_depth(params, obs.stage, start, N)
    decode = _decoder(params, obs.stage, K, start + N + 1, obs.nums, 0)
    scan = obs.bound * N >= _INT64_SAFE

    def read(a, b, step=1):
        vals = decode(start + a, start + b, step)
        if scan and max(-int(vals.min(initial=0)), int(vals.max(initial=0))) * N >= _INT64_SAFE:
            raise ValueError("sum could overflow the exact int64 path")
        return vals

    return read


def _exact(value: int, denom: int):
    if denom == 1:
        return value
    f = Fraction(value, denom)
    return int(f) if f.denominator == 1 else f


# ------------------------------------------------------ weighted sums

@dataclass(frozen=True)
class MobiusSumResult:
    """S_N with intermediate checkpoints (exact values)."""

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
    reader ``_orbit`` is ``_kernels.weighted_mobius_sums``' ``read``, which
    fills the reader's one buffer, scanned when the largest numerator
    could overflow the sum; the kernel reads mu itself. The orbit is never
    held whole, and mu only as the process's kept blocks, whose size does
    not grow with N: at most 6.35 MB of sign planes and 3.2 MB of int8."""
    grid = _checkpoint_grid(N)
    sums = _kernels.weighted_mobius_sums(_orbit(params, obs, start, N),
                                         np.array(grid, dtype=np.int64))
    checkpoints = tuple(
        (n, _exact(int(s), obs.denom)) for n, s in zip(grid, sums)
    )
    return MobiusSumResult(final=checkpoints[-1][1], checkpoints=checkpoints)


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

@dataclass(frozen=True)
class ExtensionStep:
    """One unfolding of the telescoping chain."""

    depth: int
    prime: int
    term: int | Fraction


@dataclass(frozen=True)
class PrimeExtensionReport:
    """Unfolding S_N = sum_u term_u + remainder (prime d) with the crude
    tail bound alongside the exact remainder."""

    M: int
    s_n: int | Fraction
    steps: tuple[ExtensionStep, ...]
    remainder: int | Fraction
    remainder_bound: Fraction
    identity_holds: bool
    triangle_holds: bool


def extension_primes(d: int, M: int) -> list[int]:
    """The chain's primes: d, M times, for prime d; the prime factors of
    a composite d, nondecreasing, which takes M = 1 only. An orbit the
    word guard admits has start + N + 1 <= MAX_WORD_LENGTH, so a d past
    MAX_WORD_LENGTH, refused before it is factored, divides none of its
    times, and the hypothesis could hold only vacuously; and an M past
    m = MAX_WORD_LENGTH.bit_length() is refused, as N < 2**m <= d**m and
    from step m on no step reads a time."""
    if M < 1 or d < 2:
        raise ValueError(f"need M >= 1 and d >= 2, got M={M}, d={d}")
    if d > MAX_WORD_LENGTH:
        raise ValueError(f"d={d} is past the {MAX_WORD_LENGTH} orbit entries the word "
                         "guard admits, so no time of an orbit is a multiple of it")
    if M > (m := MAX_WORD_LENGTH.bit_length()):
        raise ValueError(f"M={M} is past {m}: the times of an orbit the word guard admits "
                         f"are below {MAX_WORD_LENGTH} < 2**{m}, so from step {m} on no "
                         "step reads a time")
    factors = prime_factors(d)
    if M != 1 and factors != [d]:
        raise ValueError(f"M={M} applies to prime d only; d={d} unfolds once per "
                         f"prime factor, {factors}, and takes M=1")
    return [d] * M if factors == [d] else factors


def prime_extension_report(
    params: ConstructionParams, obs: Observable, d: int, start: int,
    N: int, M: int,
) -> PrimeExtensionReport:
    """The telescoping chain of S_N = sum_{i<=N} f(T^i x) mu(i), through
    the primes of ``extension_primes``: M times for prime d, once per
    prime factor for composite d, which takes M = 1; the report's M
    counts the steps. Its one hypothesis is that the orbit values vanish
    at every time i not divisible by d, whatever levels f sits on and
    wherever x starts; it is checked on the orbit values ``_orbit`` reads
    (ConsistencyFailure names the first time that fails), and mu is
    sieved to N once it holds; S_N and every F and G read that one mu,
    in int64 units of 1/denom.

    Starting from cur = S_N at stride s = 1, the step for the prime p
    computes

        F = sum_{k<=N/(sp)}   f(T^{spk} x)    mu(k)
        G = sum_{m<=N/(sp^2)} f(T^{sp^2 m} x) mu(pm)

    and checks cur = mu(p)(F - G), that is mu(pk) = mu(p)mu(k) for p
    not dividing k and mu(p^2 m) = 0: S_N only sees times divisible by
    d, so a carried F or G only sees multiples of the current stride,
    and a carried G already has the weight mu(pm). The stride becomes sp
    and cur becomes G when p = d (G is the rest of S_N) or F when p is a
    proper factor of d (the next factor splits F).

    Step u, at stride p_1...p_u, records the term mu(p_u) F_u. For prime
    d the chain carries G, so S_N = sum_u term_u + remainder with
    remainder sum_{m<=N/d^{M+1}} f(T^{d^{M+1} m} x) mu(dm) and bound
    N*||f||/d^M. For composite d it carries F, the remainder is the last
    F and its bound (N//d)*||f||.
    """
    primes = extension_primes(d, M)
    vals = _orbit(params, obs, start, N)(1, N + 1)
    if np.count_nonzero(vals) != np.count_nonzero(vals[d - 1::d]):
        times = np.flatnonzero(vals) + 1
        raise ConsistencyFailure(
            f"f(T^i x) != 0 at time i={times[times % d != 0][0]}, not divisible by "
            f"d={d}; the telescoping identity needs f to vanish there")
    mu = sieve_mobius(N)
    s_n = _kernels.strided_mobius_sum(vals, mu, 1, N)
    cur, stride, steps, holds, spread = s_n, 1, [], True, 0
    for u, p in enumerate(primes, 1):
        F = _kernels.strided_mobius_sum(vals, mu, stride * p, N // (stride * p))
        G = _kernels.strided_mobius_sum(
            vals, mu[::p], stride * p * p, N // (stride * p * p)
        )
        holds &= cur == -(F - G)  # mu(p) = -1
        stride *= p
        steps.append(ExtensionStep(depth=u, prime=p, term=_exact(-F, obs.denom)))
        spread += abs(F)
        cur = G if p == d else F
    # the bound is top/(q*denom), and the triangle is checked on ints in
    # units of 1/(q*denom), with no Fraction arithmetic
    q, top = (stride, N * obs.bound) if primes[0] == d else (1, N // stride * obs.bound)
    return PrimeExtensionReport(
        M=len(steps), s_n=_exact(s_n, obs.denom), steps=tuple(steps),
        remainder=_exact(cur, obs.denom), remainder_bound=Fraction(top, q * obs.denom),
        identity_holds=holds, triangle_holds=abs(s_n) * q <= spread * q + top,
    )


def telescope_identity_check(
    params: ConstructionParams, obs: Observable, d: int, start: int, N: int,
) -> PrimeExtensionReport:
    """The telescoping identity S_N = mu(d)F - mu(d)G of a prime d (see
    ``prime_extension_report``): the chain's one step, whose report has
    S_N as s_n, mu(d)F as steps[0].term and mu(d)G as -remainder."""
    if extension_primes(d, 1) != [d]:
        raise ValueError(f"d={d} must be prime")
    return prime_extension_report(params, obs, d, start, N, 1)
