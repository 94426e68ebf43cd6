"""Hot numeric kernels, in numpy.

Label-word convention used throughout: entries >= 0 are reference-level
indices, entries < 0 are spacers (value -m marks a spacer inserted at
stage m).
"""

from __future__ import annotations

import bisect
import functools
import math
import operator

import numpy as np

# Recorded by the benchmark's machine facts.
BACKEND = "numpy"


#: the odd primes struck once into a tile that every block copies; the
#: sieve runs over the odd n = 2k + 1 only and indexes them by k
TILED = (3, 5, 7)
#: the period in k of their weights and squares, 9*25*49 = 11025
TILE_PERIOD = math.prod(p * p for p in TILED)
#: sieve block and sum chunk, in k: a whole number of periods, so every
#: block starts at a multiple of the period, and about 1 MB of uint8
#: sums, so a block stays in L2
BLOCK = 96 * TILE_PERIOD
#: products of the first 1..15 primes; the last is past the sieve's range
PRIMORIALS = np.cumprod([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47],
                        dtype=np.int64).tolist()
#: one period of the tiled primes' sums and square marks (see mobius_blocks):
#: p | 2k + 1 exactly when k = (p - 1)/2 mod p, and p*p | 2k + 1 exactly
#: when k = (p*p - 1)/2 mod p*p
TILE = np.zeros(TILE_PERIOD, dtype=np.uint8)
for _p in TILED:
    TILE[_p // 2 :: _p] += ((_p * _p).bit_length() - 1) | 1
    TILE[_p * _p // 2 :: _p * _p] = 128
TILE.flags.writeable = False


#: whole sieve blocks kept for the process as their sign planes (see
#: mobius_blocks): 24*2*ceil(BLOCK/64) words, 6,350,592 bytes, which cover
#: the odd n <= 48*BLOCK - 1 = 50,803,199, past tower.MAX_WORD_LENGTH = 5e7
KEPT_BLOCKS = 24
#: the kept blocks whose int8 mu is kept too, derived from their planes on
#: its first read (see _int8_mu): 3*BLOCK bytes, the odd n <= 6,350,399
KEPT_INT8_BLOCKS = 3
#: entries of mu unpacked from the planes per step: two 64 kB temporaries
UNPACK = 1 << 16


def mobius_blocks(n_max: int):
    """mu(2k + 1) for the odd n = 2k + 1 <= n_max, k ascending, one block
    of n <= BLOCK entries at a time, as read-only pairs (planes, n):
    planes is the block's two sign planes, a (2, ceil(n/64)) uint64
    array with bit i of word w set in row 0 where mu(2k + 1) = +1 and in
    row 1 where it is -1, for k = lo + 64w + i and lo the block's first k
    (``np.packbits`` with ``bitorder="little"``). The last word's bits
    past n are not mu's. The even n follow: mu(2m) = -mu(m) for odd m,
    and mu(4m) = 0. ``_int8_mu`` reads a block as int8 mu.

    The planes of the first KEPT_BLOCKS blocks, which cover every odd n
    <= tower.MAX_WORD_LENGTH, are kept for the process: block i is sieved
    once, on first use, by ``_kept_block(i)``, a ``functools.cache`` of
    the block index, which keeps the planes alone. A call whose odd n fit
    in KEPT_BLOCKS blocks sieves, at the call, the whole kept blocks it
    needs that are not cached yet, and gets views of their planes. A call
    past that streams every block as below, each overwritten by the next,
    so read it before asking for the next. Two threads that miss on one
    block at once each sieve it, with the same mu, and the cache keeps
    one: a race can only duplicate work.

    Let N = n_max and l(x) = floor(2*log2(x)), the bit length of x*x
    less 1. Per odd n, a uint8 holds in bit 7 whether p*p | n for some
    prime p <= sqrt(N), and in its low 7 bits S, the sum over those
    p | n of w_p = l(p) | 1, which is odd and has l(p) <= w_p <=
    l(p) + 1. A squarefree odd n <= N is m*q**e, with m the product of
    its k primes <= sqrt(N), q a prime above sqrt(N) and e in {0, 1}
    (two such primes exceed N). The weights are odd, so mu(n) =
    (-1)**((S & 1) ^ e), and e = 1 exactly when l(n) - S >= t. Here
    t = max(omega, 1), with omega the largest k whose product P_k of
    the first k primes is at most N; a product of k distinct primes is
    at least P_k, so k <= omega for every n <= N. Proof: the floor of
    a sum of k terms is at least the sum of their floors and less than
    that plus k. So e = 0 gives l(n) - S <= k - 1 < t (and l(1) - S =
    0 < t). And e = 1 gives l(n) - S >= l(q) - k >= t, as k + 1 <= t
    and l(q) >= 2t - 1: q*q > P_t, the least squares above P_1..P_4 are
    4, 9, 36, 225 >= 2**(2t - 1), and P_t > 4**t from t = 5 on (P_5 =
    2310, and every later prime exceeds 4). Likewise S <= l(N) + t, so
    S fits 7 bits while l(N) + t < 128, that is N < 2**57; past that,
    ValueError is raised at the call, before a kept block is read and
    before anything is allocated. Kept block i is sieved with N its own
    last odd n, 2*(i + 1)*BLOCK - 1, so it holds the same mu.

    TILE starts every block, which then strikes the primes
    7 < p <= sqrt(N) with two strided slices each, stride p from
    k = (p - 1)/2 and stride p*p from k = (p*p - 1)/2, and compares S
    with l(n) - t + 1 in one slice per run of constant l. The last two
    compares, [mu = +1] and [mu = -1], are the planes, packed as they
    are made. The primes are found only when a block is sieved: at the
    call when it streams, so an invalid n_max fails there, and on a kept
    block's first use.
    """
    n_max = operator.index(n_max)  # an exact int, for bit_length
    t, root = _sieve_bounds(n_max)
    count = (n_max + 1) // 2  # the odd n <= n_max
    if count > KEPT_BLOCKS * BLOCK:
        return _odd_blocks(n_max, t, _primes(root))
    kept = [_kept_block(i) for i in range(-(-count // BLOCK))]
    sizes = (min(BLOCK, count - lo) for lo in range(0, count, BLOCK))
    return ((planes[:, : -(-n // 64)], n) for planes, n in zip(kept, sizes))


@functools.cache
def _kept_block(i):
    """The planes of block i < KEPT_BLOCKS of ``mobius_blocks``, sieved
    with N its own last odd n into an array of their own; the sieve's
    other buffers are freed."""
    top = 2 * (i + 1) * BLOCK - 1
    t, root = _sieve_bounds(top)
    planes, _ = next(_odd_blocks(top, t, _primes(root), i))
    return planes


def _int8_mu(n_max):
    """mu(i, planes, n): block i of ``mobius_blocks(n_max)``, given as its
    planes and length, as read-only int8 mu. While n_max's blocks are
    kept, block i < KEPT_INT8_BLOCKS is ``_kept_int8(i)``, derived once
    per process; every other block is unpacked into one buffer, grown to
    the longest block, so a result stays valid until the next block is
    asked for. Asking for one block twice in a row unpacks it once."""
    kept = KEPT_INT8_BLOCKS if (n_max + 1) // 2 <= KEPT_BLOCKS * BLOCK else 0
    buf = last = None

    def mu(i, planes, n):
        nonlocal buf, last
        if i < kept:
            return _kept_int8(i)[:n]
        if last != (i, n):
            if buf is None or n > len(buf):
                buf = np.empty(n, dtype=np.int8)
            _unpack(planes, n, buf)
            last = (i, n)
        out = buf[:n]
        out.flags.writeable = False
        return out

    return mu


@functools.cache
def _kept_int8(i):
    """Kept block i < KEPT_INT8_BLOCKS as int8 mu, derived from its planes
    into an array of its own."""
    mu = np.empty(BLOCK, dtype=np.int8)
    _unpack(_kept_block(i), BLOCK, mu)
    mu.flags.writeable = False
    return mu


def _unpack(planes, n, out):
    """out[:n] = [mu = +1] - [mu = -1], read from the planes UNPACK
    entries at a time."""
    plus, minus = (row.view(np.uint8) for row in planes)
    raw = out.view(np.uint8)  # 0 - 1 wraps to 255, the byte of int8 -1
    for a in range(0, n, UNPACK):
        b = min(n, a + UNPACK)
        np.subtract(np.unpackbits(plus[a // 8 : -(-b // 8)], count=b - a, bitorder="little"),
                    np.unpackbits(minus[a // 8 : -(-b // 8)], count=b - a, bitorder="little"),
                    out=raw[a:b])


def _sieve_bounds(n_max):
    """(t, floor(sqrt(N))) of the sieve to n_max (see mobius_blocks)."""
    t = max(sum(P <= n_max for P in PRIMORIALS), 1)
    if (n_max * n_max).bit_length() - 1 + t >= 128:
        raise ValueError(f"n_max={n_max} is past the sieve's uint8 sums (2**57)")
    return t, math.isqrt(n_max)


def _primes(root):
    """The primes 7 < p <= root, which the blocks strike."""
    is_prime = np.ones(root + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(root) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    return [p for p in np.flatnonzero(is_prime).tolist() if p > TILED[-1]]


def _odd_blocks(n_max, t, primes, first=0):
    """The blocks of mu(2k + 1) for the odd n <= n_max from block
    ``first`` on, as (planes, n) (see mobius_blocks), each overwritten by
    the next."""
    count = (n_max + 1) // 2
    size = min(BLOCK, count)
    root = math.isqrt(n_max)
    planes = None
    # a uint8 weight and an explicit out: ``view += w`` would convert a
    # Python int and write the view back through __setitem__ on every call
    weights = np.array([((p * p).bit_length() - 1) | 1 for p in primes], dtype=np.uint8)
    strikes = [(p // 2, p, w, p * p // 2, p * p) for p, w in zip(primes, weights)]
    for lo in range(first * BLOCK, count, BLOCK):
        if planes is None:
            planes = np.empty((2, -(-size // 64)), dtype=np.uint64)
            # allocated after the planes a kept block keeps, so freed they top the heap
            sums = np.empty(size, dtype=np.uint8)  # the sums, then [mu = -1]
            flags = np.empty(size, dtype=bool)
        n = min(BLOCK, count - lo)
        blk, above = sums[:n], flags[:n]
        whole = n - n % TILE_PERIOD
        blk[:whole].reshape(-1, TILE_PERIOD)[:] = TILE
        blk[whole:] = TILE[: n - whole]
        for r, p, w, r2, sq in strikes:
            hits = blk[(r - lo) % p :: p]
            np.add(hits, w, out=hits)
            if sq < size:
                blk[(r2 - lo) % sq :: sq] = 128  # later weights keep it below 256
            elif (i := (r2 - lo) % sq) < n:  # at most one hit per block
                blk[i] = 128
        bound = above.view(np.uint8)  # l(n) - t + 1, then the comparison in place
        a = max(lo, (root + 1) // 2)  # no n <= sqrt(N) has a prime factor above it
        bound[: a - lo] = 0
        j = ((2 * a + 1) ** 2).bit_length()  # l(2a + 1) + 1
        while a < lo + n:
            b = min(lo + n, (math.isqrt((1 << j) - 1) + 1) // 2)  # the first k with l(2k + 1) >= j
            bound[a - lo : b - lo].fill(j - t)
            a, j = b, j + 1
        np.less(blk, bound, out=above)  # a prime factor above sqrt(N)
        np.bitwise_and(blk, 129, out=blk)
        blk ^= above.view(np.uint8)  # 0 or 1 if squarefree, else 128 or 129
        np.equal(blk, 0, out=above)
        np.equal(blk, 1, out=blk.view(bool))
        rows, packed = planes.view(np.uint8), -(-n // 8)
        for row, plane in zip(rows, (above, blk.view(bool))):
            row[:packed] = np.packbits(plane, bitorder="little")
            row[packed:] = 0  # a short last block leaves the words of the block before
        signs = planes[:, : -(-n // 64)]
        signs.flags.writeable = False
        yield signs, n


def sieve_mobius(n_max: int) -> np.ndarray:
    """mu(0..n_max) as int8; entry 0 is unused and left 0. The odd
    entries are the blocks of ``mobius_blocks`` read as int8 by
    ``_int8_mu``, scattered, and the even ones follow from them:
    mu(2m) = -mu(m) for odd m, mu(4m) = 0."""
    blocks = mobius_blocks(n_max)
    int8 = _int8_mu(n_max)
    mu = np.zeros(n_max + 1, dtype=np.int8)
    odd = mu[1::2]
    for i, (planes, n) in enumerate(blocks):
        odd[i * BLOCK : i * BLOCK + n] = int8(i, planes, n)
    np.negative(mu[1 : n_max // 2 + 1 : 2], out=mu[2::4])
    return mu


def build_word(base, r_arr, s_flat, s_ptr, fills, length):
    """The first ``length`` entries of the word ``base`` restacked
    through later cutting stages, in ``base``'s dtype.

    Stage m stacks r_m copies of the word, copy i followed by s_m(i)
    entries equal to ``fills[m]``, which must fit that dtype. Every
    stage starts with the word it restacks, so once ``length`` entries
    are written the rest is never read and the build stops. The stage
    arrays are read as Python ints, which index and add faster than
    numpy scalars.
    """
    word = np.empty(length, dtype=base.dtype)
    r_arr, s_flat, s_ptr, fills = (x.tolist() for x in (r_arr, s_flat, s_ptr, fills))
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
            end = min(pos + s_flat[s_ptr[st] + i], length)
            word[pos:end] = fills[st]
            pos = end
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


def weighted_mobius_sums(read, checkpoints):
    """Partial sums S_n = sum_{i<=n} v(i)*mu(i) at each of the ascending
    checkpoints, as int64, with mu read from ``mobius_blocks`` to the
    last checkpoint.

    v(i) is the observable along the orbit at time i, bool or of any
    integer dtype, and read(a, b, step) gives v at the times a,
    a + step, ... < b. Each read's values are used up before ``read`` is
    called again, so every read may fill one buffer. As
    mu(2m) = -mu(m) for odd m and mu(4m) = 0, S_n is the sum of
    v(2k + 1)*mu(2k + 1) over k <= (n - 1)/2 less the sum of
    v(4k + 2)*mu(2k + 1) over k <= (n - 2)/4, so each block of
    mu(2k + 1) is read once against v at the times 2k + 1 (step 2) and,
    while 4k + 2 <= n, once against v at the times 4k + 2 (step 4), both
    over the block's own k; v at the times 4k is never asked for. Each
    of the two reads is summed in chunks split at its cuts, on one of
    two paths, picked by the dtype of the first read.

    bool values (an indicator) are packed little-endian, 64 to a uint64
    word, into one reused buffer of ceil(BLOCK/64) words whose tail past
    the read is zeroed; a chunk's sum is popcount(v & [mu = +1]) -
    popcount(v & [mu = -1]) against the block's two sign planes, summed
    exactly over its whole words, and a cut inside a word masks that
    word (``_plane_sums``). No product is formed.

    Integer values are summed against the block's int8 mu, read from its
    planes by ``_int8_mu``, as one exact inner product per chunk,
    ``np.einsum`` in int32 for int8 values, whose chunk sums stay below
    128*BLOCK, else in int64; einsum widens a bounded buffer of entries
    at a time, so no product array is built (``_product_sums``).

    Besides what ``read`` holds, a sum to any N holds the bool path's
    word buffers, or the integer path's one int8 block past the kept
    int8 blocks, and what ``mobius_blocks`` hands out: nothing more for
    kept blocks, one block's planes for streamed ones, never an N-entry
    mu. Every sum is exact when max|v| * n < 2**63.
    """
    cps = [int(c) for c in checkpoints]
    # per read: its step, the cut (first k left out) of each checkpoint,
    # and the sum from the cut before up to each cut; the times are
    # step*k + step/2
    reads = [(step, [(c - step // 2) // step + 1 for c in cps], [0] * len(cps))
             for step in (2, 4)]
    add = None
    for i, (planes, n) in enumerate(mobius_blocks(cps[-1])):
        lo = i * BLOCK
        for step, cuts, between in reads:
            end = min(lo + n, cuts[-1])
            if end <= lo:
                continue
            vals = read(step * lo + step // 2, step * end + step // 2, step)
            if add is None:  # the first read gives the values' dtype
                add = (_plane_sums(min(BLOCK, reads[0][1][-1])) if vals.dtype == bool
                       else _product_sums(_int8_mu(cps[-1])))
            add(vals, i, planes, n, cuts, between)
    (_, _, plus), (_, _, minus) = reads
    return np.cumsum(plus, dtype=np.int64) - np.cumsum(minus, dtype=np.int64)


def _chunks(cuts, a, end):
    """[a, end) split at the ascending ``cuts``, as (i, a, b): cuts[i] is
    the first cut past a."""
    while a < end:
        i = bisect.bisect_right(cuts, a)
        b = min(end, cuts[i])
        yield i, a, b
        a = b


def _product_sums(int8):
    """add(vals, i, planes, n, cuts, between) for integer values at the k
    of block i from its first, lo = i*BLOCK, on: adds each chunk's sum of
    vals*mu, with mu = int8(i, planes, n), to between[c] (see
    weighted_mobius_sums)."""

    def add(vals, i, planes, n, cuts, between):
        mu, lo = int8(i, planes, n), i * BLOCK
        acc = np.int32 if vals.dtype.itemsize == 1 else np.int64
        for c, a, b in _chunks(cuts, lo, lo + len(vals)):
            between[c] += int(np.einsum("i,i->", vals[a - lo : b - lo], mu[a - lo : b - lo],
                                        dtype=acc))

    return add


def _plane_sums(size):
    """add(vals, i, planes, n, cuts, between) for bool values of at most
    ``size`` entries at the k of block i from its first, lo = i*BLOCK,
    on: adds each chunk's popcounts against the sign planes to
    between[c] (see weighted_mobius_sums)."""
    words = -(-size // 64)
    bits, masked = np.empty(words, dtype=np.uint64), np.empty(words, dtype=np.uint64)
    ones = np.empty((2, words), dtype=np.uint8)  # per word: [mu = +1], [mu = -1]

    def add(vals, i, planes, _, cuts, between):
        n, lo = len(vals), i * BLOCK
        used, raw = -(-n // 64), bits.view(np.uint8)
        raw[: -(-n // 8)] = np.packbits(vals, bitorder="little")
        raw[-(-n // 8) : 8 * used] = 0
        for plane, count in zip(planes, ones):
            np.bitwise_and(bits[:used], plane[:used], out=masked[:used])
            np.bitwise_count(masked[:used], out=count[:used])
        plus, minus = ones

        def below(x):  # the signed count of the bits before x in x's word
            w, r = divmod(x, 64)
            if not r:
                return 0
            v = int(bits[w]) & ((1 << r) - 1)
            return (v & int(planes[0, w])).bit_count() - (v & int(planes[1, w])).bit_count()

        for c, a, b in _chunks(cuts, lo, lo + n):
            wa, wb = (a - lo) // 64, (b - lo) // 64
            between[c] += (int(plus[wa:wb].sum()) - int(minus[wa:wb].sum())
                           + below(b - lo) - below(a - lo))

    return add


def strided_mobius_sum(values, mu, stride, count):
    """sum_{k=1..count} values[stride*k - 1] * mu[k], exact in int64: one
    inner product over the strided view, which einsum widens a bounded
    buffer at a time, so no count-entry int64 array is built."""
    return int(np.einsum("i,i->", values[stride - 1 : stride * (count + 1) - 1 : stride],
                         mu[1 : count + 1], dtype=np.int64))
