"""Exact finite realization of a rank-one transformation.

The stage-K tower is a word of length L_K over the alphabet
{stage-j reference levels} + {spacers}: position l holds the label of
the l-th level, and the transformation climbs one level per step.
Words are handed out as plain read-only arrays, each cut by ``_cut``
only as far as it is read, and past STAGE_WORD_MAX entries decoded
from one shorter stage word; level measures come from the parameters.
Correlations are exact pair counts of this word, carried to depth K by
the stage recursion from a short base word: a climb counts each
distinct junction state once, as rows of one junction block held in
groups of at most JUNCTION_BYTES, and ``_counted`` gives its counts to
the matrices here and to the fits of ``limits`` alike. A matrix carries
the error |n|/L_K (top exit) plus an estimate of the relative mass
added after stage K.

Encoding: labels[l] >= 0 is a reference-level index; labels[l] = -m is
a spacer inserted at stage m.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Sequence

import numpy as np

from . import _kernels
from .construction import ConstructionParams, HeightTable, first_stage_reaching, heights
from .construction import format_count, heights_within
from .errors import DepthTooShallow

#: refuse to materialize words longer than this (memory guard)
MAX_WORD_LENGTH = 50_000_000

#: extra stages probed when bounding the mass added after the depth stage
TAIL_PROBE_STAGES = 8

#: reference stages larger than this would make dense matrices unwieldy
MAX_DENSE_LEVELS = 512

#: bytes a climb holds at once for one group of junction rows, with
#: their bins (``_climb``), and for the pair codes of one count
#: (``_pair_bins``); a row or column past it is a group of its own
JUNCTION_BYTES = 1 << 20

#: a cut ending past this many entries is decoded from one stage word of
#: at most this many (``_decoder``): a quarter of a sieve block, so a
#: Mobius sum's reads of one block meet a few dozen of its copies
STAGE_WORD_MAX = _kernels.BLOCK // 4

#: a stage word shorter than this is not decoded from, since one block's
#: reads (up to 4*BLOCK entries) would meet over 128 of its copies: the
#: next stage word is built instead, r copies of it and their spacers
STAGE_COPY_MIN = STAGE_WORD_MAX // 8


def _heights_from(params: ConstructionParams, j: int, K: int) -> HeightTable:
    """Heights through stage K; ValueError unless 1 <= j <= K."""
    if not 1 <= j <= K:
        raise ValueError(f"need 1 <= j <= K, got j={j}, K={K}")
    return heights(params, K)


def checked_heights(params: ConstructionParams, K: int, j: int = 1) -> HeightTable:
    """Heights through stage K; ValueError unless 1 <= j <= K or if the
    stage-K word would exceed MAX_WORD_LENGTH. The table is grown no
    further than K or the first stage m whose L_m passes that limit,
    which proves L_K too large and is named when m < K. Correlations
    never build that word, but this check is what bounds the base word
    and the junction rows of their climb (see ``correlation_depths``)."""
    if not 1 <= j <= K:
        raise ValueError(f"need 1 <= j <= K, got j={j}, K={K}")
    table = heights_within(params, K, MAX_WORD_LENGTH)
    m = table.max_stage
    if table.L(m) > MAX_WORD_LENGTH:
        levels = format_count(table.L(m))
        found = (f"{levels} levels" if m == K
                 else f"more levels than the {levels} of stage {m}")
        raise ValueError(f"stage-{K} word has {found}, over the "
                         f"{MAX_WORD_LENGTH} in-memory limit")
    return table


def _decoder(params: ConstructionParams, j: int, K: int, hi: int | None = None,
             base=None, fill=None):
    """A decoder of entries [0, hi) (hi <= L_K, by default L_K) of the
    stage-j word ``base`` cut and stacked through stage K, W_K.
    decode(lo, b, step) gives W_K[lo:b:step] for lo <= b <= hi (by
    default b = hi and step = 1): a read-only view when the one word the
    decoder holds is W_K, else written into one buffer of the decoder's
    own, grown to the longest read so far, so that a result stays valid
    until the next read. Stage m stacks column 1, s_m(1) spacers, ...,
    column r_m, s_m(r_m) spacers. By default ``base`` is the level
    indices 0..L_j-1, built only below hi, and a spacer inserted at
    stage m is -m: the label word. A given ``fill`` is every spacer's
    value and must fit ``base``'s dtype.

    When j == K no stage restacks ``base``: it is W_K, read in place, and
    no word and no stage array is built. Else one word is built, once, by
    ``_kernels.build_word``: W_K up to hi when hi <= STAGE_WORD_MAX. Past
    that it builds W_c alone, for the last stage c < K with L_c <=
    STAGE_WORD_MAX (c = j when L_j is past it), or for the stage after it
    when that word is shorter than STAGE_COPY_MIN (W_K up to hi when that
    stage is K), so that a read meets few copies of W_c. decode walks the
    recursion W_{m+1} = W_m, s_m(1) fills, ..., W_m, s_m(r_m) fills from
    W_K down to W_c over [lo, b) alone, never building [0, lo)
    (``_emit``): each stage bisects its copy starts for the first copy
    the read meets, each piece of a copy of W_c is one contiguous slice
    of its step class W_c[q::step], split off once per step, and each run
    of fills is one slice fill.

    Nothing is built before the checks: 1 <= j <= K, hi within
    MAX_WORD_LENGTH, and one ``base`` value per stage-j level.
    """
    table = _heights_from(params, j, K)
    L_j = table.L(j)
    hi = table.L(K) if hi is None else hi
    if hi > MAX_WORD_LENGTH:
        raise ValueError(f"stage-{K} word cut at {format_count(hi)} entries, over the "
                         f"{MAX_WORD_LENGTH} in-memory limit")
    if base is None:  # build_word reads no entry past hi
        base = np.arange(min(L_j, hi), dtype=np.int64)
    elif len(base) != L_j:
        raise ValueError(f"{len(base)} values given for the {L_j} levels of stage {j}")
    if j == K:
        c, word = K, base[:hi]
    else:
        fills = (-np.arange(j, K, dtype=np.int64) if fill is None
                 else np.full(K - j, fill, dtype=np.int64))
        c = K
        if hi > STAGE_WORD_MAX:
            c = j
            while c + 1 < K and table.L(c + 1) <= STAGE_WORD_MAX:
                c += 1
            if table.L(c) < STAGE_COPY_MIN:
                c += 1
        stages = params.stage_range(j, K - 1)
        below = stages[: c - j]
        r_arr = np.array([st.r for st in below], dtype=np.int64)
        s_flat = np.array([x for st in below for x in st.s], dtype=np.int64)
        s_ptr = np.cumsum([0] + [st.r for st in below[:-1]], dtype=np.int64)
        # length goes by position: perfbench/spans.py counts entries from the args
        word = _kernels.build_word(base, r_arr, s_flat, s_ptr, fills[: c - j],
                                   min(hi, table.L(c)))
    word.flags.writeable = False
    if c == K:
        return lambda lo=0, b=hi, step=1: word[lo:b:step]
    # above[m - 1 - c] stacks W_{m-1} into W_m: L_{m-1}, the starts of
    # its copies, s_{m-1} and the fill
    above = [(table.L(m), list(accumulate((table.L(m) + x for x in st.s[:-1]), initial=0)),
              st.s, f)
             for m, st, f in zip(range(c, K), stages[c - j :], fills[c - j :].tolist())]
    classes = {1: [word]}
    buf = np.empty(0, dtype=word.dtype)

    def decode(lo=0, b=hi, step=1):
        nonlocal buf
        n = -((lo - b) // step)
        if n > len(buf):
            buf = np.empty(n, dtype=word.dtype)
        parts = classes.get(step)
        if parts is None:
            parts = classes[step] = [word[q::step].copy() for q in range(step)]
        out = buf[:n]
        _emit(out, lo, step, parts, above, c, K, 0, lo, b)
        return out

    return decode


def _emit(out, lo, step, parts, above, c, m, pos, a, e):
    """Write the entries lo + step*k in [a, e) of the stage-m word at
    ``pos`` into out[k], from the stage-c word's step classes ``parts``
    and the stages ``above`` it (see ``_decoder``)."""
    k0, k1 = -((lo - a) // step), -((lo - e) // step)
    if k0 >= k1:
        return
    if m == c:
        x = lo + step * k0 - pos
        out[k0:k1] = parts[x % step][x // step : x // step + k1 - k0]
        return
    L, starts, s, value = above[m - 1 - c]
    for i in range(bisect_right(starts, a - pos) - 1, len(starts)):
        p = pos + starts[i]
        if p >= e:
            break
        _emit(out, lo, step, parts, above, c, m - 1, p, max(a, p), min(e, p + L))
        k0, k1 = -((lo - max(a, p + L)) // step), -((lo - min(e, p + L + s[i])) // step)
        if k0 < k1:
            out[k0:k1] = value


def _cut(params: ConstructionParams, j: int, K: int, lo: int = 0, hi: int | None = None,
         base=None, fill=None) -> np.ndarray:
    """Entries [lo, hi) (hi <= L_K, by default L_K) of the stage-j word
    ``base`` cut and stacked through stage K, read-only, from
    ``_decoder`` (see there for ``base``, ``fill`` and the checks):
    built only as far as hi, and past STAGE_WORD_MAX entries decoded
    from one shorter stage word, without building [0, lo)."""
    cut = _decoder(params, j, K, hi, base, fill)(lo)
    cut.flags.writeable = False
    return cut


def build_labels(params: ConstructionParams, j: int, K: int,
                 length: int | None = None) -> np.ndarray:
    """The stage-K label word relative to reference stage j (see the
    module docstring), or its first ``length`` entries, at most L_K;
    read-only, cut by ``_cut``."""
    if length is not None:
        length = min(length, heights(params, K).L(K))
    return _cut(params, j, K, hi=length)


def level_measures(params: ConstructionParams, j: int, K: int) -> dict[int, Fraction]:
    """Exact measure of each stage-j level in the depth-K tower. Stage K
    stacks r_m copies of the stage-m tower for m = j..K-1, so each
    stage-j level is prod r_m of the L_K levels. No word is built, so
    any depth works."""
    table = _heights_from(params, j, K)
    copies = math.prod(st.r for st in params.stage_range(j, K - 1))
    return dict.fromkeys(range(table.L(j)), Fraction(copies, table.L(K)))


def tail_bound(params: ConstructionParams, K: int) -> float:
    """Relative mass added by spacers after stage K, estimated at probe
    stage K+TAIL_PROBE_STAGES: 1 - L_K * prod(r_u) / L_{K+TAIL_PROBE_STAGES}.

    For explicit finite constructions the probe stops at the last stage
    with a height, one past the last listed stage (0.0 when that is not
    beyond K). One int true division rounds the exact rational.
    """
    probe_end = K + TAIL_PROBE_STAGES
    if params.kind == "explicit":
        probe_end = min(probe_end, len(params.stages) + 1)
    if probe_end <= K:
        return 0.0
    table = heights(params, probe_end)
    width_ratio = math.prod(st.r for st in params.stage_range(K, probe_end - 1))
    end = table.L(probe_end)
    return (end - table.L(K) * width_ratio) / end


@dataclass(frozen=True)
class CorrelationMatrix:
    """Exact pair counts of the depth-K word at a shift n, over the
    classes {stage-j levels} + {aggregated spacer}. As an estimate of
    nu(T^n A intersect B) each entry carries the error |n|/L_K + tail,
    where ``tail`` is the TAIL_PROBE_STAGES-stage probe estimate of
    ``tail_bound``, not a proven bound."""

    stage: int
    shift: int
    depth: int
    counts: np.ndarray = field(repr=False)
    total: int
    tail: float

    @property
    def error_bound(self) -> float:
        return abs(self.shift) / self.total + self.tail

    @property
    def n_levels(self) -> int:
        return self.counts.shape[0] - 1

    @property
    def values(self) -> np.ndarray:
        return self.counts / self.total

    def value(self, a: int, b: int) -> Fraction:
        return Fraction(int(self.counts[a, b]), self.total)

    def class_name(self, c: int) -> str:
        return "spacer" if c == self.n_levels else str(c)

    def to_csv_rows(self):
        """Rows (A, B, value, error) in deterministic (A, B) order."""
        side = self.counts.shape[0]
        for a in range(side):
            for b in range(side):
                yield (
                    self.class_name(a),
                    self.class_name(b),
                    repr(float(self.counts[a, b] / self.total)),
                    repr(self.error_bound),
                )


def _pair_bins(pairs, size):
    """np.bincount over ``size`` bins of the pair codes left + right, for
    every (left, right) of two slices of one shape in ``pairs``. The codes
    are summed into one intp buffer, which np.bincount reads without a
    copy, of at most JUNCTION_BYTES (or one column of the tallest slice):
    a slice that does not fit is cut along its last axis, and the buffer
    is counted each time it fills."""
    tall = max(left.size // max(left.shape[-1], 1) for left, _ in pairs)
    buf = np.empty(min(sum(left.size for left, _ in pairs), max(JUNCTION_BYTES // 8, tall)),
                   dtype=np.intp)
    bins, used = None, 0
    for left, right in pairs:
        width = left.shape[-1]
        rows, a = left.size // max(width, 1), 0
        while rows and a < width:
            if used + rows > len(buf):
                part, used = np.bincount(buf[:used], minlength=size), 0
                bins = part if bins is None else bins + part
            b = min(width, a + (len(buf) - used) // rows)
            out = buf[used : used + rows * (b - a)].reshape(*left.shape[:-1], b - a)
            np.add(left[..., a:b], right[..., a:b], out=out)
            used, a = used + out.size, b
    part = np.bincount(buf[:used], minlength=size)
    return part if bins is None else bins + part


def _climb(params: ConstructionParams, j: int, wanted: dict[int, set[int]]) -> dict[int, dict]:
    """Read-only pair counts {K: {z: counts}} of the stage-K word relative
    to stage j, for each depth K in ``wanted`` and z in wanted[K], z < L_K.

    Only W_m0, the first stage word with L_m0 >= W = max z, is built, its
    spacers in the spacer class n_ref. For z <= W <= L_m the recursion is
    C_{m+1}(z) = r_m C_m(z) + J_m(z): J_m counts the pairs that start in
    junction i = suf_W(W_m) + s_m(i) spacers + pre_W(W_m) (no prefix
    after the last copy) and end past its suffix. So J_m depends only on
    the state (s_m, suf_W(W_m)), and a stage leaves the last W entries of
    that suffix and s_m(r_m) spacers. The climb walks the suffixes first,
    keeps each distinct state once with its weight in each C_K (the sum,
    over the stages m < K that meet it, of prod_{m < u < K} r_u), and
    lays out its r junctions as rows of one junction block
    (``_junction_block``) with the state in the bin index. Per shift z,
    one ``_pair_bins`` count over W_m0, ``code[:L - z] + word[z:]``, and
    the rows, times the weights, gives the counts of the depths that ask
    for z, the only ones kept. Rows are grouped within JUNCTION_BYTES,
    each group built once. A depth below m0 gets a climb of its own.
    """
    n_ref = heights(params, j).L(j)
    W = max(max(zs) for zs in wanted.values())
    m0 = first_stage_reaching(params, W, j)
    found = {K: _climb(params, j, {K: zs})[K] for K, zs in wanted.items() if K < m0}
    deep = sorted(K for K in wanted if K >= m0)
    side, ext = n_ref + 1, n_ref + 2
    word = _cut(params, j, m0, base=np.arange(n_ref, dtype=np.int16), fill=n_ref)
    pre, suf = word[:W], word[len(word) - W :]
    # the distinct states (stage, suffix) from m0 on, and the weights of
    # W_m0 and of each state in the counts at each depth
    index, states, leaves, weights, v = {}, [], [], [], [1]
    for m, st in enumerate(params.stage_range(m0, deep[-1] - 1), m0):
        if m in wanted:
            weights.append(v)
        k = index.setdefault((st.s, suf.tobytes()), len(states))
        if k == len(states):
            states.append((st, suf))
            s = st.s[-1]
            leaves.append(np.concatenate([suf, np.full(s, n_ref, dtype=suf.dtype)])[s:])
            v = v + [0]
        v = [x * st.r for x in v]
        v[1 + k] += 1
        suf = leaves[k]
    weights.append(v)
    # exact in float: each weight and count is at most L_K <= MAX_WORD_LENGTH < 2**53
    weights = np.array([w + [0] * (len(v) - len(w)) for w in weights], dtype=float)
    asked = {z: [d for d, K in enumerate(deep) if z in wanted[K]]
             for z in sorted(set().union(*(wanted[K] for K in deep)))}
    code = np.multiply(word, ext, dtype=np.int32)
    rows = [(k, s, i == st.r - 1) for k, (st, _) in enumerate(states) for i, s in enumerate(st.s)]
    s_max = max((s for _, s, _ in rows), default=0)
    sufs = np.stack([s for _, s in states]) if states else None
    # a group holds its rows' codes, labels and gathered suffixes, 8 bytes
    # an entry, and int and float bins for at most one state per row
    per_group = max(1, JUNCTION_BYTES // (8 * (W + s_max) + 16 * ext * ext))
    counts = {}
    for a in range(0, max(len(rows), 1), per_group):
        group = rows[a : a + per_group]
        ks = range(group[0][0], group[-1][0] + 1) if group else range(0)
        left, right = _junction_block(group, sufs, pre, s_max, n_ref, ks.start - 1)
        of = weights[:, [0, *(1 + k for k in ks)]]
        for z, ds in asked.items():
            pairs = [(left[:, W - z :], right[:, : z + s_max])]
            if a == 0:  # W_m0's pairs go with the first group
                pairs.insert(0, (code[: len(word) - z], word[z:]))
            bins = _pair_bins(pairs, (1 + len(ks)) * ext * ext)
            C = (of[ds] @ bins.reshape(-1, ext * ext)).reshape(len(ds), ext, ext)
            if a == 0:
                counts[z] = C[:, :side, :side].astype(np.int64)
            else:
                np.add(counts[z], C[:, :side, :side], out=counts[z], casting="unsafe")
    for z, ds in asked.items():
        counts[z].flags.writeable = False
        for d, C in zip(ds, counts[z]):
            found.setdefault(deep[d], {})[z] = C
    return found


def _junction_block(rows, sufs, pre, s_max, n_ref, k0):
    """The left codes and right labels of the junction rows (state k,
    spacers, last copy) of ``_climb``, each W + s_max wide: left, the
    suffix sufs[k] and the spacers, a*(n_ref+2) + (k - k0)*(n_ref+2)**2
    for class a; right, the spacers and the prefix ``pre``. The prefix on
    the left, a last copy's missing prefix and the padding are in the
    discarded class n_ref+1."""
    W, side, ext = len(pre), n_ref + 1, n_ref + 2
    state = np.array([k for k, _, _ in rows], dtype=np.int64)
    spacer = np.arange(s_max) < np.array([s for _, s, _ in rows], dtype=np.int64)[:, None]
    left = np.empty((len(rows), W + s_max), dtype=np.int32)
    if rows:
        np.multiply(sufs[state], ext, out=left[:, :W])
    left[:, W:] = np.where(spacer, n_ref * ext, side * ext)
    left += ((state - k0) * ext * ext)[:, None]
    right = np.full((len(rows), W + s_max), side, dtype=np.int16)
    right[:, :s_max] = np.where(spacer, n_ref, side)
    for i, (_, s, last) in enumerate(rows):
        if not last:
            right[i, s : s + W] = pre
    return left, right


def _counted(
    params: ConstructionParams, j: int, requests: Iterable[tuple[int, Sequence[int]]],
) -> tuple[list[tuple[int, int, Sequence[int]]], dict[int, dict]]:
    """Each request (K, shifts) checked as it is drawn, as (K, L_K,
    shifts) in order, and the read-only pair counts {K: {|n|: counts}} of
    one climb (``_climb``) over all of them. Checks: ``checked_heights``
    (1 <= j <= K, L_K within MAX_WORD_LENGTH), at most MAX_DENSE_LEVELS
    reference levels, and |n| < L_K (DepthTooShallow)."""
    asked = []
    wanted: dict[int, set[int]] = {}
    for K, shifts in requests:
        table = checked_heights(params, K, j)
        n_ref, total = table.L(j), table.L(K)
        if n_ref > MAX_DENSE_LEVELS:
            raise ValueError(
                f"reference stage has {n_ref} levels; "
                f"dense correlation supports at most {MAX_DENSE_LEVELS}"
            )
        for n in shifts:
            if abs(n) >= total:
                raise DepthTooShallow(f"|n|={abs(n)} needs a deeper tower than L_K={total}")
        asked.append((K, total, shifts))
        wanted.setdefault(K, set()).update(abs(n) for n in shifts)
    return asked, _climb(params, j, wanted)  # ValueError when a request has no shift


def correlation_depths(
    params: ConstructionParams, j: int,
    requests: Iterable[tuple[int, Sequence[int]]],
) -> list[dict[int, CorrelationMatrix]]:
    """For each request (K, shifts), in order, the matrices {n: C} of
    nu(T^n A intersect B) over stage-j classes at depth K:
    C(A,B) = #{l : labels[l]=A, labels[l+n]=B} / L_K.

    The counts are those of ``_counted``, which the fits read too: each
    request is checked as it is drawn from ``requests``, before any
    counting, so a lazy iterable raises its own errors in turn, and all
    are then counted by one climb over |n|. No word past W_m0 is built:
    the L_K check bounds it and each junction row (|n| < L_K), and
    JUNCTION_BYTES the rows held at once. C(-n) is the read-only view
    C(n)^T, and ``tail_bound`` runs once per distinct K.
    """
    asked, counts = _counted(params, j, requests)
    tails = {K: tail_bound(params, K) for K in counts}
    return [
        {
            n: CorrelationMatrix(
                stage=j, shift=n, depth=K,
                counts=counts[K][n] if n >= 0 else counts[K][-n].T,
                total=total, tail=tails[K],
            )
            for n in shifts
        }
        for K, total, shifts in asked
    ]


def correlation_matrices(
    params: ConstructionParams, j: int, K: int, shifts: list[int],
) -> dict[int, CorrelationMatrix]:
    """The matrices of ``correlation_depths`` for the one request (K, shifts)."""
    return correlation_depths(params, j, [(K, shifts)])[0]


def correlation_matrix(
    params: ConstructionParams, j: int, K: int, n: int
) -> CorrelationMatrix:
    """The matrix of ``correlation_matrices`` at the one shift n."""
    return correlation_matrices(params, j, K, [n])[n]


def orbit_depth(params: ConstructionParams, j: int, start: int, N: int) -> int:
    """The depth of an orbit of N steps from the point at level ``start``:
    the first stage K >= j whose word holds entries start+1..start+N,
    that is L_K > start + N. ValueError unless j >= 1, start >= 0 and
    N >= 1."""
    if j < 1:
        raise ValueError(f"reference stage must be >= 1, got {j}")
    if start < 0 or N < 1:
        raise ValueError("need start >= 0 and N >= 1")
    return first_stage_reaching(params, start + N + 1, j)


def orbit_labels(params: ConstructionParams, j: int, start: int, N: int) -> np.ndarray:
    """Labels along the orbit of the point at level ``start``: entries
    start+1 .. start+N of the label word at depth ``orbit_depth``, cut
    at the orbit's end by ``_cut``."""
    return _cut(params, j, orbit_depth(params, j, start, N), start + 1, start + N + 1)
