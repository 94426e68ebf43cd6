"""Exact finite realization of a rank-one transformation.

The stage-K tower is a word of length L_K over the alphabet
{stage-j reference levels} + {spacers}: position l holds the label of
the l-th level, and the transformation climbs one level per step. All
correlation numbers come from literal pair counting in this word and
carry a certified error bound (top-exit mass plus the relative mass
added after stage K).

Encoding: labels[l] >= 0 is a reference-level index; labels[l] = -m is
a spacer inserted at stage m.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import _kernels
from .construction import ConstructionParams, HeightTable, heights
from .errors import DepthTooShallow, StageUnavailable

#: refuse to materialize words longer than this (memory guard)
MAX_WORD_LENGTH = 50_000_000

#: extra stages probed when bounding the mass added after the depth stage
TAIL_PROBE_STAGES = 8

#: reference stages larger than this would make dense matrices unwieldy
MAX_DENSE_LEVELS = 512


@dataclass(frozen=True)
class ReferenceLevel:
    index: int

    def __str__(self):
        return str(self.index)


@dataclass(frozen=True)
class Spacer:
    inserted_at_stage: int

    def __str__(self):
        return f"spacer@{self.inserted_at_stage}"


def decode_label(value: int):
    """Turn an encoded word entry into a ReferenceLevel or Spacer."""
    return ReferenceLevel(int(value)) if value >= 0 else Spacer(-int(value))


@dataclass(frozen=True)
class LevelSet:
    """A set of stage-j levels (sorted indices below L_j)."""

    stage: int
    indices: tuple[int, ...]

    def __post_init__(self):
        if any(i < 0 for i in self.indices):
            raise ValueError("level indices must be >= 0")
        if list(self.indices) != sorted(set(self.indices)):
            raise ValueError("indices must be sorted and distinct")


@dataclass(frozen=True)
class TowerModel:
    """Stage-K level word relative to reference stage j."""

    params: ConstructionParams
    ref_stage: int
    depth: int
    labels: np.ndarray = field(repr=False)
    heights: HeightTable

    @property
    def n_levels(self) -> int:
        """Number of reference levels L_j."""
        return self.heights.L(self.ref_stage)

    @property
    def length(self) -> int:
        """Word length L_K."""
        return len(self.labels)

    def label(self, position: int):
        return decode_label(self.labels[position])

    def class_counts(self) -> np.ndarray:
        """Occurrences per class: reference levels 0..L_j-1, then the
        aggregated spacer class."""
        return _kernels.class_counts(self.labels, self.n_levels)


def checked_heights(params: ConstructionParams, K: int) -> HeightTable:
    """Heights through stage K; ValueError if the stage-K word would
    exceed MAX_WORD_LENGTH."""
    table = heights(params, K)
    total = table.L(K)
    if total > MAX_WORD_LENGTH:
        raise ValueError(
            f"stage-{K} word has {total} levels, over the "
            f"{MAX_WORD_LENGTH} in-memory limit; lower K"
        )
    return table


def _word(params: ConstructionParams, j: int, K: int) -> np.ndarray:
    """The stage-K level word relative to reference stage j, built
    afresh (read-only)."""
    if j < 1:
        raise ValueError("reference stage must be >= 1")
    if K < j:
        raise ValueError("depth K must be >= reference stage j")
    table = checked_heights(params, K)
    total = table.L(K)
    n_st = K - j
    r_arr = np.empty(n_st, dtype=np.int64)
    marks = np.empty(n_st, dtype=np.int64)
    s_parts = []
    s_ptr = np.empty(n_st, dtype=np.int64)
    off = 0
    for t, m in enumerate(range(j, K)):
        st = params.stage(m)
        r_arr[t] = st.r
        marks[t] = m
        s_ptr[t] = off
        s_parts.extend(st.s)
        off += st.r
    s_flat = np.array(s_parts, dtype=np.int64) if s_parts else np.empty(0, np.int64)
    word = _kernels.build_word(table.L(j), r_arr, s_flat, s_ptr, marks, total)
    word.flags.writeable = False
    return word


#: correlations and fits revisit the same (params, j, K); orbits, which
#: rarely do, call _word and keep no word alive
_cached_labels = lru_cache(maxsize=8)(_word)


def build_labels(params: ConstructionParams, j: int, K: int) -> TowerModel:
    """Cut-and-stack the stage-j tower down to depth K.

    Stacking order per stage m: column 1, s_m(1) spacers, column 2,
    s_m(2) spacers, ..., column r_m, s_m(r_m) spacers.
    """
    labels = _cached_labels(params, j, K)
    return TowerModel(
        params=params, ref_stage=j, depth=K, labels=labels,
        heights=heights(params, K),
    )


def level_measures(model: TowerModel) -> dict[int, Fraction]:
    """Exact measure of each reference level in the depth-K model:
    (occurrences)/L_K. All reference levels share the same count
    prod_{m=j}^{K-1} r_m."""
    counts = model.class_counts()
    total = model.length
    return {
        a: Fraction(int(counts[a]), total) for a in range(model.n_levels)
    }


def tail_bound(params: ConstructionParams, K: int, probe: int = TAIL_PROBE_STAGES) -> float:
    """Relative mass added by spacers after stage K, estimated at probe
    stage K+probe: 1 - L_K * prod(r_u) / L_{K+probe}.

    For explicit finite constructions the probe stops at the last
    defined stage (0.0 when none is available beyond K).
    """
    probe_end = K + probe
    while probe_end > K:
        try:
            table = heights(params, probe_end)
            break
        except StageUnavailable:
            probe_end -= 1
    else:
        return 0.0
    width_ratio = 1
    for m in range(K, probe_end):
        width_ratio *= params.stage(m).r
    frac = Fraction(table.L(K) * width_ratio, table.L(probe_end))
    return float(1 - frac)


@dataclass(frozen=True)
class CorrelationMatrix:
    """Pair counts of the depth-K word at a shift n, over the classes
    {stage-j levels} + {aggregated spacer}, with a certified error
    bound |n|/L_K + tail(K) on each entry as an estimate of the
    pairing nu(T^n A intersect B)."""

    stage: int
    shift: int
    depth: int
    counts: np.ndarray = field(repr=False)
    total: int
    error_bound: float

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
                    repr(self.counts[a, b] / self.total),
                    repr(self.error_bound),
                )


def correlation_matrix(
    params: ConstructionParams, j: int, K: int, n: int,
    probe: int = TAIL_PROBE_STAGES,
) -> CorrelationMatrix:
    """Empirical nu(T^n A intersect B) over stage-j classes at depth K.

    C(A,B) = #{l : labels[l]=A, labels[l+n]=B, both in range} / L_K.
    Negative n counts the symmetric pairs with l+n >= 0.
    """
    model = build_labels(params, j, K)
    if model.n_levels > MAX_DENSE_LEVELS:
        raise ValueError(
            f"reference stage has {model.n_levels} levels; "
            f"dense correlation supports at most {MAX_DENSE_LEVELS}"
        )
    if abs(n) >= model.length:
        raise DepthTooShallow(
            f"|n|={abs(n)} needs a deeper tower than L_K={model.length}"
        )
    counts = _kernels.pair_counts(model.labels, n, model.n_levels)
    err = abs(n) / model.length + tail_bound(params, K, probe)
    return CorrelationMatrix(
        stage=j, shift=n, depth=K, counts=counts,
        total=model.length, error_bound=err,
    )


def orbit_labels(
    params: ConstructionParams, j: int, K: int, start: int, N: int
) -> np.ndarray:
    """Labels along the orbit of the point at level ``start``:
    the encoded labels at positions start+1 .. start+N.

    Raises DepthTooShallow when the orbit would leave the stage-K
    tower; decode entries with ``decode_label``.
    """
    if start < 0 or N < 1:
        raise ValueError("need start >= 0 and N >= 1")
    labels = _word(params, j, K)
    if start + N >= len(labels):
        raise DepthTooShallow(
            f"orbit reaches level {start + N}, beyond L_K-1={len(labels) - 1}; "
            "increase K"
        )
    return labels[start + 1 : start + N + 1]
