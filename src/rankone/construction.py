"""Rank-one construction parameters and their combinatorial structure.

A construction is given by an initial height h1 and, for each stage j,
a number of columns r_j >= 2 and spacer heights s_j(1..r_j). The
stage-j tower has L_j = h_j + 1 levels, with

    L_{j+1} = L_j * r_j + sum_i s_j(i).

All height arithmetic is exact (python ints), kept once per construction
with its random stages (``_level_table``) and read in place. "Eventually
..." style conditions are evaluated on a finite horizon H by requiring
the property on the tail window [max(1, floor(H/2)), H]; no claim is
made beyond the horizon.
"""

from __future__ import annotations

import enum
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from math import gcd, inf, log10

from .errors import NotBounded, OdometerCase, StageUnavailable

MIN_COLUMNS = 2
#: the largest r_max of a random construction: drawing a stage takes its
#: r + 1 draws in Python, and one of r = 2**20 columns took 0.37 s on a
#: 2-core x86 VM, so no stage draw nears a second
MAX_RANDOM_COLUMNS = 2**20


@dataclass(frozen=True)
class StageParams:
    """One cutting stage: r columns, spacer heights s(1..r)."""

    r: int
    s: tuple[int, ...]

    def __post_init__(self):
        if self.r < MIN_COLUMNS:
            raise ValueError(f"r must be >= {MIN_COLUMNS}, got {self.r}")
        if len(self.s) != self.r:
            raise ValueError(f"need {self.r} spacer heights, got {len(self.s)}")
        if any(x < 0 for x in self.s):
            raise ValueError("spacer heights must be >= 0")

    @property
    def s_min_first(self) -> int:
        """min over the first r-1 columns (the last column is excluded
        from the minimum used by the return-power sequences)."""
        return min(self.s[:-1])

    def is_flat_first(self) -> bool:
        """Spacers equal over the first r-1 columns."""
        return len(set(self.s[:-1])) == 1


class _Kind(str, enum.Enum):
    PERIODIC = "periodic"
    EXPLICIT = "explicit"
    RANDOM = "random"


@dataclass(frozen=True)
class ConstructionParams:
    """Defining data of a rank-one construction.

    ``stages`` semantics depend on ``kind``: a repeating pattern
    (periodic), a finite list (explicit, later stages unavailable), or
    ignored (random, which draws stage j from a seed-and-index RNG with
    r_j in [2, r_max] and s_j(i) in [0, s_max]).
    """

    h1: int
    kind: _Kind
    stages: tuple[StageParams, ...] = ()
    r_max: int = 0
    s_max: int = 0
    seed: int = 0
    name: str = ""

    def __post_init__(self):
        if self.h1 < 0:
            raise ValueError("h1 must be >= 0")
        if self.kind in (_Kind.PERIODIC, _Kind.EXPLICIT) and not self.stages:
            raise ValueError("need at least one stage")
        if self.kind is _Kind.RANDOM and self.r_max < MIN_COLUMNS:
            raise ValueError(f"r_max must be >= {MIN_COLUMNS}")
        if self.kind is _Kind.RANDOM and self.r_max > MAX_RANDOM_COLUMNS:
            raise ValueError(f"r_max must be <= {MAX_RANDOM_COLUMNS}, got {self.r_max}")
        # hashed once, not per lookup of a kept table: the generated hash
        # walks every stage. Ints only, since str hashes differ per process.
        object.__setattr__(self, "_hash", hash(
            (self.h1, self.stages, self.r_max, self.s_max, self.seed)))

    def __hash__(self):
        return self._hash

    # -- constructors -------------------------------------------------

    @classmethod
    def periodic(cls, h1, pattern, name="") -> "ConstructionParams":
        return cls(h1=h1, kind=_Kind.PERIODIC, stages=tuple(pattern), name=name)

    @classmethod
    def explicit(cls, h1, stages) -> "ConstructionParams":
        return cls(h1=h1, kind=_Kind.EXPLICIT, stages=tuple(stages))

    @classmethod
    def random_bounded(cls, h1, r_max, s_max, seed) -> "ConstructionParams":
        return cls(h1=h1, kind=_Kind.RANDOM, r_max=r_max, s_max=s_max, seed=seed)

    # -- stage access --------------------------------------------------

    def stage(self, j: int) -> StageParams:
        """Stage j. A random construction draws it from random.Random(seed
        * 1_000_003 + j) once, into the keep of its levels (``_level_table``)."""
        if j < 1:
            raise ValueError("stage index starts at 1")
        if self.kind is _Kind.PERIODIC:
            return self.stages[(j - 1) % len(self.stages)]
        if self.kind is _Kind.EXPLICIT:
            if j > len(self.stages):
                raise StageUnavailable(
                    f"explicit construction has {len(self.stages)} stages, "
                    f"stage {j} requested"
                )
            return self.stages[j - 1]
        drawn = _level_table(self)[1]
        if j not in drawn:
            rng = random.Random(self.seed * 1_000_003 + j)
            r = rng.randint(MIN_COLUMNS, self.r_max)
            drawn[j] = StageParams(r, tuple(rng.randint(0, self.s_max) for _ in range(r)))
        return drawn[j]

    def stage_range(self, j0: int, j1: int) -> list[StageParams]:
        return [self.stage(j) for j in range(j0, j1 + 1)]

    def describe(self) -> str:
        if self.name:
            return self.name
        if self.kind is _Kind.RANDOM:
            return f"random(h1={self.h1},r<={self.r_max},s<={self.s_max},seed={self.seed})"
        body = ";".join(f"r={st.r},s={','.join(map(str, st.s))}" for st in self.stages)
        return f"{self.kind.value}(h1={self.h1},{body})"


# ------------------------------------------------------------- presets

def odometer(p: int) -> ConstructionParams:
    """p-adic odometer: p columns, no spacers."""
    return ConstructionParams.periodic(
        0, [StageParams(p, (0,) * p)], name=f"odometer{p}"
    )


def chacon() -> ConstructionParams:
    """Classical weakly mixing construction: r=3, spacers (0,1,0)."""
    return ConstructionParams.periodic(0, [StageParams(3, (0, 1, 0))], name="chacon")


def flat3() -> ConstructionParams:
    """Flat spacers over the first two of three columns: (1,1,0)."""
    return ConstructionParams.periodic(0, [StageParams(3, (1, 1, 0))], name="flat3")


def cyclic_factor_preset(d: int) -> ConstructionParams:
    """Construction whose powers keep a cyclic factor of order d:
    h1 = d-1 and spacers (0, d), so every column offset is divisible by d."""
    if d < 2:
        raise ValueError("d must be >= 2")
    name = "class4" if d == 2 else f"cyclic{d}"
    return ConstructionParams.periodic(d - 1, [StageParams(2, (0, d))], name=name)


def class4() -> ConstructionParams:
    """The order-2 cyclic-factor preset (h1=1, r=2, s=(0,2))."""
    return cyclic_factor_preset(2)


#: each preset built once: a kept result is looked up by the very
#: instance it was computed for, with no field-by-field comparison
PRESETS = {
    "chacon": chacon(),
    "odometer2": odometer(2),
    "odometer3": odometer(3),
    "flat3": flat3(),
    "class4": class4(),
}


def preset(name: str) -> ConstructionParams:
    if not isinstance(name, str) or name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; valid: {sorted(PRESETS)}")
    return PRESETS[name]


# -------------------------------------------------------------- heights

class HeightTable:
    """Level counts L_j = h_j + 1 for stages 1..max_stage, exact ints, read
    in place from the kept table, which only grows: ``levels`` alone copies
    them, and two tables are equal when their ``levels`` are."""

    def __init__(self, kept: list[int], max_stage: int):
        self._kept, self.max_stage = kept, max_stage

    @property
    def levels(self) -> tuple[int, ...]:
        return tuple(self._kept[: self.max_stage])

    def __eq__(self, other):
        return isinstance(other, HeightTable) and self.levels == other.levels

    def L(self, j: int) -> int:
        if not 1 <= j <= self.max_stage:
            raise ValueError(f"stage {j} outside 1..{self.max_stage}")
        return self._kept[j - 1]

    def h(self, j: int) -> int:
        return self.L(j) - 1


@lru_cache(maxsize=256)
def _level_table(
    params: ConstructionParams,
) -> tuple[list[int], dict[int, StageParams], list[int]]:
    """The one keep of a construction: its levels L_1, L_2, ..., grown in
    place by ``_grow``, a random one's stages drawn so far, by index, and
    its return heights |H_1|, |H_2|, ..., grown by ``return_heights``."""
    return [params.h1 + 1], {}, []


def _grow(params: ConstructionParams, J: int, n: float = inf) -> list[int]:
    """The level table, grown by the exact recursion L_{j+1} = L_j r_j +
    sum_i s_j(i) through stage J, or only until an L_j passes n, whichever
    comes first. The one loop that grows it: one lookup per call."""
    levels = _level_table(params)[0]
    while len(levels) < J and levels[-1] <= n:
        st = params.stage(len(levels))
        levels.append(levels[-1] * st.r + sum(st.s))
    return levels


def return_heights(params: ConstructionParams, J: int, n: int) -> list[int]:
    """The kept return heights |H_j| = L_j + min s_j(1..r_j-1), which
    strictly increase with j, grown through stage J or only until one
    passes n, whichever comes first. The levels are grown no further than
    ``heights_within(params, J, n)`` grows them, as |H_j| >= L_j, and a
    stage is drawn only for them or for the |H_j| kept."""
    levels = _grow(params, J, n)
    kept = _level_table(params)[2]
    while len(kept) < min(J, len(levels)) and not (kept and kept[-1] > n):
        kept.append(levels[len(kept)] + params.stage(len(kept) + 1).s_min_first)
    return kept


def heights(params: ConstructionParams, J: int) -> HeightTable:
    """Level counts L_1..L_J, a view of the kept table."""
    if J < 1:
        raise ValueError("J must be >= 1")
    return HeightTable(_grow(params, J), J)


def heights_within(params: ConstructionParams, J: int, n: int) -> HeightTable:
    """Level counts L_1..L_J, or L_1..L_m when m < J is the first stage
    whose L_m passes n: L_j strictly increases, so L_J > n then too. The
    table is grown no further than that stage, and read in place."""
    if J < 1:
        raise ValueError("J must be >= 1")
    levels = _grow(params, J, n)
    return HeightTable(levels, min(J, bisect_right(levels, n) + 1))


def format_count(n: int) -> str:
    """A count n in full up to 30 digits, past that as its leading
    digits, exponent and digit count: Python prints no int past 4300."""
    if n < 0:
        return "-" + format_count(-n)
    if n < 10**30:
        return str(n)
    shift = int(log10(n)) - 6  # a float log10 can be one off: 6 to 8 digits left
    lead = str(n // 10**shift)
    return f"{lead[0]}.{lead[1:6]}e+{shift + len(lead) - 1} ({shift + len(lead)} digits)"


def first_stage_reaching(params: ConstructionParams, n: int, start: int = 1) -> int:
    """Smallest stage K >= start whose level count L_K is at least n, by
    bisection, since L_j strictly increases."""
    if start < 1:
        raise ValueError(f"start must be >= 1, got {start}")
    _grow(params, start)
    return max(start, bisect_left(_grow(params, inf, n - 1), n) + 1)


# -------------------------------------------------------------- bounded

@dataclass(frozen=True)
class BoundedProfile:
    r_sup: int
    s_sup: int


def bounded_profile(params, J) -> BoundedProfile:
    """Suprema of r_j and s_j(i) over j <= J."""
    if J < 1:
        raise ValueError("J must be >= 1")
    stages = params.stage_range(1, J)
    return BoundedProfile(max(st.r for st in stages), max(max(st.s) for st in stages))


# ------------------------------------------------------------- flatness

def flatness(params, window: tuple[int, int]) -> bool:
    """Whether every stage of the window (lo, hi), inclusive, has
    s_j(1) = ... = s_j(r_j - 1)."""
    lo, hi = window
    if lo < 1 or hi < lo:
        raise ValueError(f"bad window [{lo},{hi}]")
    return all(st.is_flat_first() for st in params.stage_range(lo, hi))


# ------------------------------------------------- return times / order

def return_times(params, j: int) -> tuple[int, ...]:
    """First-return contributions of the stage-j columns, in column
    order: L_j + s_j(i). (Level-count convention: the base recurs after
    exactly L_j + s_j(i) steps through column i.)"""
    L = heights(params, j).L(j)
    return tuple(L + x for x in params.stage(j).s)


def column_offsets(params, j: int) -> tuple[int, ...]:
    """Start offsets of stage-j columns 2..r_j in the stage-(j+1) word:
    the partial sums of the first r_j - 1 return times."""
    return tuple(accumulate(return_times(params, j)[:-1]))


def tail_start(horizon: int) -> int:
    """First stage of the tail window [max(1, floor(H/2)), H]."""
    return max(1, horizon // 2)


def eigenvalue_order(params, j0: int, J: int) -> int:
    """Order d of the rational spectrum, read off the column offsets of
    stages j0..J: d = gcd of g_j, where g_j is the gcd of
    ``column_offsets(params, j)``.

    A root of unity of order q is an eigenvalue exactly when q divides
    every column offset of every stage from some stage on:
    - sufficiency: if q divides the offsets of every stage from j1 on,
      a point's position mod q in the stage-K word is the same for all
      K >= j1, and T adds 1 to it off the top level; so e^{2 pi i pos/q}
      is an eigenfunction;
    - necessity: T^{L_j + s_j(i)} moves column i of stage j onto column
      i+1, level by level, on a mass of about 1/r_max or more; since an
      eigenfunction is close to a function of the stage-j level, its
      eigenvalue lambda has lambda^{L_j + s_j(i)} -> 1 for i < r_j, so
      for a root of unity of order q, q divides the offsets (partial
      sums of those return times) from some stage on.

    When the gcd over the later half of the window is larger than d, g_j
    grows along the window: the rational spectrum is infinite (an
    odometer) and OdometerCase is raised. A window of fewer than 3
    stages has no later half that can differ from the whole, so it is
    refused (ValueError). Horizon-level evidence, not a proof.
    """
    if not 1 <= j0 <= J - 2:
        raise ValueError(f"need 1 <= j0 <= J - 2, got stages {j0}..{J}: a window of "
                         "fewer than 3 stages cannot show the offset gcd growing")
    g = [gcd(*column_offsets(params, j)) for j in range(j0, J + 1)]
    mid = (J - j0) // 2
    d, late = gcd(*g), gcd(*g[mid:])
    if late > d:
        raise OdometerCase(f"column-offset gcd grows from {d} on stages {j0}..{J} to "
                           f"{late} on stages {j0 + mid}..{J}: infinite rational spectrum")
    return d


# --------------------------------------------------------------- labels

class ClassKind(str, enum.Enum):
    ODOMETER = "Odometer"
    COMPACT_FACTOR = "CompactFactor"
    TOTALLY_ERGODIC = "TotallyErgodic"


@dataclass(frozen=True)
class ClassLabel:
    """The tail's rational spectrum, and its flatness (``flatness``).
    ``d`` is the order, None for an Odometer, which has no finite one."""

    kind: ClassKind
    d: int | None = 1
    flat: bool = False

    def __str__(self):
        if self.kind is ClassKind.COMPACT_FACTOR:
            return f"{self.kind.value}({self.d})"
        return self.kind.value


def classify(params, horizon: int, bound: int | None = None) -> ClassLabel:
    """Rational spectrum of a bounded construction on a horizon, by
    ``eigenvalue_order`` on the tail window: Odometer when infinite,
    CompactFactor(d) for an order d >= 2, else TotallyErgodic (the
    paper's hypothesis). A horizon below 3 gives a tail window that
    ``eigenvalue_order`` refuses. A given ``bound`` raises NotBounded when
    either supremum of ``bounded_profile`` exceeds it. Horizon-level
    evidence, not a proof."""
    profile = bounded_profile(params, horizon)
    if bound is not None and max(profile.r_sup, profile.s_sup) > bound:
        raise NotBounded(
            f"parameters exceed bound {bound} on horizon {horizon}: "
            f"r_sup={profile.r_sup}, s_sup={profile.s_sup}"
        )
    tail = (tail_start(horizon), horizon)
    flat = flatness(params, tail)
    try:
        d = eigenvalue_order(params, *tail)
    except OdometerCase:
        return ClassLabel(ClassKind.ODOMETER, None, flat)
    kind = ClassKind.COMPACT_FACTOR if d >= 2 else ClassKind.TOTALLY_ERGODIC
    return ClassLabel(kind, d, flat)
