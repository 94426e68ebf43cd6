"""Seeded inputs for the benchmark workloads.

Each workload is an endless, deterministic sequence of CLI configs: op i
of a run is a pure function of (workload, seed, i). The program only ever
sees the generated config dicts, and no two ops of a run share one.

Sizes are drawn from continuous ranges, but stratified. The construction
(for telescope: d) cycles round-robin from a seeded offset, and the
secondary discrete choice (p/q pair, stage, or M) cycles with each
construction's occurrence count. Each (construction, choice) cell's m-th size is
frac(phase + m*step), a Weyl sequence, which covers the range evenly in
any prefix; its seeded phase puts the cell's first or second op in the
top 5% of the range, and cells use different irrational steps so that
their sizes do not move in lockstep. Every run therefore holds each kind
of op in near-fixed proportions over the whole size range and meets every
cell's largest input early on, but not all at once, so its median, tail,
throughput and peak memory stay steady across seeds while the inputs
still vary. Independent uniform draws made the median and the peak
memory of a run swing with whichever cell happened to be over-represented
or to reach the top of the range; starting every cell at the top put all
the heaviest ops into the run's first seconds, where a slow spell of the
machine moved the tail; one shared step made the sizes of all cells move
in lockstep, so that the median jumped between a few size levels.
"""

from __future__ import annotations

import math
import random

import numpy as np

from rankone import construction as cons
# bound here, before any tracing patches module attributes, so that input
# generation never shows up in the traced layers
from rankone.construction import heights

#: quadratic irrationals with small partial quotients (golden-ratio
#: conjugate first): each gives a low-discrepancy Weyl sequence
WEYL_STEPS = (0.6180339887498949, 0.4142135623730951, 0.7320508075688772,
              0.30277563773199456, 0.2679491924311228, 0.6457513110645906,
              0.4494897427831779)
TOP_BAND = 0.05  # each cell meets the top 5% of its range ...
TOP_STAGGER = 2  # ... at its first or second op

#: random bounded constructions: r <= 3 (not 4), because with r <= 4 one
#: random word's overshoot past 200*|n| set a run's peak memory in some
#: seeds and not in others
RANDOM_R_MAX = 3
RANDOM_S_MAX = 3

DISJOINTNESS_KINDS = ("chacon", "flat3", "odometer2", "random")
DISJOINTNESS_PQ = ((2, 3), (3, 4), (2, 5), (3, 5))
#: log-uniform. Up to 20000 a run held ~30 ops whose cost jumps ~4x at each
#: newly admissible stage, so its median and throughput swung by 20-30%
#: across seeds. The top stays below flat3's step at 5832 for q=4 so that
#: each cell's largest op has the same depths in every run. Words still
#: reach 4e5-3e6 entries.
MAX_SHIFT_RANGE = (2_000, 5_800)

TELESCOPE_DS = (2, 3, 5, 6)
#: M per d, one cell each: prime d mixes the M=1 identity check with the
#: M=3 prime extension; d=6 runs the composite chain (M=1) in two cells
TELESCOPE_MS = {2: (1, 3), 3: (1, 3), 5: (1, 3), 6: (1, 1)}
#: log-uniform target for L_K. One cyclic_factor_preset(d) only reaches
#: L_K = d(2^K - 1), two or three values per d in this range, so the op
#: times formed a few clusters and a run's median jumped between them.
#: Each op therefore draws its own cyclic-factor construction (see
#: _cyclic_construction) and takes the depth whose L_K is nearest the
#: target.
TELESCOPE_LK_RANGE = (20_000, 100_000)
TELESCOPE_PATTERN_TRIES = 6
TELESCOPE_R = (2, 3)
TELESCOPE_SPACER_MAX = 3  # spacers are d * {0..3}
TELESCOPE_N_RANGE = (1_000, 10_000)
TELESCOPE_DENSITY = 0.2

MOBIUS_KINDS = ("chacon", "flat3", "random")
MOBIUS_N_RANGE = (1_000_000, 5_000_000)
MOBIUS_STAGES = (1, 2, 3)
MOBIUS_START_BELOW = 1_000


def _random_construction(rng: random.Random) -> dict:
    return {"h1": rng.randint(0, 2),
            "stages": {"kind": "random", "r_max": RANDOM_R_MAX,
                       "s_max": RANDOM_S_MAX, "seed": rng.randrange(2**31)}}


def construction_params(obj: dict) -> cons.ConstructionParams:
    """The ConstructionParams a preset or random construction object denotes."""
    if "preset" in obj:
        return cons.preset(obj["preset"])
    st = obj["stages"]
    return cons.ConstructionParams.random_bounded(
        obj["h1"], st["r_max"], st["s_max"], st["seed"])


def _cyclic_construction(d: int, target: float, rng: random.Random):
    """A periodic construction with h1 = d-1 and every spacer a multiple
    of d, so every column offset is divisible by d (as for
    cyclic_factor_preset(d), which is the pattern r=2, s=(0, d)). Tries a
    few random patterns of one or two stages and returns
    (construction JSON, K, L_K) for the depth whose L_K in
    TELESCOPE_LK_RANGE lies nearest ``target``."""
    lo, hi = TELESCOPE_LK_RANGE
    best = None
    for _ in range(TELESCOPE_PATTERN_TRIES):
        pattern = []
        for _ in range(rng.randint(1, 2)):
            r = rng.choice(TELESCOPE_R)
            pattern.append({"r": r, "s": [d * rng.randint(0, TELESCOPE_SPACER_MAX)
                                          for _ in range(r)]})
        K, L = 1, d  # L_1 = h1 + 1
        while L <= hi:
            if L >= lo and (best is None or abs(math.log(L / target)) < best[0]):
                best = (abs(math.log(L / target)), pattern, K, L)
            st = pattern[(K - 1) % len(pattern)]
            K, L = K + 1, st["r"] * L + sum(st["s"])
    _, pattern, K, L = best
    return {"h1": d - 1, "stages": {"kind": "periodic", "pattern": pattern}}, K, L


class Plan:
    """Seeded op generator: ``op(i)`` is the deterministic CLI config of
    op i, without its output directory, with the label of its cell."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        rng = random.Random(f"{workload}:{seed}")
        self._offset = rng.randrange(1 << 16)
        self._offset2 = rng.randrange(1 << 16)
        self._tops = [1.0 - TOP_BAND * rng.random() for _ in range(64)]
        self._make = {
            "disjointness": self._disjointness,
            "telescope": self._telescope,
            "mobius-sum": self._mobius_sum,
        }[workload]

    def _cell(self, i: int, kinds: tuple, n_second: int):
        """(kind, index of the secondary choice, size in [0, 1)) of op i."""
        c = (i + self._offset) % len(kinds)
        k = i // len(kinds)
        t = (k + self._offset2) % n_second
        cell = (c * n_second + t) % len(self._tops)
        m = k // n_second - (c + t) % TOP_STAGGER  # m = 0 is the cell's top op
        return kinds[c], t, (self._tops[cell] + m * WEYL_STEPS[cell % len(WEYL_STEPS)]) % 1.0

    def op(self, i: int) -> tuple[str, dict]:
        """(cell label, CLI config) of op i."""
        return self._make(i, random.Random(f"{self.workload}:{self.seed}:{i}"))

    # ------------------------------------------------------ disjointness

    def _disjointness(self, i, rng):
        kind, t, u = self._cell(i, DISJOINTNESS_KINDS, len(DISJOINTNESS_PQ))
        p, q = DISJOINTNESS_PQ[t]
        lo, hi = MAX_SHIFT_RANGE
        # log-uniform: pair-counting work grows linearly in max_shift, so
        # every octave of word length L_K ~ 200*|n| gets the same share of ops
        max_shift = round(lo * (hi / lo) ** u)
        construction = ({"preset": kind} if kind != "random"
                        else _random_construction(rng))
        return f"{kind}/p{p}q{q}", {
            "construction": construction, "command": "disjointness",
            "params": {"p": p, "q": q, "max_shift": max_shift}}

    # --------------------------------------------------------- telescope

    def _telescope(self, i, rng):
        d, t, u = self._cell(i, TELESCOPE_DS, 2)
        M = TELESCOPE_MS[d][t]
        lo, hi = TELESCOPE_LK_RANGE
        construction, K, L = _cyclic_construction(d, lo * (hi / lo) ** u, rng)
        N = rng.randint(*TELESCOPE_N_RANGE)  # a minor cost
        start = d * rng.randint(0, (L - N - 2) // d)
        e_levels = np.random.default_rng(rng.randrange(2**63)).random(L // d)
        levels = (np.flatnonzero(e_levels < TELESCOPE_DENSITY) * d).tolist()
        return f"d{d}/M{M}", {
            "construction": construction, "command": "telescope",
            "params": {"d": d, "N": N, "M": M, "start": start,
                       "levels": levels, "K": K}}

    # -------------------------------------------------------- mobius-sum

    def _mobius_sum(self, i, rng):
        kind, t, u = self._cell(i, MOBIUS_KINDS, len(MOBIUS_STAGES))
        stage = MOBIUS_STAGES[t]
        lo, hi = MOBIUS_N_RANGE
        N = lo + round((hi - lo) * u)
        construction = ({"preset": kind} if kind != "random"
                        else _random_construction(rng))
        n_levels = heights(construction_params(construction), stage).L(stage)
        levels = sorted(rng.sample(range(n_levels), rng.randint(1, n_levels)))
        start = rng.randrange(MOBIUS_START_BELOW)
        return f"{kind}/stage{stage}", {
            "construction": construction, "command": "mobius-sum",
            "params": {"N": N, "stage": stage, "levels": levels,
                       "start": start}}
