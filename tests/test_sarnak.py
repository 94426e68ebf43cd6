import itertools
import random
import re
import tracemalloc
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankone import construction as cons
from rankone import _kernels, sarnak, tower
from rankone.errors import ConsistencyFailure, OdometerCase
from rankone.mobius import mobius_direct, prime_factors, sieve_mobius

# mu(1..10), by hand
MU10 = [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]

# the 13-letter chacon word again (1 = base level, 0 = spacer)
CHACON_BASE = [1, 1, 0, 1, 1, 1, 0, 1, 0, 1, 1, 0, 1]


# ---------------------------------------------------------- weighted sums

def test_chacon_base_sum_example():
    obs = sarnak.Observable.indicator(cons.chacon(), 1, [0], "base")
    res = sarnak.mobius_weighted_sum(cons.chacon(), obs, 0, 10)
    # independent oracle: the hand-written word against mu(1..10)
    oracle = sum(CHACON_BASE[i] * MU10[i - 1] for i in range(1, 11))
    assert oracle == -1
    assert res.final == -1


def test_single_step():
    obs = sarnak.Observable.indicator(cons.chacon(), 1, [0])
    res = sarnak.mobius_weighted_sum(cons.chacon(), obs, 0, 1)
    assert res.final == CHACON_BASE[1] * MU10[0] == 1


def test_constant_observable_reduces_to_mertens():
    # constant as a function on the space: constant over depth-K levels
    # (an observable at a shallower stage vanishes on spacers)
    params = cons.chacon()
    obs = sarnak.Observable(7, (7,) * cons.heights(params, 7).L(7))
    res = sarnak.mobius_weighted_sum(params, obs, 0, 500)
    assert res.final == 7 * int(sieve_mobius(500).sum())


def test_linearity_in_coefficients():
    params = cons.class4()
    rng = random.Random(3)
    n_levels = cons.heights(params, 2).L(2)
    a = tuple(rng.randint(-3, 3) for _ in range(n_levels))
    b = tuple(rng.randint(-3, 3) for _ in range(n_levels))
    fa = sarnak.Observable(2, a)
    fb = sarnak.Observable(2, b)
    fab = sarnak.Observable(2, tuple(2 * x + 3 * y for x, y in zip(a, b)))
    ra = sarnak.mobius_weighted_sum(params, fa, 0, 200).final
    rb = sarnak.mobius_weighted_sum(params, fb, 0, 200).final
    rab = sarnak.mobius_weighted_sum(params, fab, 0, 200).final
    assert rab == 2 * ra + 3 * rb


def test_fraction_coefficients_exact():
    params = cons.chacon()
    obs = sarnak.Observable(1, (Fraction(1, 3),))
    res = sarnak.mobius_weighted_sum(params, obs, 0, 100)
    ints = sarnak.Observable(1, (1,))
    res_int = sarnak.mobius_weighted_sum(params, ints, 0, 100)
    assert res.final == Fraction(res_int.final, 3)


def test_checkpoint_grid():
    params = cons.chacon()
    obs = sarnak.Observable.indicator(params, 1, [0])
    res = sarnak.mobius_weighted_sum(params, obs, 0, 2500)
    assert [n for n, _ in res.checkpoints] == [100, 1000, 2500]
    partial = sarnak.mobius_weighted_sum(params, obs, 0, 100)
    assert partial.final == dict(res.checkpoints)[100]


def test_weighted_sum_errors():
    params = cons.chacon()
    obs = sarnak.Observable.indicator(params, 1, [0])
    for start, N in ((-1, 5), (0, 0)):
        with pytest.raises(ValueError, match="^need start >= 0 and N >= 1$"):
            sarnak.mobius_weighted_sum(params, obs, start, N)
    with pytest.raises(ValueError, match="^3 values given for the 4 levels of stage 2$"):
        sarnak.mobius_weighted_sum(params, sarnak.Observable(2, (1, 0, 1)), 0, 5)


def test_overflow_guard_reads_the_visited_levels():
    # chacon's stage-3 word over stage-2 levels is 0 1 2 3 0 1 2 3 sp ...:
    # an orbit of N = 2 from level 0 visits levels 1 and 2, never 3
    params, big = cons.chacon(), 2**61
    visited = sarnak.Observable(2, (0, big, 5, 1))
    with pytest.raises(ValueError, match="overflow the exact int64 path"):
        sarnak.mobius_weighted_sum(params, visited, 0, 2)
    unvisited = sarnak.Observable(2, (0, 1, 5, big))
    res = sarnak.mobius_weighted_sum(params, unvisited, 0, 2)
    assert res.final == 1 * MU10[0] + 5 * MU10[1]


@pytest.mark.parametrize("coeffs, dtype", [
    ((1, 0, 0, 1), np.int8), ((0, -128, 127, 1), np.int8),
    ((0, 128, 0, 0), np.int16), ((0, 2**40, 5, 1), np.int64),
])
def test_orbit_values_take_the_narrowest_dtype(coeffs, dtype):
    params = cons.chacon()
    vals, denom = sarnak._orbit_values(params, sarnak.Observable(2, coeffs), 0, 30)
    full = tower.build_labels(params, 2, 5, 31)[1:]
    want = np.append(np.array(coeffs, dtype=np.int64), 0)[np.where(full >= 0, full, 4)]
    assert vals.dtype == dtype and denom == 1
    assert vals.tolist() == want.tolist()


def test_weighted_sum_holds_no_int64_orbit_word():
    # the int8 orbit word, the int8 mu and the sieve's or the sum's
    # block buffers; N int64 words of values and products would take 16
    # bytes a step
    params, N = cons.chacon(), 2_000_000
    obs = sarnak.Observable.indicator(params, 2, [0, 3])
    tracemalloc.start()
    try:
        sarnak.mobius_weighted_sum(params, obs, 0, N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * N


def test_weighted_sum_memory_is_flat_in_N():
    # the two reads' buffers and the sieve's (4*BLOCK bytes), the products
    # (2*BLOCK) and chacon's stage-11 word of 88573 entries with its step
    # classes: one bound from one block of odd n to past the word guard's
    # half, where the whole int8 orbit alone would take 3e7 bytes
    params, BLOCK = cons.chacon(), _kernels.BLOCK
    obs = sarnak.Observable.indicator(params, 2, [0, 3])
    for N in (2 * BLOCK, 8 * BLOCK, 30_000_000):
        tracemalloc.start()
        try:
            sarnak.mobius_weighted_sum(params, obs, 0, N)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7 * BLOCK, N


# ----------------------------------------------------------- cyclic factor

def test_compact_factor_class4():
    d = sarnak.compact_factor(cons.class4(), 20, 13)
    assert type(d) is int and d == 2


def test_compact_factor_chacon_trivial():
    d = sarnak.compact_factor(cons.chacon(), 20, 9)
    assert type(d) is int and d == 1


def test_compact_factor_odometer_raises():
    with pytest.raises(OdometerCase):
        sarnak.compact_factor(cons.odometer(2), 20, 10)
    with pytest.raises(OdometerCase):
        sarnak.compact_factor(cons.flat3(), 20, 10)


def test_compact_factor_offsets_even_for_class4():
    params = cons.class4()
    for j in range(1, 14):
        for off in cons.column_offsets(params, j):
            assert off % 2 == 0


def test_consistency_failure_detected():
    # tail forces d=2 but the first stage has an odd column offset, so
    # the stage-1 partition is not cyclic
    stages = [cons.StageParams(2, (1, 1))] + [cons.StageParams(2, (0, 2))] * 29
    params = cons.ConstructionParams.explicit(1, stages)
    label = cons.classify(params, 30)
    assert label.d == 2
    msg = ("stage 1 column offset 3 not divisible by d=2; "
           "the residue partition is not T^d-invariant")
    with pytest.raises(ConsistencyFailure, match=f"^{re.escape(msg)}$"):
        sarnak.compact_factor(params, 30, 1)
    # from stage 2 on every offset is even, so deeper partitions hold
    assert sarnak.compact_factor(params, 30, 8) == 2


def test_compact_factor_label_implies_partition():
    # one-stage periodic constructions, h1 <= 3, r in {2, 3}, s_i <= 4
    labelled = 0
    for h1 in range(4):
        for r in (2, 3):
            for s in itertools.product(range(5), repeat=r):
                params = cons.ConstructionParams.periodic(h1, [cons.StageParams(r, s)])
                label = cons.classify(params, 40)
                if label.kind is cons.ClassKind.COMPACT_FACTOR:
                    labelled += 1
                    assert sarnak.compact_factor(params, 40, 40) == label.d
    assert labelled == 166


# ------------------------------------------------------------- telescoping

def indicator_of_base(params, d, K):
    L = cons.heights(params, K).L(K)
    return sarnak.Observable(K, tuple(1 if i % d == 0 else 0 for i in range(L)))


def test_telescope_d2_example():
    params = cons.class4()
    K = cons.first_stage_reaching(params, 20)
    obs = indicator_of_base(params, 2, K)
    res = sarnak.telescope_identity_check(params, obs, 2, 0, 4)
    assert (res.lhs, res.rhs) == (-1, -1)
    assert res.equal


def test_telescope_d3_example():
    params = cons.cyclic_factor_preset(3)
    K = cons.first_stage_reaching(params, 20)
    obs = indicator_of_base(params, 3, K)
    res = sarnak.telescope_identity_check(params, obs, 3, 0, 9)
    assert (res.lhs, res.rhs) == (0, 0)
    assert res.equal


def test_telescope_zero_observable():
    params = cons.class4()
    K = cons.first_stage_reaching(params, 20)
    obs = sarnak.Observable(K, (0,) * cons.heights(params, K).L(K))
    res = sarnak.telescope_identity_check(params, obs, 2, 0, 10)
    assert res.lhs == res.rhs == 0


def test_telescope_validation():
    params = cons.class4()
    K = cons.first_stage_reaching(params, 200)
    obs = indicator_of_base(params, 2, K)
    with pytest.raises(ValueError, match="must be prime"):
        sarnak.telescope_identity_check(params, obs, 4, 0, 50)
    # f(T x) = 1 either way: the hypothesis fails at time 1
    msg = ("f(T^i x) != 0 at time i=1, not divisible by d=2; "
           "the telescoping identity needs f to vanish there")
    with pytest.raises(ConsistencyFailure, match=f"^{re.escape(msg)}$"):
        sarnak.telescope_identity_check(params, obs, 2, 1, 50)
    off_support = sarnak.Observable.indicator(params, K, [1])
    with pytest.raises(ConsistencyFailure, match=f"^{re.escape(msg)}$"):
        sarnak.telescope_identity_check(params, off_support, 2, 0, 50)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_telescope_randomized_exact(d):
    params = cons.cyclic_factor_preset(d)
    K = cons.first_stage_reaching(params, 4000)
    L = cons.heights(params, K).L(K)
    rng = random.Random(d)
    for _ in range(25):
        levels = [i for i in range(0, L, d) if rng.random() < 0.3]
        obs = sarnak.Observable.indicator(params, K, levels)
        N = rng.randint(10, 2000)
        start = d * rng.randint(0, (L - N - 2) // d)
        res = sarnak.telescope_identity_check(params, obs, d, start, N)
        assert res.equal


def test_prime_extension_single_step_matches_telescope():
    params = cons.class4()
    K = cons.first_stage_reaching(params, 200)
    obs = indicator_of_base(params, 2, K)
    tele = sarnak.telescope_identity_check(params, obs, 2, 0, 64)
    rep = sarnak.prime_extension_report(params, obs, 2, 0, 64, 1)
    assert rep.identity_holds
    assert rep.s_n == tele.lhs


def test_prime_extension_example_bound():
    params = cons.class4()
    K = cons.first_stage_reaching(params, 40)
    obs = indicator_of_base(params, 2, K)
    rep = sarnak.prime_extension_report(params, obs, 2, 0, 16, 2)
    assert rep.remainder_bound == Fraction(16, 4)
    assert rep.identity_holds and rep.triangle_holds
    assert abs(rep.s_n) <= sum(abs(s.term) for s in rep.steps) + 4


def test_prime_extension_strides_exceed_range():
    params = cons.class4()
    K = cons.first_stage_reaching(params, 40)
    obs = indicator_of_base(params, 2, K)
    rep = sarnak.prime_extension_report(params, obs, 2, 0, 10, 4)
    assert rep.remainder == 0  # no k <= N/d^{M+1}
    assert rep.remainder_bound < obs.sup_norm
    assert rep.s_n == sum(s.term for s in rep.steps)


def test_composite_extension_chains_prime_factors():
    params = cons.cyclic_factor_preset(6)
    K = cons.first_stage_reaching(params, 3000)
    obs = indicator_of_base(params, 6, K)
    rep = sarnak.prime_extension_report(params, obs, 6, 0, 600, 1)
    assert [s.prime for s in rep.steps] == [2, 3]
    assert rep.identity_holds


def chain_oracle(params, obs, d, primes, start, N, K):
    """S_N, each step's term mu(p)F and the remainder, from their
    definitions over the orbit's label list."""
    labels = tower.build_labels(params, obs.stage, K)

    def f(i):  # f(T^i x)
        level = int(labels[start + i])
        return obs.coeffs[level] if level >= 0 else 0

    mu = mobius_direct
    s_n = sum(f(i) * mu(i) for i in range(1, N + 1))
    terms, stride = [], 1
    for p in primes:
        stride *= p
        F = sum(f(stride * k) * mu(k) for k in range(1, N // stride + 1))
        terms.append((p, stride, mu(p) * F))
    if primes[0] == d:  # prime d: the rest sits at times d^{M+1} m
        top = d ** (len(primes) + 1)
        rem = sum(f(top * m) * mu(d * m) for m in range(1, N // top + 1))
        assert s_n == sum(t for _, _, t in terms) + rem
    else:  # composite d: the last F
        rem = sum(f(d * k) * mu(k) for k in range(1, N // d + 1))
    return s_n, terms, rem


CHAINS = (
    [(d, [d] * M) for d in (2, 3, 5) for M in (1, 2, 3)]
    + [(4, [2, 2]), (8, [2, 2, 2]), (9, [3, 3])]
    + [(6, [2, 3]), (10, [2, 5]), (30, [2, 3, 5])]
)


@pytest.mark.parametrize("d,primes", CHAINS)
def test_prime_extension_matches_oracle(d, primes):
    params = cons.cyclic_factor_preset(d)
    K = cons.first_stage_reaching(params, 4000)
    L = cons.heights(params, K).L(K)
    rng = random.Random(1000 * d + len(primes))
    for trial in range(3):
        coeffs = tuple(
            0 if i % d or rng.random() < 0.5
            else Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3, 7])) if trial
            else rng.randint(-2, 2)
            for i in range(L)
        )
        obs = sarnak.Observable(K, coeffs)
        N = rng.randint(1000, 2500)
        start = d * rng.randint(0, (L - N - 2) // d)
        rep = sarnak.prime_extension_report(params, obs, d, start, N, len(primes))
        s_n, terms, rem = chain_oracle(params, obs, d, primes, start, N, K)
        assert rep.s_n == s_n
        assert [(st.prime, st.stride, st.term) for st in rep.steps] == terms
        assert [st.n_terms for st in rep.steps] == [N // t[1] for t in terms]
        assert rep.remainder == rem
        norm = Fraction(obs.sup_norm)
        assert rep.remainder_bound == (
            N * norm / d ** len(primes) if primes[0] == d else (N // d) * norm
        )
        assert rep.M == len(primes)
        assert rep.identity_holds and rep.triangle_holds
        if len(primes) == 1:
            tele = sarnak.telescope_identity_check(params, obs, d, start, N)
            assert tele.lhs == rep.s_n
            assert tele.first_term == rep.steps[0].term
            assert tele.second_term == -rep.remainder  # mu(d) G
            assert tele.rhs == tele.first_term - tele.second_term
            assert tele.equal
            assert (tele.n_first, tele.n_second) == (N // d, N // (d * d))


_PATTERN_STAGE = st.integers(2, 3).flatmap(
    lambda r: st.tuples(st.just(r), st.lists(st.integers(0, 3), min_size=r, max_size=r)))


@st.composite
def telescope_inputs(draw):
    """A periodic or random construction, a residue c mod d, a start at
    level dk + c and an observable at a low stage or at the orbit's depth:
    on the stage-j levels = c mod d in half the examples, on every level
    in the other half. A periodic one scaled by d has every column offset
    divisible by d, so each level keeps its residue along the word, and an
    orbit from dk + c meets the levels = c mod d only at multiples of d."""
    d = draw(st.sampled_from([2, 3, 4, 6]))
    if draw(st.booleans()):
        scale = draw(st.sampled_from([1, d]))
        pattern = draw(st.lists(_PATTERN_STAGE, min_size=1, max_size=3))
        params = cons.ConstructionParams.periodic(
            scale * (draw(st.integers(0, 2)) + 1) - 1,
            [cons.StageParams(r, tuple(scale * x for x in s)) for r, s in pattern])
    else:
        params = cons.ConstructionParams.random_bounded(
            draw(st.integers(0, 3)), draw(st.integers(2, 3)), draw(st.integers(0, 3)),
            draw(st.integers(0, 10**6)))
    c = draw(st.integers(0, d - 1))
    start, N = d * draw(st.integers(0, 50)) + c, draw(st.integers(1, 400))
    stage = draw(st.one_of(st.integers(1, 3), st.just(None)))
    stage = stage or tower.orbit_depth(params, 1, start, N)
    every = draw(st.booleans())
    rng = draw(st.randoms(use_true_random=False))
    coeffs = tuple(0 if (i - c) % d and not every else rng.randint(-2, 2)
                   for i in range(cons.heights(params, stage).L(stage)))
    M = draw(st.integers(1, 3))
    return params, sarnak.Observable(stage, coeffs), d, start, N, M


@settings(max_examples=80, deadline=None)
@given(telescope_inputs())
def test_unfold_accepts_exactly_the_orbits_off_multiples_of_d(inputs):
    params, obs, d, start, N, M = inputs
    K = tower.orbit_depth(params, obs.stage, start, N)
    labels = tower.build_labels(params, obs.stage, K)
    off = [i for i in range(1, N + 1)
           if i % d and labels[start + i] >= 0 and obs.coeffs[labels[start + i]]]
    if off:
        with pytest.raises(ConsistencyFailure, match=f"at time i={off[0]}, "):
            sarnak.prime_extension_report(params, obs, d, start, N, M)
        return
    rep = sarnak.prime_extension_report(params, obs, d, start, N, M)
    primes = [d] * M if prime_factors(d) == [d] else prime_factors(d)
    s_n, terms, rem = chain_oracle(params, obs, d, primes, start, N, K)
    assert rep.s_n == s_n and rep.remainder == rem
    assert [(st.prime, st.stride, st.term) for st in rep.steps] == terms
    assert rep.identity_holds


@pytest.mark.parametrize("name,K", [("chacon", 12), ("class4", 16)])
def test_decay_trend_presets(name, K):
    # trend check only: |S_N|/N falls between N=1e3 and N=1e5; the o(N)
    # statement itself is not decidable at finite N. The sum runs at the
    # first depth K whose word holds the orbit.
    params = cons.preset(name)
    assert tower.orbit_depth(params, 1, 0, 10**5) == K
    obs = sarnak.Observable.indicator(params, 1, [0], "base")
    res = sarnak.mobius_weighted_sum(params, obs, 0, 10**5)
    by_n = dict(res.checkpoints)
    assert abs(by_n[100_000]) / 100_000 < abs(by_n[1000]) / 1000


def test_observable_sup_norm_and_validation():
    obs = sarnak.Observable(1, (Fraction(-3, 2), 1))
    assert obs.sup_norm == Fraction(3, 2)
    assert sarnak.Observable(2, (1, -2, 7, 0)).sup_norm == 7
    assert sarnak.Observable(2, (0, 0, 0, 0)).sup_norm == 0
    with pytest.raises(ValueError):
        sarnak.Observable(1, (0.5,))
    n = cons.heights(cons.chacon(), 2).L(2)
    # duplicate, unsorted and no indices
    for indices, ones in (([3, 0, 3, 1], {0, 1, 3}), ([], set()), (range(n), set(range(n))),
                          (np.array([3, 0, 3, 1]), {0, 1, 3})):
        ind = sarnak.Observable.indicator(cons.chacon(), 2, indices)
        assert ind.coeffs == tuple(int(i in ones) for i in range(n))
        assert ind.denom == 1


@pytest.mark.parametrize("indices,bad", [
    ([0, 9, 1], [9]),
    ([0, -1, 1], [-1]),
    # beyond int64: the range check must still name them, not overflow
    ([0, 2**70, -3], [-3, 2**70]),
    ([2**63, 1, -2**63 - 1], [-2**63 - 1, 2**63]),
    ([-3, 0, 2**64 - 1], [-3, 2**64 - 1]),
    ([12, -1, 9, 12, -1, 0], [-1, 9, 12]),
    (np.array([12, -1, 9, 12, -1, 0]), [-1, 9, 12]),
])
def test_indicator_names_out_of_range_indices_sorted(indices, bad):
    n = cons.heights(cons.chacon(), 2).L(2)
    msg = f"level indices {bad} outside 0..{n - 1}"
    with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
        sarnak.Observable.indicator(cons.chacon(), 2, indices)


@pytest.mark.parametrize("indices", [
    [0.7, 2.2], [1, 2.0], np.array([0.0, 2.0]),
    [True, False], np.array([True, False, True]), [True, 2], {True, 2},
])
def test_indicator_refuses_floats_and_booleans(indices):
    # numpy would truncate 0.7 to level 0 and read True as level 1
    with pytest.raises(ValueError, match=r"^level indices must be integers"):
        sarnak.Observable.indicator(cons.chacon(), 2, indices)


def test_indicator_takes_any_integer_type():
    want = sarnak.Observable.indicator(cons.chacon(), 2, [1, 3]).coeffs
    for indices in ([np.int64(1), 3], (3, 1), np.array([1, 3], dtype=np.uint8),
                    {1, 3}, frozenset({1, 3}), iter([3, 1])):
        assert sarnak.Observable.indicator(cons.chacon(), 2, indices).coeffs == want


def test_observable_int64_guard():
    edge = sarnak._INT64_SAFE - 1
    for ok in ((edge,), (-edge, 1), (Fraction(edge, 3), Fraction(1, 3))):
        assert sarnak.Observable(1, ok).scaled_ints()[0].tolist()[:-1] == [
            int(Fraction(c) * lcm(*(Fraction(x).denominator for x in ok))) for c in ok
        ]
    # the last one clears 1/2 to 2**62 over denominator 2
    for big in ((edge + 1,), (-edge - 1,), (Fraction(1, 2), 2**61)):
        with pytest.raises(ValueError, match="too large for exact int64"):
            sarnak.Observable(1, big)


coefficients = st.lists(
    st.one_of(
        st.integers(-100, 100),
        st.integers(-(2**64), 2**64),
        st.booleans(),
        st.fractions(max_denominator=10**6),
        st.fractions(-10, 10, max_denominator=30),
    ),
    max_size=12,
).map(tuple)


@given(coefficients)
@settings(max_examples=100, deadline=None)
def test_observable_clears_denominators_once(coeffs):
    # the formula scaled_ints used before observables stored numerators
    denom = lcm(*(Fraction(c).denominator for c in coeffs)) if coeffs else 1
    ints = [int(Fraction(c) * denom) for c in coeffs]
    if ints and max(abs(v) for v in ints) >= sarnak._INT64_SAFE:
        with pytest.raises(ValueError, match="too large for exact int64"):
            sarnak.Observable(1, coeffs)
        return
    obs = sarnak.Observable(1, coeffs)
    ext, got_denom = obs.scaled_ints()
    assert ext.tolist() == ints + [0] and got_denom == denom
    assert obs.coeffs == tuple(Fraction(c) for c in coeffs)
    assert obs.sup_norm == max((abs(c) for c in coeffs), default=0)

