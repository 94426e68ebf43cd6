import itertools
import os
import random
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankone import construction as cons
from rankone import tower
from rankone.errors import NotBounded, OdometerCase, StageUnavailable

PRESET_NAMES = ["chacon", "odometer2", "odometer3", "flat3", "class4"]


# ----------------------------------------------------------- parameters

def test_stage_params_validation():
    with pytest.raises(ValueError):
        cons.StageParams(1, (0,))
    with pytest.raises(ValueError):
        cons.StageParams(2, (0,))  # wrong arity
    with pytest.raises(ValueError):
        cons.StageParams(2, (0, -1))


def test_each_preset_is_one_instance():
    fresh = {"chacon": cons.chacon(), "odometer2": cons.odometer(2),
             "odometer3": cons.odometer(3), "flat3": cons.flat3(), "class4": cons.class4()}
    assert sorted(fresh) == sorted(PRESET_NAMES) == sorted(cons.PRESETS)
    for name in PRESET_NAMES:
        assert cons.preset(name) is cons.preset(name)
        assert cons.preset(name) == fresh[name] and cons.preset(name) is not fresh[name]


def test_a_construction_is_hashed_once(monkeypatch):
    # a kept table or certificate is looked up by the construction's hash,
    # which walks no stage after construction
    calls = []
    stage_hash = cons.StageParams.__hash__
    monkeypatch.setattr(cons.StageParams, "__hash__",
                        lambda st: calls.append(st) or stage_hash(st))
    params = cons.ConstructionParams.explicit(0, [cons.StageParams(2, (0, 1))] * 100)
    equal = cons.ConstructionParams.explicit(0, [cons.StageParams(2, (0, 1))] * 100)
    calls.clear()
    assert hash(params) == hash(equal) and params == equal
    cons.heights(params, 50)
    assert calls == []


def test_a_construction_hashes_alike_in_every_process():
    # str hashes differ per process, so the hash reads the int fields alone,
    # and a pickled construction keeps a valid hash in another process
    code = "from rankone import construction as c; print(hash(c.chacon()))"
    env = dict(os.environ, PYTHONPATH=str(Path(cons.__file__).parents[1]))
    for seed in ("0", "1"):
        out = subprocess.run([sys.executable, "-c", code], env=dict(env, PYTHONHASHSEED=seed),
                             capture_output=True, text=True, check=True).stdout
        assert out == f"{hash(cons.chacon())}\n"


def test_explicit_generator_exhausts():
    p = cons.ConstructionParams.explicit(0, [cons.StageParams(2, (0, 0))])
    assert p.stage(1).r == 2
    with pytest.raises(StageUnavailable):
        p.stage(2)


def test_random_generator_is_deterministic_and_bounded():
    a = cons.ConstructionParams.random_bounded(0, 5, 4, seed=7)
    b = cons.ConstructionParams.random_bounded(0, 5, 4, seed=7)
    for j in range(1, 51):
        sa, sb = a.stage(j), b.stage(j)
        assert sa == sb
        assert 2 <= sa.r <= 5
        assert all(0 <= x <= 4 for x in sa.s)


def test_random_constructions_describe_their_h1():
    # unequal constructions that differ in h1 alone print different names
    a = cons.ConstructionParams.random_bounded(0, 3, 3, 5)
    b = cons.ConstructionParams.random_bounded(2, 3, 3, 5)
    assert a != b
    assert a.describe() == "random(h1=0,r<=3,s<=3,seed=5)"
    assert b.describe() == "random(h1=2,r<=3,s<=3,seed=5)"


def fresh_draw(seed, r_max, s_max, j):
    rng = random.Random(seed * 1_000_003 + j)
    r = rng.randint(2, r_max)
    return cons.StageParams(r, tuple(rng.randint(0, s_max) for _ in range(r)))


@pytest.mark.parametrize("seed", [0, 1, 7, 999_983])
def test_cached_random_stage_is_the_seeded_draw(seed):
    # same seed, different bounds: the cache must not hand one's stage to the other
    bounds = [(2, 0), (3, 3), (5, 9)]
    for _ in range(2):
        for j in range(1, 61):
            for r_max, s_max in bounds:
                params = cons.ConstructionParams.random_bounded(j % 3, r_max, s_max, seed)
                assert params.stage(j) == fresh_draw(seed, r_max, s_max, j)


def test_random_stages_are_drawn_once_per_construction(monkeypatch):
    # a stage sits with the levels in the construction's one keep: the tail
    # window walks the stages the profile drew, and equal constructions built
    # apart share their draws
    seeds = []

    def spy(seed):
        seeds.append(seed)
        return random.Random(seed)

    monkeypatch.setattr(cons, "random", SimpleNamespace(Random=spy))
    cons._level_table.cache_clear()
    cons.classify(cons.ConstructionParams.random_bounded(1, 3, 3, 5), 2000)
    assert len(seeds) == 2000
    seeds.clear()
    a, b = (cons.ConstructionParams.random_bounded(2, 3, 3, 11) for _ in range(2))
    assert a is not b
    for params in (a, b):
        assert params.stage_range(1, 50) == [fresh_draw(11, 3, 3, j) for j in range(1, 51)]
    assert sorted(seeds) == [11 * 1_000_003 + j for j in range(1, 51)]


# -------------------------------------------------------------- heights

def test_height_examples():
    assert cons.heights(cons.odometer(2), 5).levels == (1, 2, 4, 8, 16)
    assert cons.heights(cons.chacon(), 5).levels == (1, 4, 13, 40, 121)
    one = cons.ConstructionParams.explicit(1, [cons.StageParams(2, (1, 1))])
    assert cons.heights(one, 2).L(2) == 6


def test_height_tables_are_read_in_place():
    # grown once, the table is handed out by reference: 100 reads copy less
    # than the one 5000-entry tuple each read used to build
    cons.heights(cons.chacon(), 5000)
    tracemalloc.start()
    try:
        for _ in range(100):
            cons.heights(cons.chacon(), 5000).L(5000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < sys.getsizeof(tuple(range(5000)))
    p = cons.chacon()
    five = cons.heights(p, 5)
    assert five == cons.heights(p, 5) != cons.heights(cons.odometer(3), 5)
    assert five != cons.heights(p, 6)
    cons.heights(p, 50)
    assert five.max_stage == 5 and five.levels == (1, 4, 13, 40, 121)


def test_chacon_closed_form():
    table = cons.heights(cons.chacon(), 30)
    for j in range(1, 31):
        assert table.L(j) == (3**j - 1) // 2


stage_lists = st.lists(
    st.builds(
        lambda r, seed: cons.StageParams(
            r, tuple((seed + i * 7919) % 5 for i in range(r))
        ),
        st.integers(2, 6),
        st.integers(0, 10_000),
    ),
    min_size=1,
    max_size=12,
)


@given(st.integers(0, 9), stage_lists)
@settings(max_examples=100, deadline=None)
def test_height_recursion_exact(h1, stages):
    params = cons.ConstructionParams.periodic(h1, stages)
    J = 20
    table = cons.heights(params, J)
    for j in range(1, J):
        st_j = params.stage(j)
        assert table.L(j + 1) == table.L(j) * st_j.r + sum(st_j.s)
        assert table.L(j + 1) >= 2 * table.L(j)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_first_stage_reaching_is_the_smallest(name):
    params = cons.preset(name)
    table = cons.heights(params, 40)
    for start in (1, 2, 5):
        for n in (1, 2, 17, 10_000, 10**6):
            K = cons.first_stage_reaching(params, n, start)
            assert K >= start and table.L(K) >= n
            assert K == start or table.L(K - 1) < n
    # three explicit stages give L_1..L_4; a search past L_4 needs stage 4
    three = cons.ConstructionParams.explicit(params.h1, params.stage_range(1, 3))
    assert cons.first_stage_reaching(three, table.L(4)) == 4
    assert cons.first_stage_reaching(three, 1, 4) == 4
    for n, start in ((table.L(4) + 1, 1), (1, 5)):
        with pytest.raises(StageUnavailable, match="stage 4 requested"):
            cons.first_stage_reaching(three, n, start)
    with pytest.raises(ValueError, match=r"^start must be >= 1, got 0$"):
        cons.first_stage_reaching(params, 1, 0)


# The level table is grown in place by whichever call needs it first.
# Each property below clears it, grows it in a drawn order and checks
# every answer against a walk of the recursion written out here.

constructions = st.one_of(
    st.builds(cons.ConstructionParams.periodic, st.integers(0, 3), stage_lists),
    st.builds(cons.ConstructionParams.explicit, st.integers(0, 3), stage_lists),
    st.builds(cons.ConstructionParams.random_bounded, st.integers(0, 3),
              st.integers(2, 4), st.integers(0, 4), st.integers(0, 10**6)),
)


def naive_levels(params, J):
    """L_1..L_J, or the StageUnavailable the recursion meets first."""
    levels = [params.h1 + 1]
    try:
        for j in range(1, J):
            st_j = params.stage(j)
            levels.append(levels[-1] * st_j.r + sum(st_j.s))
    except StageUnavailable as exc:
        return exc
    return tuple(levels)


def outcome(call):
    try:
        return call()
    except StageUnavailable as exc:
        return exc


def same(a, b):
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b) and str(a) == str(b)
    return a == b


@given(constructions, st.lists(st.integers(1, 30), min_size=1, max_size=6))
@settings(max_examples=100, deadline=None)
def test_heights_do_not_depend_on_the_growth_order(params, Js):
    cons._level_table.cache_clear()
    for J in Js:
        got = outcome(lambda: cons.heights(params, J).levels)
        assert same(got, naive_levels(params, J))


def naive_first_stage(params, n, start):
    """A walk of the recursion one stage at a time."""
    K, L = 1, params.h1 + 1
    while K < start or L < n:
        st_j = params.stage(K)
        K, L = K + 1, L * st_j.r + sum(st_j.s)
    return K


@given(constructions, st.lists(st.tuples(st.integers(0, 10**7), st.integers(1, 20)),
                               min_size=1, max_size=6))
@settings(max_examples=100, deadline=None)
def test_first_stage_reaching_is_the_linear_walk(params, queries):
    cons._level_table.cache_clear()
    for n, start in queries:
        got = outcome(lambda: cons.first_stage_reaching(params, n, start))
        assert same(got, outcome(lambda: naive_first_stage(params, n, start)))


@pytest.mark.parametrize("read", [
    lambda params: cons.heights(params, 2000).L(2000) == 2**2000 - 1,
    lambda params: cons.heights_within(params, 2000, 2**1999).max_stage == 2000,
    lambda params: cons.first_stage_reaching(params, 2**1999) == 2000,
])
def test_one_walk_of_the_table_looks_it_up_a_constant_number_of_times(read):
    # L_j = 2^j - 1: each read grows a fresh table through stage 2000, and
    # fetches it a fixed number of times, not once per stage
    params = cons.ConstructionParams.explicit(0, [cons.StageParams(2, (0, 1))] * 2000)
    cons._level_table.cache_clear()
    assert read(params)
    info = cons._level_table.cache_info()
    assert info.hits + info.misses <= 2


# --------------------------------------------------------- bounded/flat

def test_format_count():
    # exact up to 30 digits; past that leading digits, exponent and digit
    # count, also where a float log10 rounds across a power of 10
    assert cons.format_count(0) == "0"
    assert cons.format_count(10**30 - 1) == "9" * 30
    assert cons.format_count(10**30) == "1.00000e+30 (31 digits)"
    for k in (30, 31, 300, 4300, 4301, 10_000):
        assert cons.format_count(10**k) == f"1.00000e+{k} ({k + 1} digits)"
        if k > 30:
            assert cons.format_count(10**k - 1) == f"9.99999e+{k - 1} ({k} digits)"
            assert cons.format_count(10**k + 1) == f"1.00000e+{k} ({k + 1} digits)"
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randrange(10**30, 10**rng.randint(31, 4300))
        text = str(n)
        assert cons.format_count(n) == (
            f"{text[0]}.{text[1:6]}e+{len(text) - 1} ({len(text)} digits)")


def test_bounded_profile_examples():
    assert cons.bounded_profile(cons.chacon(), 10).r_sup == 3
    assert cons.bounded_profile(cons.chacon(), 10).s_sup == 1
    prof = cons.bounded_profile(cons.odometer(2), 10)
    assert (prof.r_sup, prof.s_sup) == (2, 0)
    rnd = cons.ConstructionParams.random_bounded(0, 5, 4, seed=3)
    prof = cons.bounded_profile(rnd, 50)
    assert prof.r_sup <= 5 and prof.s_sup <= 4
    cons.classify(rnd, 50, bound=5)  # the bound is checked there: no NotBounded


def test_flatness_examples():
    assert not cons.flatness(cons.chacon(), (1, 6))
    assert cons.flatness(cons.flat3(), (1, 6))
    flat2 = cons.ConstructionParams.periodic(0, [cons.StageParams(2, (2, 2))])
    assert cons.flatness(flat2, (1, 6))
    # flat3's stage on odd stages, chacon's on even ones: only the window counts
    mixed = cons.ConstructionParams.periodic(
        0, [cons.StageParams(3, (1, 1, 0)), cons.StageParams(3, (0, 1, 0))])
    assert cons.flatness(mixed, (3, 3)) and not cons.flatness(mixed, (3, 4))


LIBRARY_CHECKS = [
    (lambda: cons.ConstructionParams.periodic(-1, [cons.StageParams(2, (0, 1))]),
     "h1 must be >= 0"),
    (lambda: cons.ConstructionParams.explicit(0, []), "need at least one stage"),
    (lambda: cons.ConstructionParams.random_bounded(1, 1, 3, seed=5), "r_max must be >= 2"),
    (lambda: cons.chacon().stage(0), "stage index starts at 1"),
    (lambda: cons.cyclic_factor_preset(1), "d must be >= 2"),
    (lambda: cons.heights(cons.chacon(), 3).L(4), "stage 4 outside 1..3"),
    (lambda: cons.heights(cons.chacon(), 3).L(0), "stage 0 outside 1..3"),
    (lambda: cons.heights(cons.chacon(), 0), "J must be >= 1"),
    (lambda: cons.heights_within(cons.chacon(), 0, 100), "J must be >= 1"),
    (lambda: cons.bounded_profile(cons.chacon(), 0), "J must be >= 1"),
    (lambda: cons.flatness(cons.chacon(), (3, 2)), "bad window [3,2]"),
    (lambda: cons.ConstructionParams.random_bounded(1, 2**20 + 1, 3, seed=5),
     "r_max must be <= 1048576, got 1048577"),
]


@pytest.mark.parametrize("call,message", LIBRARY_CHECKS,
                         ids=[f"{i}-{m}" for i, (_, m) in enumerate(LIBRARY_CHECKS)])
def test_library_checks_name_what_is_wrong(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


# ------------------------------------------------ return times / order

def test_return_times_examples():
    assert cons.return_times(cons.chacon(), 2) == (4, 5, 4)
    assert cons.return_times(cons.odometer(2), 3) == (4, 4)
    assert cons.return_times(cons.class4(), 1) == (2, 4)


def test_eigenvalue_order_examples():
    assert cons.eigenvalue_order(cons.chacon(), 1, 10) == 1
    assert cons.eigenvalue_order(cons.class4(), 1, 10) == 2
    # constant spacers (2, 2) on h1 = 1: the offsets L_j + 2 are 4, 10, 22, ...
    two = cons.ConstructionParams.periodic(1, [cons.StageParams(2, (2, 2))])
    assert cons.eigenvalue_order(two, 1, 10) == 2
    with pytest.raises(OdometerCase):
        cons.eigenvalue_order(cons.odometer(2), 1, 10)
    # flat3: the offsets L_j + 1 and 2(L_j + 1), with L_j + 1 = 2*3^(j-1)
    with pytest.raises(OdometerCase, match=r"grows from 2 on stages 1\.\.10 to 162 "
                                           r"on stages 5\.\.10"):
        cons.eigenvalue_order(cons.flat3(), 1, 10)


def test_eigenvalue_order_divides_column_offsets():
    for name in PRESET_NAMES:
        params = cons.preset(name)
        if name in ("odometer2", "odometer3", "flat3"):
            with pytest.raises(OdometerCase):
                cons.eigenvalue_order(params, 1, 15)
            continue
        order = cons.eigenvalue_order(params, 1, 15)
        for j in range(1, 16):
            assert all(off % order == 0 for off in cons.column_offsets(params, j))


# ------------------------------------------------------- classification

@pytest.mark.parametrize(
    "name,expected",
    [
        ("odometer2", "Odometer"),
        ("odometer3", "Odometer"),
        ("chacon", "TotallyErgodic"),
        ("flat3", "Odometer"),
        ("class4", "CompactFactor(2)"),
    ],
)
def test_classify_presets(name, expected):
    assert str(cons.classify(cons.preset(name), 20)) == expected


def test_classify_reports_tail_flatness_beside_the_kind():
    assert cons.classify(cons.flat3(), 20).flat
    assert not cons.classify(cons.chacon(), 20).flat
    # flat over the first two columns, and a cyclic factor of order 2
    flat_factor = cons.ConstructionParams.periodic(0, [cons.StageParams(3, (1, 1, 2))])
    assert cons.classify(flat_factor, 20) == cons.ClassLabel(
        cons.ClassKind.COMPACT_FACTOR, 2, flat=True)


def test_classify_stable_under_doubling():
    for name in PRESET_NAMES:
        params = cons.preset(name)
        assert cons.classify(params, 20) == cons.classify(params, 40)


def test_classify_cyclic_presets():
    for d in (2, 3, 5):
        label = cons.classify(cons.cyclic_factor_preset(d), 24)
        assert label.kind is cons.ClassKind.COMPACT_FACTOR
        assert label.d == d


def test_classify_not_bounded():
    grow = cons.ConstructionParams.random_bounded(0, 6, 5, seed=1)
    with pytest.raises(NotBounded):
        cons.classify(grow, 30, bound=2)


def test_eventually_odometer_detected():
    # non-constant early stage, then no spacers: the offsets L_j double
    stages = [cons.StageParams(3, (0, 1, 0))] + [cons.StageParams(2, (0, 0))] * 19
    params = cons.ConstructionParams.explicit(0, stages)
    assert cons.classify(params, 20).kind is cons.ClassKind.ODOMETER
    # constant spacers (1, 1) are not an odometer: the offsets L_j + 1 run
    # 5, 11, 23, ..., each twice the last plus one, so coprime
    stages = [cons.StageParams(3, (0, 1, 0))] + [cons.StageParams(2, (1, 1))] * 19
    params = cons.ConstructionParams.explicit(0, stages)
    assert cons.classify(params, 20).kind is cons.ClassKind.TOTALLY_ERGODIC


# A label is checked against the label word, not against the offsets'
# gcd: the stage-K word holds the stage-j base level B_j at the start of
# each copy of the stage-j tower, so the exact pair counts
# C_n(B_j, B_j) = #{l : word[l] = word[l+n] = 0} vanish off qZ exactly
# when q divides every difference of two copies' starts.

def base_pair_counts(params, j, K):
    """C_n(B_j, B_j) of the stage-K label word, for n = 0 .. L_K - 1."""
    starts = np.flatnonzero(tower.build_labels(params, j, K) == 0)
    gaps = starts[None, :] - starts[:, None]
    return np.bincount(gaps[gaps > 0], minlength=cons.heights(params, K).L(K))


def vanishing_moduli(counts):
    """The q >= 1 with C_n = 0 at every n not divisible by q."""
    shifts = np.flatnonzero(counts)
    return [q for q in range(1, shifts[0] + 1) if not (shifts % q).any()]


def check_signature(label, params, j0, mid, K):
    """The label's signature on the stage-K word: Odometer vanishes mod g at
    stage j0 and mod some g' > g at the later stage mid; otherwise the
    largest modulus is the same at both stages: d for CompactFactor(d), and
    1 for TotallyErgodic, which vanishes mod no q >= 2."""
    moduli = vanishing_moduli(base_pair_counts(params, j0, K))
    later = vanishing_moduli(base_pair_counts(params, mid, K))
    if label.kind is cons.ClassKind.ODOMETER:
        assert max(later) > max(moduli), (params, moduli, later)
        return
    assert max(later) == max(moduli), (params, label, moduli, later)
    if label.kind is cons.ClassKind.COMPACT_FACTOR:
        assert max(moduli) == label.d >= 2, (params, label, moduli)
    else:
        assert moduli == [1], (params, label, moduli)


def test_base_pair_counts_are_the_correlation_counts():
    for params in (cons.chacon(), cons.class4(), cons.flat3()):
        counts = base_pair_counts(params, 2, 5)
        shifts = list(range(1, 60))
        mats = tower.correlation_matrices(params, 2, 5, shifts)
        assert [int(mats[n].counts[0, 0]) for n in shifts] == counts[1:60].tolist()


def test_census_labels_have_their_word_signature():
    # the one-stage periodic constructions of
    # test_compact_factor_label_implies_partition, labelled at horizon 40 and
    # checked on the stage-8 word at stages 4 and 6
    kinds = Counter()
    for h1 in range(4):
        for r in (2, 3):
            for s in itertools.product(range(5), repeat=r):
                params = cons.ConstructionParams.periodic(h1, [cons.StageParams(r, s)])
                label = cons.classify(params, 40)
                kinds[label.kind] += 1
                check_signature(label, params, 4, 6, 8)
    assert kinds == {cons.ClassKind.TOTALLY_ERGODIC: 394,
                     cons.ClassKind.COMPACT_FACTOR: 166, cons.ClassKind.ODOMETER: 40}


small_stages = st.builds(
    lambda r, s: cons.StageParams(r, tuple(s[:r])),
    st.integers(2, 3), st.lists(st.integers(0, 4), min_size=3, max_size=3),
)


@given(
    st.one_of(
        st.builds(cons.ConstructionParams.periodic, st.integers(0, 3),
                  st.lists(small_stages, min_size=1, max_size=3)),
        st.builds(cons.ConstructionParams.random_bounded, st.integers(0, 3),
                  st.integers(2, 3), st.integers(0, 3), st.integers(0, 10**6)),
    ),
    st.integers(3, 8),
)
@settings(max_examples=80, deadline=None)
def test_labels_have_their_word_signature(params, horizon):
    # a window of two stages has no later half that can differ from it
    with pytest.raises(ValueError, match="fewer than 3 stages"):
        cons.classify(params, 2)
    # the stage-(H+1) word places copies of the stage-j tower by the offsets
    # of stages j..H, so the signature reads exactly the window the label read
    j0 = cons.tail_start(horizon)
    check_signature(cons.classify(params, horizon), params, j0,
                    j0 + (horizon - j0) // 2, horizon + 1)
