import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankone import _kernels, mobius, sarnak, tower
from rankone import construction as cons
from rankone.errors import DepthTooShallow

PRESET_NAMES = ["chacon", "odometer2", "odometer3", "flat3", "class4"]

# the 13-letter stage-3 chacon word, written out by hand from the
# stacking order (col, s(1)=0, col, s(2)=1 spacer, col, s(3)=0):
# b b sp b | b b sp b | sp | b b sp b
CHACON_13 = ["b", "b", "sp", "b", "b", "b", "sp", "b", "sp", "b", "b", "sp", "b"]


def as_symbols(labels):
    return ["b" if v == 0 else "sp" for v in labels]


def test_chacon_words():
    m2 = tower.build_labels(cons.chacon(), 1, 2)
    assert as_symbols(m2) == ["b", "b", "sp", "b"]
    m3 = tower.build_labels(cons.chacon(), 1, 3)
    assert as_symbols(m3) == CHACON_13


def test_odometer_word_alternates():
    p = cons.ConstructionParams.periodic(1, [cons.StageParams(2, (0, 0))])
    m = tower.build_labels(p, 1, 2)
    assert m.tolist() == [0, 1, 0, 1]


def test_identity_labeling_at_ref_stage():
    m = tower.build_labels(cons.chacon(), 3, 3)
    assert m.tolist() == list(range(13))


def test_spacer_labels_carry_their_stage():
    m = tower.build_labels(cons.chacon(), 1, 3)
    assert m[2] == -1  # inside the stage-1 restack
    assert m[8] == -2  # inserted when stacking stage 2


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_prefix_embedding(name):
    params = cons.preset(name)
    prev = tower.build_labels(params, 1, 1)
    for K in range(2, 13):
        cur = tower.build_labels(params, 1, K)
        assert np.array_equal(cur[: len(prev)], prev)
        prev = cur


@pytest.mark.parametrize("name", PRESET_NAMES)
@pytest.mark.parametrize("j", [1, 2, 3])
def test_level_counts(name, j):
    params = cons.preset(name)
    K = j + 5
    word = tower.build_labels(params, j, K)
    n_levels = cons.heights(params, j).L(j)
    copies = math.prod(params.stage(m).r for m in range(j, K))
    counts = _kernels.class_counts(word, n_levels)
    assert all(counts[a] == copies for a in range(n_levels))
    spacers = len(word) - n_levels * copies
    assert counts[n_levels] == spacers


def test_level_measures_examples():
    assert tower.level_measures(cons.chacon(), 1, 3)[0] == Fraction(9, 13)
    p = cons.ConstructionParams.periodic(1, [cons.StageParams(2, (0, 0))])
    meas = tower.level_measures(p, 1, 2)
    assert meas[0] == meas[1] == Fraction(1, 2)
    assert set(tower.level_measures(cons.chacon(), 2, 2).values()) == {Fraction(1, 4)}
    assert set(tower.level_measures(cons.chacon(), 2, 5).values()) == {Fraction(27, 121)}


def test_level_measures_need_no_word(monkeypatch):
    def no_word(*args):
        raise AssertionError("built a word for the level measures")

    monkeypatch.setattr(_kernels, "build_word", no_word)
    params = cons.chacon()
    L_30 = cons.heights(params, 30).L(30)
    assert L_30 > tower.MAX_WORD_LENGTH
    assert tower.level_measures(params, 2, 30) == dict.fromkeys(range(4), Fraction(3**28, L_30))
    for j, K in ((0, 3), (3, 2)):
        with pytest.raises(ValueError, match="need 1 <= j <= K"):
            tower.level_measures(params, j, K)


# ------------------------------------------------------------ correlation

def brute_pairs(word, n, a, b):
    total = len(word)
    count = 0
    for l in range(total):
        if 0 <= l + n < total and word[l] == a and word[l + n] == b:
            count += 1
    return Fraction(count, total)


def test_chacon_correlation_against_bruteforce():
    mat = tower.correlation_matrix(cons.chacon(), 1, 3, 1)
    word = [0 if c == "b" else 1 for c in CHACON_13]  # class 1 = spacer
    assert mat.value(0, 0) == brute_pairs(word, 1, 0, 0) == Fraction(4, 13)
    assert mat.error_bound >= 1 / 13


def test_zero_shift_is_diagonal():
    for name in PRESET_NAMES:
        params = cons.preset(name)
        mat = tower.correlation_matrix(params, 2, 8, 0)
        word = tower.build_labels(params, 2, 8)
        counts = _kernels.class_counts(word, cons.heights(params, 2).L(2))
        for a in range(mat.counts.shape[0]):
            for b in range(mat.counts.shape[0]):
                expected = counts[a] if a == b else 0
                assert mat.counts[a, b] == expected
        assert mat.error_bound == tower.tail_bound(params, 8)


def test_tail_bound_at_the_explicit_edge():
    # heights reach stage 13, one past the 12 listed stages, so the probe
    # ends at min(K + 8, 13), and nothing is left to probe from K = 13 on
    params = cons.ConstructionParams.explicit(0, [cons.StageParams(3, (0, 1, 0))] * 12)
    L = cons.heights(params, 13).L
    for K in range(3, 15):
        end = min(K + tower.TAIL_PROBE_STAGES, 13)
        want = 0.0 if K >= 13 else float(1 - Fraction(L(K) * 3 ** (end - K), L(end)))
        assert tower.tail_bound(params, K) == want
    # a periodic construction always probes 8 stages on
    L = cons.heights(cons.chacon(), 13).L
    assert tower.tail_bound(cons.chacon(), 5) == float(1 - Fraction(L(5) * 3**8, L(13)))


def test_tail_bound_is_the_rounded_probe_fraction():
    # int true division rounds the one rational 1 - L_K*prod(r)/L_end as
    # float(Fraction) does, on every kind of construction
    explicit = cons.ConstructionParams.explicit(1, [cons.StageParams(2, (1, 0)),
                                                    cons.StageParams(3, (0, 2, 1))] * 6)
    randoms = [cons.ConstructionParams.random_bounded(h1, 3, 3, seed)
               for h1, seed in ((0, 1), (1, 5), (3, 17))]
    for params in [*map(cons.preset, PRESET_NAMES), *randoms, explicit]:
        for K in range(1, 16):
            end = K + tower.TAIL_PROBE_STAGES
            if params.kind == "explicit":
                end = min(end, len(params.stages) + 1)
            want = 0.0
            if end > K:
                L = cons.heights(params, end).L
                ratio = math.prod(stage.r for stage in params.stage_range(K, end - 1))
                want = float(1 - Fraction(L(K) * ratio, L(end)))
            assert tower.tail_bound(params, K) == want


def test_odometer_alternation_correlation():
    p = cons.ConstructionParams.periodic(1, [cons.StageParams(2, (0, 0))])
    mat = tower.correlation_matrix(p, 1, 2, 1)
    assert mat.value(0, 1) == Fraction(1, 2)
    assert mat.value(0, 0) == 0


def test_negative_shift_transposes():
    for n in (1, 3, 7):
        pos = tower.correlation_matrix(cons.chacon(), 2, 9, n)
        neg = tower.correlation_matrix(cons.chacon(), 2, 9, -n)
        assert np.array_equal(neg.counts, pos.counts.T)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_measure_preservation_sample(name):
    params = cons.preset(name)
    K = cons.first_stage_reaching(params, 10_000, start=2)
    word = tower.build_labels(params, 2, K)
    nu = _kernels.class_counts(word, cons.heights(params, 2).L(2)) / len(word)
    for n in (-37, -5, 1, 23, 50):
        mat = tower.correlation_matrix(params, 2, K, n)
        rows = mat.counts.sum(axis=1) / mat.total
        assert np.all(np.abs(rows - nu) <= abs(n) / len(word) + 1e-15)


def test_depth_stability_of_entries():
    rng = np.random.default_rng(11)
    for name in PRESET_NAMES:
        params = cons.preset(name)
        K = cons.first_stage_reaching(params, 10_000, start=2)
        n_levels = cons.heights(params, 2).L(2)
        for _ in range(5):
            n = int(rng.integers(-100, 101))
            a = int(rng.integers(0, n_levels + 1))
            b = int(rng.integers(0, n_levels + 1))
            m1 = tower.correlation_matrix(params, 2, K, n)
            m2 = tower.correlation_matrix(params, 2, K + 2, n)
            gap = abs(m1.values[a, b] - m2.values[a, b])
            assert gap <= m1.error_bound + m2.error_bound


def test_correlation_errors():
    with pytest.raises(DepthTooShallow):
        tower.correlation_matrix(cons.chacon(), 1, 2, 10)
    # a reference stage past the depth: checked_heights' j <= K check
    with pytest.raises(ValueError, match="^need 1 <= j <= K, got j=5, K=3$"):
        tower.correlation_matrix(cons.chacon(), 5, 3, 1)


def test_correlation_guards_run_before_any_word(monkeypatch):
    def no_word(*args):
        raise AssertionError("built a word before checking the request")

    monkeypatch.setattr(_kernels, "build_word", no_word)
    params = cons.chacon()
    j = cons.first_stage_reaching(params, tower.MAX_DENSE_LEVELS + 1)
    with pytest.raises(ValueError, match="dense correlation"):
        tower.correlation_matrix(params, j, j + 1, 1)
    with pytest.raises(DepthTooShallow):
        tower.correlation_matrix(params, 2, 12, 10**6)
    # a later request fails before the first is counted, and a lazy
    # iterable is checked one request at a time, in order
    with pytest.raises(DepthTooShallow, match=r"\|n\|=40 .* L_K=40"):
        tower.correlation_depths(params, 2, [(5, [1, 2]), (4, [40]), (3, [40])])

    def requests():
        yield 5, [1]
        yield 4, [40]
        raise AssertionError("drew a request after one failed its check")

    with pytest.raises(DepthTooShallow):
        tower.correlation_depths(params, 2, requests())


EXPLICIT = cons.ConstructionParams.explicit(1, [
    cons.StageParams(r, tuple((3 * m + i) % 5 for i in range(r)))
    for m, r in enumerate([2, 3, 4, 2, 3, 4, 2, 3, 4, 2, 3, 4])
])
PERIODIC = cons.ConstructionParams.periodic(
    2, [cons.StageParams(3, (1, 0, 2)), cons.StageParams(2, (0, 3))]
)
MAX_LK = 200_000


@st.composite
def correlation_requests(draw):
    params = draw(st.one_of(
        st.builds(cons.ConstructionParams.random_bounded, st.integers(0, 3),
                  st.integers(2, 4), st.integers(0, 4), st.integers(0, 10**6)),
        st.sampled_from([EXPLICIT, PERIODIC]),
    ))
    j = draw(st.integers(1, 3))
    deepest = j
    while cons.heights(params, deepest + 1).L(deepest + 1) <= MAX_LK:
        deepest += 1
    K = draw(st.integers(j, deepest))
    L = cons.heights(params, K).L(K)
    picked = draw(st.lists(st.sampled_from([*range(1, 9), L - 1]), max_size=6))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=6, max_size=6))
    extra = draw(st.lists(st.integers(1 - L, L - 1), max_size=4))
    shifts = [0] + [s * z for s, z in zip(signs, picked) if z < L] + extra
    return params, j, K, shifts


@settings(max_examples=60, deadline=None)
@given(correlation_requests())
def test_batched_counts_match_the_word(request):
    params, j, K, shifts = request
    word = tower.build_labels(params, j, K)
    n_ref = cons.heights(params, j).L(j)
    mats = tower.correlation_matrices(params, j, K, shifts)
    for n in shifts:
        assert np.array_equal(mats[n].counts, _kernels.pair_counts(word, n, n_ref))
        assert mats[n].total == len(word)
    assert np.array_equal(np.diag(mats[0].counts), _kernels.class_counts(word, n_ref))


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    st.builds(cons.ConstructionParams.random_bounded, st.integers(0, 3),
              st.integers(2, 4), st.integers(0, 4), st.integers(0, 10**6)),
    st.builds(cons.ConstructionParams.periodic, st.integers(0, 3), st.lists(
        st.lists(st.integers(0, 5), min_size=2, max_size=4).map(
            lambda s: cons.StageParams(len(s), tuple(s))),
        min_size=1, max_size=3)),
), st.integers(1, 5))
def test_column_offsets_place_each_copy(params, j):
    """The stage-(j+1) word is copy i of 0..L_j-1 at 0 or at the i-th
    column offset, each followed by s_j(i) stage-j spacers."""
    word = tower.build_labels(params, j, j + 1).tolist()
    table = cons.heights(params, j + 1)
    L_j, spacers = table.L(j), params.stage(j).s
    starts = (0, *cons.column_offsets(params, j))
    assert len(starts) == len(spacers)
    for start, s in zip(starts, spacers):
        assert word[start : start + L_j] == list(range(L_j))
        assert word[start + L_j : start + L_j + s] == [-j] * s
    assert len(word) == starts[-1] + L_j + spacers[-1] == table.L(j + 1)


@st.composite
def depth_requests(draw):
    """Requests (K, shifts) at several depths. The deepest request holds
    the shift L_K0 of the shallowest depth K0, so K0 lies below the first
    stage long enough for the largest shift and takes its own climb."""
    params = draw(st.one_of(
        st.sampled_from(PRESET_NAMES).map(cons.preset),
        st.builds(cons.ConstructionParams.random_bounded, st.integers(0, 3),
                  st.integers(2, 3), st.integers(0, 3), st.integers(0, 10**6)),
    ))
    j = draw(st.integers(1, 3))
    deepest = j
    while cons.heights(params, deepest + 1).L(deepest + 1) <= 10 * MAX_LK:
        deepest += 1
    depths = draw(st.lists(st.integers(j, deepest), min_size=1, max_size=4))
    requests = []
    for K in depths:
        L = cons.heights(params, K).L(K)
        small, top = min(9, L - 1), min(L, MAX_LK) - 1
        requests.append((K, draw(st.lists(
            st.one_of(st.integers(-small, small), st.integers(-top, top)),
            min_size=1, max_size=4))))
    shallow = min(depths)
    if shallow < max(depths) and cons.heights(params, shallow).L(shallow) < MAX_LK:
        requests[depths.index(max(depths))][1].append(cons.heights(params, shallow).L(shallow))
    return params, j, requests


@settings(max_examples=60, deadline=None)
@given(depth_requests())
def test_one_climb_matches_each_depth_alone(request):
    params, j, requests = request
    n_ref = cons.heights(params, j).L(j)
    found = tower.correlation_depths(params, j, requests)
    assert len(found) == len(requests)
    for (K, shifts), mats in zip(requests, found):
        alone = tower.correlation_matrices(params, j, K, shifts)
        total = cons.heights(params, K).L(K)
        word = tower.build_labels(params, j, K) if total <= MAX_LK else None
        for n in shifts:
            mat = mats[n]
            assert (mat.shift, mat.depth, mat.total) == (n, K, total)
            assert mat.tail == alone[n].tail == tower.tail_bound(params, K)
            assert np.array_equal(mat.counts, alone[n].counts)
            if word is not None:
                assert np.array_equal(mat.counts, _kernels.pair_counts(word, n, n_ref))


def test_climb_reuses_an_alternating_state(monkeypatch):
    # both stages end on 0 spacers, so each leaves the suffix it restacked
    # and the states (stage A, suffix) and (stage B, suffix) alternate. Each
    # distinct state's r junctions are rows of the junction block once, and
    # a state met again only adds to its weight: r_A + r_B = 5 rows however
    # deep the climb goes
    params = cons.ConstructionParams.periodic(
        1, [cons.StageParams(2, (1, 0)), cons.StageParams(3, (2, 1, 0))])
    rows = []
    junction_block = tower._junction_block

    def spy(group, *args):
        rows.extend(s for _, s, _ in group)
        return junction_block(group, *args)

    monkeypatch.setattr(tower, "_junction_block", spy)
    shifts = [-3, 0, 1, 2, 5, 6]
    m0 = cons.first_stage_reaching(params, 6, 1)
    depths = [K for K in range(m0, 20) if cons.heights(params, K).L(K) <= 200_000]
    assert len(depths) >= 6
    for deepest in (depths[2], depths[-1]):
        rows.clear()
        found = tower.correlation_depths(
            params, 1, [(K, shifts) for K in depths if K <= deepest])
        assert sorted(rows) == [0, 0, 1, 1, 2]
    n_ref = cons.heights(params, 1).L(1)
    for K, mats in zip(depths, found):
        word = tower.build_labels(params, 1, K)
        for n in shifts:
            assert np.array_equal(mats[n].counts, _kernels.pair_counts(word, n, n_ref)), (K, n)


def test_one_climb_counts_each_shift_once(monkeypatch):
    # each shift's pass over the junction block also counts W_m0's pairs,
    # code[:L - z] + word[z:], first: its length names the shift
    counted, built = [], []
    pair_bins, build_word = tower._pair_bins, _kernels.build_word

    def count_spy(pairs, size):
        counted.append(364 - len(pairs[0][0]))
        return pair_bins(pairs, size)

    def build_spy(*args):
        built.append(args[5])
        return build_word(*args)

    monkeypatch.setattr(tower, "_pair_bins", count_spy)
    monkeypatch.setattr(_kernels, "build_word", build_spy)
    params, window = cons.chacon(), [*range(-8, 9)]
    found = tower.correlation_depths(
        params, 2, [(9, [-121, *window]), (10, [-364, *window]), (9, [40, *window])])
    assert sorted(counted) == [*range(9), 40, 121, 364]
    assert built == [364]  # W_m0 at L_m0 = 364, the largest |n|
    assert found[0][-121].depth == found[2][40].depth == 9
    assert found[1][-364].depth == 10
    n_ref = cons.heights(params, 2).L(2)
    for K, mats in zip((9, 10, 9), found):
        word = tower.build_labels(params, 2, K)
        for n, mat in mats.items():
            assert np.array_equal(mat.counts, _kernels.pair_counts(word, n, n_ref)), (K, n)


@pytest.mark.parametrize("params,j,requests", [
    (cons.chacon(), 2, [(9, [-121, *range(-8, 9)]), (10, [-364, 5]), (9, [40])]),
    (PERIODIC, 1, [(6, [0, 1, 7, -50]), (7, [3, 120]), (9, [2, 0])]),
    (EXPLICIT, 2, [(6, [0, 1, -9, 400]), (8, [8, 1000])]),
    (cons.ConstructionParams.random_bounded(1, 3, 3, 5), 2,
     [(9, [0, 1, -8, 700]), (11, [2, 3000])]),
], ids=["chacon", "periodic", "explicit", "random"])
def test_a_small_byte_budget_splits_the_rows_and_keeps_the_counts(monkeypatch, params, j,
                                                                  requests):
    # at the default budget each of these climbs builds one junction group
    # and counts each shift in one piece; at 256 bytes every row is a group
    # of its own and every pass is cut into pieces of 32 codes, with the
    # same counts
    blocks, pieces = [], []
    junction_block, bincount = tower._junction_block, np.bincount

    def block_spy(group, *args):
        if group:  # a climb of no stage has no rows
            blocks.append(len(group))
        return junction_block(group, *args)

    def bincount_spy(*args, **kwargs):
        pieces.append(len(args[0]))
        return bincount(*args, **kwargs)

    monkeypatch.setattr(tower, "_junction_block", block_spy)
    wide = tower.correlation_depths(params, j, requests)
    groups, blocks[:] = list(blocks), []
    monkeypatch.setattr(tower, "JUNCTION_BYTES", 256)
    monkeypatch.setattr(np, "bincount", bincount_spy)
    narrow = tower.correlation_depths(params, j, requests)
    monkeypatch.undo()
    assert set(blocks) == {1} and len(blocks) == sum(groups) > len(groups)
    assert max(pieces) <= 32 and len(pieces) > 2 * len(blocks)
    for (K, shifts), a, b in zip(requests, wide, narrow):
        for n in shifts:
            assert np.array_equal(a[n].counts, b[n].counts), (K, n)
        if cons.heights(params, K).L(K) <= MAX_LK:
            word = tower.build_labels(params, j, K)
            n_ref = cons.heights(params, j).L(j)
            for n in shifts:
                assert np.array_equal(a[n].counts, _kernels.pair_counts(word, n, n_ref))


def test_a_shift_of_a_million_climbs_in_bounded_memory():
    # chacon at j = 2, depth 16 (L_16 = 21523361): W_m0 = W_14 has 2391484
    # entries and each junction row about 10**6. The climb that counted
    # each junction in index arrays of every shift peaked at 94.5 MiB of
    # traced memory here; grouped under JUNCTION_BYTES it stays far below
    params, K = cons.chacon(), 16
    cons.heights(params, K + 1)
    shifts = [*range(9), 10**6]
    tracemalloc.start()
    try:
        counts = tower._climb(params, 2, {K: set(shifts)})[K]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 48 * 2**20
    total, copies = cons.heights(params, K).L(K), 3 ** (K - 2)
    assert np.diag(counts[0])[:-1].tolist() == [copies] * 4
    assert counts[0][-1, -1] == total - 4 * copies
    for z in shifts:
        assert counts[z].sum() == total - z


def test_returned_counts_are_read_only():
    mats = tower.correlation_matrices(cons.chacon(), 1, 5, [-3, 0, 3])
    assert np.shares_memory(mats[-3].counts, mats[3].counts)  # a view, no copy
    for n in (-3, 0, 3):
        with pytest.raises(ValueError):
            mats[n].counts[0, 0] = 1


def test_csv_rows_deterministic():
    mat = tower.correlation_matrix(cons.chacon(), 1, 3, 1)
    rows = list(mat.to_csv_rows())
    assert rows[0][:2] == ("0", "0")
    assert rows[-1][:2] == ("spacer", "spacer")
    assert len(rows) == 4  # (1 level + spacer)^2


# ----------------------------------------------------------------- orbits

def test_orbit_examples():
    seg = tower.orbit_labels(cons.chacon(), 1, 0, 3)
    assert as_symbols(seg) == ["b", "sp", "b"]
    p = cons.ConstructionParams.periodic(1, [cons.StageParams(2, (0, 0))])
    seg2 = tower.orbit_labels(p, 1, 0, 4)
    assert seg2.tolist() == [1, 0, 1, 0]


def test_orbit_depth_guard():
    # chacon's L_3 = 13 holds entries 1..12, L_4 = 40 the 13th
    assert tower.orbit_depth(cons.chacon(), 1, 0, 12) == 3
    assert tower.orbit_depth(cons.chacon(), 1, 0, 13) == 4
    assert tower.orbit_depth(cons.chacon(), 3, 0, 1) == 3
    assert np.array_equal(tower.orbit_labels(cons.chacon(), 1, 0, 13),
                          tower.build_labels(cons.chacon(), 1, 4)[1:14])
    for start, N in ((-1, 3), (0, 0)):
        with pytest.raises(ValueError, match="need start >= 0 and N >= 1"):
            tower.orbit_labels(cons.chacon(), 1, start, N)
    with pytest.raises(ValueError, match="^reference stage must be >= 1, got 0$"):
        tower.orbit_labels(cons.chacon(), 0, 0, 5)


def test_orbit_builds_the_word_only_to_its_end(monkeypatch):
    built = []
    build_word = _kernels.build_word

    def spy(*args):
        built.append(args[5])
        return build_word(*args)

    monkeypatch.setattr(_kernels, "build_word", spy)
    params = cons.preset("flat3")
    start, N = 4, 30
    seg = tower.orbit_labels(params, 1, start, N)
    assert built == [start + N + 1]
    assert np.array_equal(seg, tower.build_labels(params, 1, 8)[start + 1 : start + N + 1])

    def no_word(*args):
        raise AssertionError("built a word before checking the orbit")

    monkeypatch.setattr(_kernels, "build_word", no_word)
    with pytest.raises(ValueError, match="over the 50000000 in-memory limit$"):
        tower.orbit_labels(params, 1, 0, tower.MAX_WORD_LENGTH)


def test_orbit_step_composition():
    params = cons.preset("flat3")
    whole = tower.orbit_labels(params, 1, 4, 30)
    first = tower.orbit_labels(params, 1, 4, 12)
    rest = tower.orbit_labels(params, 1, 16, 18)
    assert np.array_equal(whole, np.concatenate([first, rest]))


STAGES = st.lists(st.integers(0, 4), min_size=2, max_size=4).map(
    lambda s: cons.StageParams(len(s), tuple(s)))
#: random, periodic and explicit constructions; 20 explicit stages take
#: every word past MAX_LK before they run out
CONSTRUCTIONS = st.one_of(
    st.builds(cons.ConstructionParams.random_bounded, st.integers(0, 3),
              st.integers(2, 4), st.integers(0, 4), st.integers(0, 10**6)),
    st.builds(cons.ConstructionParams.periodic, st.integers(0, 3),
              st.lists(STAGES, min_size=1, max_size=3)),
    st.builds(cons.ConstructionParams.explicit, st.integers(0, 3),
              st.lists(STAGES, min_size=20, max_size=20)),
)


@settings(max_examples=80, deadline=None)
@given(CONSTRUCTIONS, st.integers(1, 3), st.data())
def test_measures_and_orbits_match_the_word(params, j, data):
    deepest = j
    while cons.heights(params, deepest + 1).L(deepest + 1) <= MAX_LK:
        deepest += 1
    K = data.draw(st.integers(j, deepest))
    word = tower.build_labels(params, j, K)
    L_j, L_K = cons.heights(params, j).L(j), len(word)
    counts = _kernels.class_counts(word, L_j)
    diag = np.diag(tower.correlation_matrix(params, j, K, 0).counts)
    measures = tower.level_measures(params, j, K)
    assert measures == {a: Fraction(int(counts[a]), L_K) for a in range(L_j)}
    assert measures == {a: Fraction(int(diag[a]), L_K) for a in range(L_j)}
    # an orbit of N steps from level s reads entries s+1..s+N; the last
    # window of the stage-K word ends at entry L_K - 1
    N = data.draw(st.integers(1, max(L_K - 1, 1)))
    for length in (N, L_K + N):  # a prefix stops at L_K
        assert np.array_equal(tower.build_labels(params, j, K, length), word[:length])
    last = L_K - 1 - N
    if last >= 0:
        s = data.draw(st.integers(0, last))
        for start in (s, last):
            assert tower.orbit_depth(params, j, start, N) <= K
            assert np.array_equal(tower.orbit_labels(params, j, start, N),
                                  word[start + 1 : start + N + 1])
    # one step further the orbit needs the next stage
    assert tower.orbit_depth(params, j, last + 1, N) == K + 1


MAX_ORBIT = 3000
MU_DIRECT = [0] + [mobius.mobius_direct(n) for n in range(1, MAX_ORBIT)]


@settings(max_examples=60, deadline=None)
@given(CONSTRUCTIONS, st.integers(1, 3), st.data())
def test_weighted_sum_matches_the_label_word(params, stage, data):
    # the sum picks its own depth; the oracle reads one stage deeper than
    # a depth K that holds the orbit. Besides a random window, one ends at
    # entry L_K - 1 and one just past the stage K-1 word, at entry L_{K-1}
    lo = top = cons.first_stage_reaching(params, 2, stage)
    while cons.heights(params, top + 1).L(top + 1) <= MAX_ORBIT:
        top += 1
    K = data.draw(st.integers(lo, top))
    L_K, L_j = cons.heights(params, K).L(K), cons.heights(params, stage).L(stage)
    N = data.draw(st.integers(1, L_K - 1))
    last = L_K - 1 - N
    seam = cons.heights(params, K - 1).L(K - 1) - N if K > stage else -1
    start = data.draw(st.integers(0, last) | st.sampled_from([s for s in (last, seam) if s >= 0]))
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=L_j, max_size=L_j))
    word = tower.build_labels(params, stage, K + 1)[start + 1 : start + N + 1]
    want = sum(coeffs[a] * MU_DIRECT[i] for i, a in enumerate(word.tolist(), 1) if a >= 0)
    res = sarnak.mobius_weighted_sum(params, sarnak.Observable(stage, tuple(coeffs)), start, N)
    assert res.final == want


def restacked(params, j, K, base, fill):
    """The whole stage-K word by one plain ``build_word`` restack."""
    stages = params.stage_range(j, K - 1)
    fills = (-np.arange(j, K) if fill is None else np.full(K - j, fill)).astype(np.int64)
    return _kernels.build_word(
        base, np.array([x.r for x in stages], dtype=np.int64),
        np.array([v for x in stages for v in x.s], dtype=np.int64),
        np.cumsum([0] + [x.r for x in stages[:-1]], dtype=np.int64),
        fills, cons.heights(params, K).L(K))


@settings(max_examples=80, deadline=None)
@given(CONSTRUCTIONS, st.integers(1, 3), st.sampled_from([1, 2, 4]), st.booleans(),
       st.sampled_from([(tower.STAGE_WORD_MAX, tower.STAGE_COPY_MIN), (40, 1), (40, 30)]),
       st.data())
def test_decoded_cut_matches_the_word(params, j, step, values, caps, data):
    # every step-th entry of [lo, hi), decoded from one stage word once hi
    # is past the cap (the real caps; a small one that takes the walk
    # through many stages; and one whose short stage words make the
    # decoder build the next), equals the plain restack: the label word,
    # or int8 values with spacers 0. lo and hi lie at stage seams +-1, at
    # multiples of the cap +-1, or anywhere.
    # 20 explicit stages reach past either word length
    cap, copy_min = caps
    deepest, longest = j, max(3 * cap, 20_000)
    while cons.heights(params, deepest + 1).L(deepest + 1) <= longest:
        deepest += 1
    K = data.draw(st.integers(j, deepest))
    table = cons.heights(params, K)
    L_j, L_K = table.L(j), table.L(K)
    seams = [table.L(m) + e for m in range(j, K + 1) for e in (-1, 0, 1)]
    seams += [cap * t + e for t in range(1, L_K // cap + 1) for e in (-1, 0, 1)]
    hi = data.draw(st.sampled_from([h for h in seams if 0 <= h <= L_K]) | st.integers(0, L_K))
    lo = data.draw(st.sampled_from([0, hi, *(x for x in seams if 0 <= x <= hi)])
                   | st.integers(0, hi))
    base = fill = None
    if values:
        base, fill = (np.arange(L_j) % 7 - 3).astype(np.int8), 0
    word = restacked(params, j, K, np.arange(L_j, dtype=np.int64) if base is None else base, fill)
    want = word[lo:hi:step]
    if base is None:
        assert np.array_equal(tower.build_labels(params, j, K)[lo:hi:step], want)
    built, build_word = [], _kernels.build_word

    def spy(*args):
        built.append(args[5])
        return build_word(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "build_word", spy)
        mp.setattr(tower, "STAGE_WORD_MAX", cap)
        mp.setattr(tower, "STAGE_COPY_MIN", copy_min)
        cut = tower._cut(params, j, K, lo, hi, base, fill)
        decode = tower._decoder(params, j, K, hi, base, fill)
        read = decode(lo, hi, step)
        assert read.dtype == word.dtype and np.array_equal(read, want)
        # a read after another of the whole word: the decoder's one buffer
        # holds the last read
        decode(0, hi)
        again = decode(lo, hi, step)
    assert cut.dtype == word.dtype and np.array_equal(cut, word[lo:hi])
    assert not cut.flags.writeable
    assert again.dtype == word.dtype and np.array_equal(again, want)
    if j == K:  # no stage restacks the base word: it is read in place
        assert built == []
        if base is not None and lo < hi:
            assert np.shares_memory(cut, base) and np.shares_memory(again, base)
    elif hi > cap:  # the last stage word within the cap (the base word when
        # that is longer), or the next one, cut at hi, when it is too short
        c = max((m for m in range(j, K) if m == j or table.L(m) <= cap), default=j)
        if table.L(c) < copy_min:
            c += 1
        else:
            assert table.L(c) <= max(cap, L_j)
        assert built == [min(hi, table.L(c))] * 2
    else:  # built whole, as far as hi
        assert built == [hi, hi]


@pytest.mark.parametrize("start_parity, N_parity", [(0, 0), (0, 1), (1, 0), (1, 1)])
@settings(max_examples=15, deadline=None)
@given(CONSTRUCTIONS, st.integers(1, 3), st.data())
def test_weighted_sum_at_odd_and_even_start_and_N(start_parity, N_parity, params, stage, data):
    # every checkpoint against a direct sum over the label word, with the
    # parities of start and N fixed, so the reads of the odd times and of
    # the times 4k + 2 start on either parity of the word
    L_j = cons.heights(params, stage).L(stage)
    start = 2 * data.draw(st.integers(0, 300)) + start_parity
    N = 2 * data.draw(st.integers(1, (MAX_ORBIT - 602) // 2)) - N_parity
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=L_j, max_size=L_j))
    res = sarnak.mobius_weighted_sum(params, sarnak.Observable(stage, tuple(coeffs)), start, N)
    K = tower.orbit_depth(params, stage, start, N)
    word = tower.build_labels(params, stage, K, start + N + 1)[start + 1 :].tolist()
    running = np.cumsum([coeffs[a] * MU_DIRECT[i] if a >= 0 else 0
                         for i, a in enumerate(word, 1)])
    assert [s for _, s in res.checkpoints] == [int(running[n - 1]) for n, _ in res.checkpoints]


def test_word_length_guard():
    # the guard counts the entries a cut builds, not L_K
    with pytest.raises(ValueError, match="^stage-40 word cut at .* in-memory limit$"):
        tower.build_labels(cons.chacon(), 1, 40)
    assert cons.heights(cons.chacon(), 17).L(17) > tower.MAX_WORD_LENGTH
    assert np.array_equal(tower.build_labels(cons.chacon(), 1, 17, 13),
                          tower.build_labels(cons.chacon(), 1, 3))
