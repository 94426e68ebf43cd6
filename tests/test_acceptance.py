"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines.
"""

import filecmp
import io
import json
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from rankone import cli
from rankone import construction as cons
from rankone import _kernels, limits, mobius, sarnak, tower

PRESET_NAMES = ["odometer2", "odometer3", "chacon", "flat3", "class4"]

CHACON_13 = ["b", "b", "sp", "b", "b", "b", "sp", "b", "sp", "b", "b", "sp", "b"]


def ok(num, text):
    print(f"ACCEPTANCE {num:02d} PASS - {text}")


def test_c01_height_recursion_exact():
    t0 = time.perf_counter()
    all_params = [cons.preset(n) for n in PRESET_NAMES]
    all_params += [
        cons.ConstructionParams.random_bounded(seed % 3, 5, 4, seed=seed)
        for seed in range(20)
    ]
    for params in all_params:
        table = cons.heights(params, 30)
        for j in range(1, 30):
            st = params.stage(j)
            assert table.L(j + 1) == table.L(j) * st.r + sum(st.s)
    chacon_table = cons.heights(cons.chacon(), 5)
    assert chacon_table.levels == (1, 4, 13, 40, 121)
    assert all(
        cons.heights(cons.chacon(), 30).L(j) == (3**j - 1) // 2
        for j in range(1, 31)
    )
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    ok(1, f"height recursion exact through j=30 for 25 constructions "
          f"({elapsed:.2f}s < 1s)")


def test_c02_label_words():
    t0 = time.perf_counter()
    m3 = tower.build_labels(cons.chacon(), 1, 3)
    got = ["b" if v == 0 else "sp" for v in m3]
    assert got == CHACON_13
    for name in PRESET_NAMES:
        params = cons.preset(name)
        prev = tower.build_labels(params, 1, 1)
        for K in range(2, 13):
            cur = tower.build_labels(params, 1, K)
            assert np.array_equal(cur[: len(prev)], prev)
            prev = cur
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    ok(2, f"chacon 13-letter word exact; prefix embedding through K=12 "
          f"({elapsed:.2f}s < 5s)")


def test_c03_measure_preservation():
    t0 = time.perf_counter()
    for name in PRESET_NAMES:
        params = cons.preset(name)
        K = cons.first_stage_reaching(params, 10_000, start=2)
        word = tower.build_labels(params, 2, K)
        nu = _kernels.class_counts(word, cons.heights(params, 2).L(2)) / len(word)
        for n in range(-50, 51):
            mat = tower.correlation_matrix(params, 2, K, n)
            rows = mat.counts.sum(axis=1) / mat.total
            assert np.all(np.abs(rows - nu) <= abs(n) / len(word) + 1e-15)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    ok(3, f"measure preservation within |n|/L_K for all presets, |n|<=50 "
          f"({elapsed:.1f}s < 30s)")


def test_c04_correlation_depth_stability():
    rng = np.random.default_rng(7)
    for name in PRESET_NAMES:
        params = cons.preset(name)
        K = cons.first_stage_reaching(params, 10_000, start=2)
        n_classes = cons.heights(params, 2).L(2) + 1
        for _ in range(10):
            n = int(rng.integers(-120, 121))
            a = int(rng.integers(0, n_classes))
            b = int(rng.integers(0, n_classes))
            m1 = tower.correlation_matrix(params, 2, K, n)
            m2 = tower.correlation_matrix(params, 2, K + 2, n)
            gap = abs(m1.values[a, b] - m2.values[a, b])
            assert gap <= m1.error_bound + m2.error_bound
    ok(4, "correlation entries stable between depths K and K+2 "
          "(10 random triples per preset)")


def assert_fit_constraints(poly):
    assert all(a >= -1e-9 for a in poly.coeffs.values())
    assert poly.theta >= -1e-9
    assert abs(sum(poly.coeffs.values()) + poly.theta - 1) <= 1e-6


def test_c05_fit_constraints():
    for name in PRESET_NAMES:
        params = cons.preset(name)
        Z = 4
        j = limits.auto_ref_stage(params, Z)
        K = cons.first_stage_reaching(params, 10_000, start=j)
        poly = limits.fit_for_shift(params, j, K, 0, Z=Z)
        tail = tower.tail_bound(params, K)
        assert poly.a(0) >= 1 - tail - 1e-6
        assert_fit_constraints(poly)
        assert_fit_constraints(limits.fit_for_shift(params, j, K, -37, Z=Z))
    ok(5, "fit constraints: a_z >= -1e-9, |sum+theta-1| <= 1e-6, "
          "n=0 recovers a0 >= 1-tail(K)")


def test_c06_odometer_limit():
    res = limits.weak_limit(cons.odometer(2), 1)
    assert_fit_constraints(res.polynomial)
    assert res.polynomial.a(0) >= 0.9
    assert res.stability_gap <= 0.02
    ok(6, f"odometer(2) weak limit: a0={res.polynomial.a(0):.4f} >= 0.9, "
          f"gap={res.stability_gap:.2g} <= 0.02")


def test_c07_chacon_identity_component():
    res = limits.weak_limit(cons.chacon(), 1)
    assert_fit_constraints(res.polynomial)
    assert res.polynomial.a(0) >= 0.25
    assert res.polynomial.fit_residual <= 0.05
    assert res.stability_gap <= 0.02
    ok(7, f"chacon weak limit: a0={res.polynomial.a(0):.4f} >= 0.25, "
          f"residual={res.polynomial.fit_residual:.2g} <= 0.05, "
          f"gap={res.stability_gap:.2g} <= 0.02")


def test_c08_similarity_unit_suite():
    def poly(coeffs, theta=0.0):
        return limits.LimitPolynomial(coeffs=dict(coeffs), theta=theta, fit_residual=0.0)

    Q = poly({0: 0.5, 3: 0.5})
    assert limits.is_pq_similar(Q, poly({0: 0.5, 2: 0.5}), 2, 3).similar
    assert not limits.is_pq_similar(Q, poly({0: 0.5, 3: 0.5}), 2, 3).similar
    # coefficient gaps on either side of COEFF_TOL = 0.02
    assert limits.is_pq_similar(Q, poly({0: 0.515, 2: 0.485}), 2, 3).similar
    assert not limits.is_pq_similar(Q, poly({0: 0.525, 2: 0.475}), 2, 3).similar

    rng = random.Random(42)
    for _ in range(100):
        p, q = rng.choice([(2, 3), (3, 4), (2, 5), (5, 7), (4, 9), (1, 3)])
        support = rng.sample(range(-3, 4), k=rng.randint(1, 5))
        weights = [rng.random() + 0.01 for _ in support]
        theta = rng.random() * 0.4
        total = sum(weights) + theta
        R = {r: w / total for r, w in zip(support, weights)}
        Qr = poly({q * r: a for r, a in R.items()}, theta / total)
        Pr = poly({p * r: a for r, a in R.items()}, theta / total)
        fwd = limits.is_pq_similar(Qr, Pr, p, q)
        bwd = limits.is_pq_similar(Pr, Qr, q, p)
        assert fwd.similar == bwd.similar == True  # noqa: E712
        assert fwd.max_coeff_gap <= 1e-9 and bwd.max_coeff_gap <= 1e-9
        for r, a in R.items():
            assert abs(fwd.witness[r] - a) <= 1e-9
    ok(8, "similarity unit trio exact; symmetry and witness recovery on "
          "100 randomized instances (tol 1e-9)")


def test_c09_disjointness_certificates():
    t0 = time.perf_counter()
    for (p, q) in [(2, 3), (3, 4), (2, 5)]:
        verdict = limits.disjointness_certificate(cons.chacon(), p, q)
        assert verdict.verdict is limits.Verdict.EVIDENCE_DISJOINT, (
            f"chacon ({p},{q}): {verdict.diagnostics()}"
        )
    odo = limits.disjointness_certificate(cons.odometer(2), 2, 3)
    assert odo.verdict is not limits.Verdict.EVIDENCE_DISJOINT
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    ok(9, f"chacon (2,3),(3,4),(2,5) EvidenceDisjoint; odometer(2) "
          f"{odo.verdict.value} ({elapsed:.1f}s < 120s)")


def test_c10_cascade_consistency():
    tau = limits.SUPPORT_TAU

    flat_fit = limits.weak_limit(cons.flat3(), 1)
    flat_cascade = limits.divisibility_cascade(flat_fit.polynomial.support(tau), 2, 2)
    flat_rep = limits.flatness_consequence(cons.flat3(), flat_fit.stages, 2, flat_cascade, 2)
    assert flat_rep.consistent and flat_rep.all_flat

    ch_fit = limits.weak_limit(cons.chacon(), 1)
    ch_cascade = limits.divisibility_cascade(ch_fit.polynomial.support(tau), 2, 2)
    assert ch_cascade == 0  # halts before m=1
    ch_rep = limits.flatness_consequence(cons.chacon(), ch_fit.stages, 2, ch_cascade, 2)
    assert ch_rep.consistent
    assert ch_rep.max_abs_diff == 1

    diff4 = cons.ConstructionParams.periodic(
        0, [cons.StageParams(3, (0, 4, 0))], name="diff4"
    )
    stages = limits.weak_limit(diff4, 1).stages
    cascade = limits.divisibility_cascade({0, 4}, 2, 2)
    rep = limits.flatness_consequence(diff4, stages, 2, cascade, 2)
    assert cascade == 2 and rep.consistent
    over = limits.divisibility_cascade({0, 8}, 2, 3)
    assert not limits.flatness_consequence(diff4, stages, 2, over, 3).consistent
    ok(10, "cascade/parameter consistency on the fitted stages of flat3, chacon "
           "(halts at m=0) and the difference-4 construction (holds through m=2)")


def test_c11_mobius_kernel():
    t0 = time.perf_counter()
    mu_small = mobius.sieve_mobius(10_000)
    assert all(mu_small[n] == mobius.mobius_direct(n) for n in range(1, 10_001))
    mu = mobius.sieve_mobius(10**6)
    mertens = int(mu.sum())  # mu[0] is 0
    assert abs(mertens) / 10**6 <= 0.01
    for p in (2, 3):
        rm = int(mu[p::p].sum(dtype=np.int64))  # sum of mu(p*i), p*i <= 1e6
        assert abs(rm) * p / 10**6 <= 0.01
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    ok(11, f"sieve == factorization oracle to 1e4; |M(1e6)|/1e6 = "
           f"{abs(mertens) / 1e6:.2g} <= 0.01; residue Mertens bounded "
           f"({elapsed:.1f}s < 10s)")


def test_c12_telescoping_exact():
    for d in (2, 3, 5):
        params = cons.cyclic_factor_preset(d)  # class4 preset when d=2
        K = cons.first_stage_reaching(params, 21_000)
        L = cons.heights(params, K).L(K)
        rng = random.Random(100 + d)
        for _ in range(100):
            levels = [i for i in range(0, L, d) if rng.random() < 0.2]
            obs = sarnak.Observable.indicator(params, K, levels)
            N = rng.randint(10, 10_000)
            start = d * rng.randint(0, (L - N - 2) // d)
            res = sarnak.telescope_identity_check(params, obs, d, start, N)
            assert res.s_n == res.steps[0].term + res.remainder and res.identity_holds
    ok(12, "telescoping identity exact (integer arithmetic) for "
           "d in {2,3,5}, 100 randomized observables each, N <= 1e4")


def test_c13_factor_cyclicity():
    params = cons.class4()
    K = cons.first_stage_reaching(params, 10_000)
    d = sarnak.compact_factor(params, 30, K)
    assert d == 2
    L = cons.heights(params, K).L(K)
    assert L >= 10_000
    # T steps one position along the word, so a cyclic factor puts stage-K
    # level l only at positions = l mod d, across both restackings K, K+1
    word = tower.build_labels(params, K, K + 2)
    pos = np.flatnonzero(word >= 0)
    assert len(pos) == 4 * L  # r_K * r_{K+1} copies of the stage-K tower
    assert np.all((word[pos] - pos) % d == 0)
    for j in range(1, K + 2):
        for off in cons.column_offsets(params, j):
            assert off % 2 == 0
    ok(13, f"class4 stage-{K} level labels = position mod 2 over the "
           f"{len(word)}-entry stage-{K + 2} word; all column offsets even")


def test_c14_decay_trend():
    params = cons.chacon()
    obs = sarnak.Observable.indicator(params, 1, [0])
    res = sarnak.mobius_weighted_sum(params, obs, 0, 10**5)
    by_n = dict(res.checkpoints)
    rate_1e3 = abs(by_n[1000]) / 1000
    rate_1e5 = abs(by_n[100_000]) / 100_000
    assert rate_1e5 <= 0.05
    assert rate_1e5 < rate_1e3
    ok(14, f"decay trend: |S_N|/N = {rate_1e5:.2g} at N=1e5 "
           f"<= 0.05 and < {rate_1e3:.2g} at N=1e3")


def test_c15_cli_determinism(tmp_path):
    configs = [
        {"construction": {"preset": "chacon"}, "command": "heights",
         "params": {"J": 12}},
        {"construction": {"preset": "chacon"}, "command": "classify",
         "params": {}},
        {"construction": {"h1": 0, "stages": {"kind": "random", "r_max": 4,
                                              "s_max": 3, "seed": 9}},
         "command": "labels", "params": {"j": 1, "K": 5, "max_rows": 200}},
        {"construction": {"preset": "flat3"}, "command": "correlate",
         "params": {"j": 2, "n": 5, "K": 8}},
        {"construction": {"preset": "chacon"}, "command": "weak-limit",
         "params": {"max_shift": 200}},
        {"construction": {"preset": "chacon"}, "command": "similarity",
         "params": {"Q": {"coeffs": {"0": 0.5, "3": 0.5}, "theta": 0},
                    "P": {"coeffs": {"0": 0.5, "2": 0.5}, "theta": 0},
                    "p": 2, "q": 3}},
        {"construction": {"preset": "chacon"}, "command": "disjointness",
         "params": {"p": 2, "q": 3, "max_shift": 400}},
        {"construction": {"preset": "class4"}, "command": "cascade",
         "params": {"p": 2, "levels": 2, "max_shift": 400}},
        {"construction": {"preset": "chacon"}, "command": "mobius-sum",
         "params": {"N": 10_000}},
        {"construction": {"preset": "class4"}, "command": "telescope",
         "params": {"d": 2, "N": 500}},
        {"construction": {"preset": "class4"}, "command": "factor",
         "params": {"K": 13}},
    ]
    n_files = 0
    for i, obj in enumerate(configs):
        cfg = cli.parse_config_dict(obj)
        dirs = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{i}_{attempt}"
            code = cli.run(
                cli.RunConfig(cfg.construction, cfg.command, cfg.params,
                              str(out)),
                stream=io.StringIO(),
            )
            assert code == 0, f"config {i} ({cfg.command}) failed"
            dirs.append(out)
        files_a = sorted(p.name for p in dirs[0].iterdir())
        files_b = sorted(p.name for p in dirs[1].iterdir())
        assert files_a == files_b and files_a
        for name in files_a:
            assert filecmp.cmp(dirs[0] / name, dirs[1] / name, shallow=False), (
                f"{cfg.command}/{name} differs between runs"
            )
            n_files += 1
    ok(15, f"byte-identical CSV outputs across repeated runs "
           f"({n_files} files over {len(configs)} commands)")
