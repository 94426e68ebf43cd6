import math
import random

import numpy as np
import pytest

from rankone import _kernels, limits, tower
from rankone import construction as cons


def chacon_fit(n, Z=8, j=4, K=10):
    return limits.fit_for_shift(cons.chacon(), j, K, n, Z)


# ------------------------------------------------------------------ fits

def test_zero_shift_fit_recovers_identity():
    params = cons.chacon()
    poly = limits.fit_for_shift(params, 2, 9, 0, Z=4)
    assert poly.a(0) >= 1 - tower.tail_bound(params, 9) - 1e-6
    assert poly.fit_residual <= tower.tail_bound(params, 9) + 1e-9


def test_synthetic_theta_target():
    params = cons.chacon()
    j, K, Z = 2, 9, 3
    model = tower.build_labels(params, j, K)
    measures = model.class_counts() / model.length
    basis = {z: tower.correlation_matrix(params, j, K, z) for z in range(-Z, Z + 1)}
    synthetic = tower.CorrelationMatrix(
        stage=j, shift=999, depth=K,
        counts=np.outer(measures, measures) * model.length,
        total=model.length, error_bound=0.0,
    )
    poly = limits.fit_limit_polynomial(synthetic, basis, measures, Z)
    assert poly.theta >= 0.999
    assert poly.fit_residual <= 1e-6


def test_deep_odometer_shift_is_identity():
    # T^{-L_6} fixes stage-3 levels; aliasing of shifts modulo the word
    # period forces the small window Z=1 here
    params = cons.odometer(2)
    L6 = cons.heights(params, 6).L(6)
    for K in (10, 12):
        poly = limits.fit_for_shift(params, 3, K, -L6, Z=1)
        assert poly.a(0) >= 0.9


def test_fit_constraints_hold():
    for name in ("chacon", "class4", "flat3"):
        params = cons.preset(name)
        for n in (-25, 3, 40):
            poly = limits.fit_for_shift(params, 3, 10, n, Z=5)
            assert all(a >= -1e-9 for a in poly.coeffs.values())
            assert poly.theta >= -1e-9
            assert abs(poly.mass - 1) <= 1e-6


def test_fit_residual_monotone_in_window():
    r_small = chacon_fit(-40, Z=2).fit_residual
    r_large = chacon_fit(-40, Z=6).fit_residual
    assert r_large <= r_small + 1e-9


def test_fit_window_infeasible():
    params = cons.chacon()
    model = tower.build_labels(params, 1, 3)
    basis = {0: tower.correlation_matrix(params, 1, 3, 0)}
    measures = model.class_counts() / model.length
    target = tower.correlation_matrix(params, 1, 3, 1)
    with pytest.raises(ValueError):
        limits.fit_limit_polynomial(target, basis, measures, Z=13)


# ------------------------------------------------------------- sequences

def test_h_sequence_examples():
    w = limits.full_window(12)
    od = limits.h_sequence(cons.odometer(2), 1, 0, w, count=5)
    assert od == [-(2 ** (k - 1)) for k in range(1, 6)]
    ch1 = limits.h_sequence(cons.chacon(), 1, 0, w, count=4)
    table = cons.heights(cons.chacon(), 4)
    assert ch1 == [-table.L(j) for j in range(1, 5)]
    ch2 = limits.h_sequence(cons.chacon(), 2, 0, w, count=4)
    assert ch2 == [2 * n for n in ch1]


def test_h_sequence_offset_errors():
    w = cons.WindowSet((cons.Window(1, 3),))
    with pytest.raises(ValueError):
        limits.h_sequence(cons.chacon(), 1, 5, w)


def test_weak_limit_odometer():
    res = limits.weak_limit(cons.odometer(2), 1, 0)
    assert res.polynomial.a(0) >= 0.9
    assert res.stability_gap <= 0.02


def test_weak_limit_chacon_identity_component():
    res = limits.weak_limit(cons.chacon(), 1, 0)
    assert res.polynomial.a(0) >= 0.25
    assert res.polynomial.fit_residual <= 0.05
    assert res.stability_gap <= 0.02
    assert abs(res.polynomial.mass - 1) <= 1e-6


# ------------------------------------------------------------ similarity

def poly(coeffs, theta=0.0):
    window = max((abs(z) for z in coeffs), default=0)
    return limits.LimitPolynomial(window=window, coeffs=dict(coeffs),
                                  theta=theta, fit_residual=0.0)


def test_similarity_trivial_examples():
    Q = poly({0: 0.5, 3: 0.5})
    P = poly({0: 0.5, 2: 0.5})
    verdict = limits.is_pq_similar(Q, P, 2, 3)
    assert verdict.similar
    assert verdict.witness == {0: 0.5, 1: 0.5}

    P_same = poly({0: 0.5, 3: 0.5})
    assert not limits.is_pq_similar(Q, P_same, 2, 3).similar

    P_gap = poly({0: 0.25, 2: 0.75})
    verdict = limits.is_pq_similar(Q, P_gap, 2, 3, tol=0.01)
    assert not verdict.similar
    assert verdict.max_coeff_gap == pytest.approx(0.25)


def test_similarity_requires_coprime():
    with pytest.raises(ValueError):
        limits.is_pq_similar(poly({0: 1.0}), poly({0: 1.0}), 2, 4)


def random_witness_instance(rng):
    p, q = rng.choice([(2, 3), (3, 4), (2, 5), (5, 7), (1, 2), (3, 5)])
    support = rng.sample(range(-3, 4), k=rng.randint(1, 4))
    weights = [rng.random() + 0.05 for _ in support]
    theta = rng.random() * 0.3
    total = sum(weights) + theta
    R = {r: w / total for r, w in zip(support, weights)}
    theta /= total
    Q = poly({q * r: a for r, a in R.items()}, theta)
    P = poly({p * r: a for r, a in R.items()}, theta)
    return Q, P, p, q, R


def test_similarity_recovers_witness_and_is_symmetric():
    rng = random.Random(5)
    for _ in range(60):
        Q, P, p, q, R = random_witness_instance(rng)
        forward = limits.is_pq_similar(Q, P, p, q, tol=1e-9)
        backward = limits.is_pq_similar(P, Q, q, p, tol=1e-9)
        assert forward.similar and backward.similar
        for r, a in R.items():
            assert forward.witness[r] == pytest.approx(a, abs=1e-12)


# ----------------------------------------------------------- certificate

def test_certificate_argument_checks():
    ch = cons.chacon()
    with pytest.raises(ValueError):
        limits.disjointness_certificate(ch, 2, 2)
    with pytest.raises(ValueError):
        limits.disjointness_certificate(ch, 2, 4)
    with pytest.raises(ValueError):
        limits.disjointness_certificate(ch, 0, 3)


def test_certificate_odometer_never_disjoint():
    verdict = limits.disjointness_certificate(cons.odometer(2), 2, 3)
    assert verdict.verdict is not limits.Verdict.EVIDENCE_DISJOINT
    assert verdict.similarity.similar
    # both limits are essentially the identity
    assert verdict.q_result.polynomial.a(0) >= 0.9
    assert verdict.p_result.polynomial.a(0) >= 0.9


def test_certificate_soundness_when_similar():
    # hand the certificate a construction whose fits coincide: p=1, q=2
    # on the odometer gives similar identity-like limits
    verdict = limits.disjointness_certificate(cons.odometer(2), 1, 2)
    assert verdict.verdict is not limits.Verdict.EVIDENCE_DISJOINT


def test_correlations_build_no_long_word(monkeypatch):
    built = []
    build_word = _kernels.build_word

    def spy(*args):
        built.append(args[5])
        return build_word(*args)

    monkeypatch.setattr(_kernels, "build_word", spy)
    params = cons.chacon()
    K = cons.first_stage_reaching(params, 10**6, 2)
    L_K = cons.heights(params, K).L(K)
    limits.fit_for_shift(params, 2, K, 4920)
    limits.disjointness_certificate(
        params, 2, 3, policy=limits.DepthPolicy(min_levels=L_K)
    )
    assert built and max(built) <= L_K // 50


# ------------------------------------------------------- mix and cascade

def test_match_identity_mix_examples():
    got = limits.match_identity_mix(poly({0: 0.9}, theta=0.1), 2)
    assert got is not None
    assert got.epsilon == pytest.approx(0.05)
    assert got.mix.theta == pytest.approx(1.0)

    assert limits.match_identity_mix(poly({0: 1.0}), 3) is None

    got = limits.match_identity_mix(poly({0: 0.4, 2: 0.6}), 3)
    assert got.epsilon == pytest.approx(0.2)
    assert got.mix.coeffs[2] == pytest.approx(1.0)
    assert got.mix.theta == pytest.approx(0.0)


def test_divisibility_cascade_examples():
    res = limits.divisibility_cascade([{0, 2, 4}, {0, 4}], 2)
    assert res.max_level == 2 and res.holds == (True, True)
    res = limits.divisibility_cascade([{0, 3}], 2)
    assert res.max_level == 0
    res = limits.divisibility_cascade([{0, 2}, {0, 2}], 2)
    assert res.max_level == 1 and res.holds == (True, False)
    with pytest.raises(ValueError):
        limits.divisibility_cascade([], 2)
    with pytest.raises(ValueError):
        limits.divisibility_cascade([{0}], 1)


def test_flatness_consequence_flat3():
    w = limits.full_window(24)
    cascade = limits.divisibility_cascade(
        [limits.SupportSet(m, frozenset({0}), 0.02) for m in (1, 2, 3)], 2
    )
    rep = limits.flatness_consequence(cons.flat3(), w, 2, cascade)
    assert rep.consistent and rep.all_flat
    assert all(row.params_divide for row in rep.rows)


def test_flatness_consequence_chacon_halts():
    w = limits.full_window(24)
    cascade = limits.divisibility_cascade([{0, 1}], 2)
    assert cascade.max_level == 0
    rep = limits.flatness_consequence(cons.chacon(), w, 2, cascade)
    assert rep.consistent  # nothing certified, nothing contradicted
    assert rep.rows[0].max_abs_diff == 1
    assert not rep.rows[0].params_divide


def test_flatness_consequence_difference_four():
    diff4 = cons.ConstructionParams.periodic(
        0, [cons.StageParams(3, (0, 4, 0))], name="diff4"
    )
    w = limits.full_window(24)
    ok = limits.divisibility_cascade([{0, 2}, {0, 4}], 2)
    rep = limits.flatness_consequence(diff4, w, 2, ok)
    assert ok.max_level == 2 and rep.consistent

    over = limits.divisibility_cascade([{0, 2}, {0, 4}, {0, 8}], 2)
    assert over.max_level == 3
    rep2 = limits.flatness_consequence(diff4, w, 2, over)
    assert not rep2.consistent


def test_limit_polynomial_csv_rows():
    p = poly({-1: 0.25, 2: 0.75})
    rows = list(p.to_csv_rows())
    assert rows[0] == ("-1", repr(0.25))
    assert rows[-2][0] == "theta"
    assert rows[-1][0] == "residual"
