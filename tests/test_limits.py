import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    word = tower.build_labels(params, j, K)
    measures = _kernels.class_counts(word, cons.heights(params, j).L(j)) / len(word)
    basis = {z: tower.correlation_matrix(params, j, K, z) for z in range(-Z, Z + 1)}
    synthetic = tower.CorrelationMatrix(
        stage=j, shift=999, depth=K,
        counts=np.outer(measures, measures) * len(word),
        total=len(word), tail=0.0,
    )
    poly = limits.fit_limit_polynomial(synthetic, basis, measures)
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
    word = tower.build_labels(params, 1, 3)
    basis = {0: tower.correlation_matrix(params, 1, 3, 0)}
    measures = _kernels.class_counts(word, 1) / len(word)
    target = tower.correlation_matrix(params, 1, 3, 1)
    # a basis shift as long as the word: the window is its largest |z|
    with pytest.raises(ValueError, match="basis window 13 infeasible"):
        limits.fit_limit_polynomial(target, {**basis, 13: basis[0]}, measures)
    with pytest.raises(ValueError, match="must be >= 0"):
        limits.fit_for_shift(params, 1, 3, 1, Z=-1)


@pytest.mark.parametrize("name", ["chacon", "flat3", "odometer2"])
def test_depth_policy_depth(name):
    params = cons.preset(name)
    for n in (0, 1, -7, 40, 1000, -20_000):
        for j in (2, 16):
            K = limits.depth(params, n, j)
            need = max(10_000, 200 * abs(n))
            assert K >= j and cons.heights(params, K).L(K) >= need
            assert K == j or cons.heights(params, K - 1).L(K - 1) < need


def projected_gradient_fit(G, b):
    """The projected-gradient solver the active set replaced: steps of
    1/Lipschitz projected onto the simplex until the objective improves
    by less than 1e-10 (at most 10 000), then an exact solve on the
    support, kept only when feasible and no worse."""
    def project(v):
        u = np.sort(v)[::-1]
        css = np.cumsum(u) - 1.0
        rho = np.nonzero(u - css / np.arange(1, v.shape[0] + 1) > 0)[0][-1]
        return np.maximum(v - css[rho] / (rho + 1), 0.0)

    def obj(v):
        return float(v @ gram @ v - 2.0 * gtb @ v)

    gram, gtb = G.T @ G, G.T @ b
    lipschitz = 2.0 * float(np.linalg.eigvalsh(gram)[-1])
    step = 1.0 / lipschitz if lipschitz > 0 else 1.0
    x = np.full(G.shape[1], 1.0 / G.shape[1])
    prev = float("inf")
    for _ in range(10_000):
        x = project(x - step * 2.0 * (gram @ x - gtb))
        if prev - obj(x) < 1e-10:
            break
        prev = obj(x)
    support = np.nonzero(x > 1e-12)[0]
    k = support.size
    kkt = np.zeros((k + 1, k + 1))
    kkt[:k, :k] = 2.0 * gram[np.ix_(support, support)]
    kkt[:k, k] = kkt[k, :k] = 1.0
    rhs = np.concatenate([2.0 * gtb[support], [1.0]])
    y = np.linalg.lstsq(kkt, rhs, rcond=None)[0][:k]
    if y.min() < -1e-10 or abs(y.sum() - 1.0) > 1e-9:
        return x
    candidate = np.zeros_like(x)
    candidate[support] = np.maximum(y, 0.0) / np.maximum(y, 0.0).sum()
    return candidate if obj(candidate) <= obj(x) + 1e-15 else x


def active_set_fit(A):
    """The Lawson-Hanson active set that block pivoting replaced, as it
    was: minimiser x of ||x.A[:-1] - A[-1]||^2 over the simplex, with
    its Frank-Wolfe gap."""
    products = A @ A.T
    gram, gtb = products[:-1, :-1], products[:-1, -1]
    n = gtb.shape[0]
    kkt = np.ones((n + 1, n + 1))
    kkt[:n, :n] = 2.0 * gram
    kkt[n, n] = 0.0
    rhs = np.append(2.0 * gtb, 1.0)
    free = np.ones(n, dtype=bool)
    x = np.full(n, 1.0 / n)
    seen = set()
    while True:
        face = np.flatnonzero(free)
        rows = np.append(face, n)
        y = np.zeros(n)
        try:
            y[face] = np.linalg.solve(kkt[rows][:, rows], rhs[rows])[:-1]
        except np.linalg.LinAlgError:
            last, rest = A[face[-1]], face[:-1]
            y[rest] = np.linalg.lstsq((A[rest] - last).T, A[-1] - last, rcond=None)[0]
            y[face[-1]] = 1.0 - y[rest].sum()
        blocking = np.flatnonzero(free & (y <= 0.0))
        if blocking.size:
            xb, yb = x[blocking], y[blocking]
            ratios = np.divide(xb, xb - yb, out=np.zeros_like(xb), where=xb > yb)
            x = x + ratios.min() * (y - x)
            x[blocking[ratios.argmin()]] = 0.0
            free &= x > 0.0
            x[~free] = 0.0
            continue
        x = y
        grad = 2.0 * (gram @ x - gtb)
        gap = float(grad @ x - grad.min())
        key = free.tobytes()
        if gap <= 1e-12 or key in seen:
            return x, gap
        seen.add(key)
        free[grad.argmin()] = True


def fit_matrix(target, basis, measures):
    """The fit's rows as they were stacked from copies: the basis C_z in
    key order, M_Theta, then the target, each counts / total (from zeros,
    so the M_Theta row divided before it is written holds no garbage)."""
    zs = sorted(basis)
    A = np.zeros((len(zs) + 2, target.counts.size))
    A[:-2] = [basis[z].counts.ravel() for z in zs]
    A[-1] = target.counts.ravel()
    A /= target.total
    A[-2] = np.outer(measures, measures).ravel()
    return A


def solved_fit(poly, A):
    """The solver's (x, gap) on the rows A, asserting that ``poly`` carries
    them bit for bit: the fit writes the same rows in place."""
    x, gap = limits._solve_simplex_qp(A)
    assert poly.optimality_gap == gap
    assert [*poly.coeffs.values(), poly.theta] == x.tolist()
    assert poly.fit_residual == float(np.linalg.norm(x @ A[:-1] - A[-1]))
    return x, gap


def assert_active_set_answer(x, gap, A):
    want_x, want_gap = active_set_fit(A)
    assert np.array_equal(x, want_x) and gap == want_gap


@st.composite
def fit_requests(draw):
    params = draw(st.one_of(
        st.sampled_from(sorted(cons.PRESETS)).map(cons.preset),
        st.builds(cons.ConstructionParams.random_bounded, st.integers(0, 3),
                  st.integers(2, 3), st.integers(0, 3), st.integers(0, 10**6)),
    ))
    j = draw(st.integers(1, 3))
    Z = draw(st.integers(1, 8))
    deep = [K for K in range(j, 40) if Z < cons.heights(params, K).L(K) <= 200_000]
    K = draw(st.sampled_from(deep))
    L = cons.heights(params, K).L(K)
    return params, j, K, draw(st.integers(1 - L, L - 1)), Z


@settings(max_examples=60, deadline=None)
@given(fit_requests())
# an exact fit, where every variable could enter at no cost
@example((cons.chacon(), 2, 3, 3, 5))
# six variables on 2x2 matrices: a segment of optima
@example((cons.ConstructionParams.random_bounded(0, 2, 1, 125), 1, 7, 3, 2))
def test_active_set_fit_is_optimal(request):
    params, j, K, n, Z = request
    window = range(-Z, Z + 1)
    mats = tower.correlation_matrices(params, j, K, [n, *window])
    measures = np.diag(mats[0].counts) / mats[0].total
    basis = {z: mats[z] for z in window}
    poly = limits.fit_limit_polynomial(mats[n], basis, measures)
    A = fit_matrix(mats[n], basis, measures)
    x, gap = solved_fit(poly, A)
    if np.linalg.matrix_rank(A[:-1]) == len(x):
        # a unique optimum: the active set's x and gap, bit for bit. With
        # dependent rows (say 6 variables on a 2x2 matrix) the optimum is a
        # polytope, and each solver returns a point of it that its path sets
        assert_active_set_answer(x, gap, A)
    G = np.stack([mats[z].values.ravel() for z in window]
                 + [np.outer(measures, measures).ravel()], axis=1)
    b = mats[n].values.ravel()
    x = np.array([poly.a(z) for z in window] + [poly.theta])
    assert x.min() >= -1e-12 and abs(x.sum() - 1.0) <= 1e-12
    assert poly.optimality_gap <= 1e-12
    grad = 2.0 * G.T @ (G @ x - b)
    assert grad @ x - grad.min() <= 1e-12
    def objective(v):
        return float(np.sum((G @ v - b) ** 2))
    assert objective(x) <= objective(projected_gradient_fit(G, b)) + 1e-15
    assert poly.fit_residual == pytest.approx(math.sqrt(objective(x)), abs=1e-12)


def test_fit_terminates_on_a_singular_gram():
    # keys 1 and 2 carry the same matrix, so every face holding both has
    # a singular KKT system; fitting C_1, any split between them is optimal
    params = cons.chacon()
    mats = tower.correlation_matrices(params, 2, 9, [-1, 0, 1, 3])
    measures = np.diag(mats[0].counts) / mats[0].total
    basis = {-1: mats[-1], 0: mats[0], 1: mats[1], 2: mats[1]}
    for target in (mats[1], mats[3]):
        poly = limits.fit_limit_polynomial(target, basis, measures)
        A = fit_matrix(target, basis, measures)
        assert_active_set_answer(*solved_fit(poly, A), A)
        x = np.array([poly.a(z) for z in basis] + [poly.theta])
        assert x.min() >= 0.0 and abs(x.sum() - 1.0) <= 1e-12
        assert poly.optimality_gap <= 1e-12
    exact = limits.fit_limit_polynomial(mats[1], basis, measures)
    assert exact.a(1) + exact.a(2) == pytest.approx(1.0, abs=1e-12)
    assert exact.fit_residual <= 1e-12


def test_random_certificate_takes_few_face_solves(monkeypatch):
    # block pivoting exchanges every infeasible variable per KKT solve: the
    # six fits of this certificate took 86 solves when each solve dropped
    # or added one variable
    solve, calls = np.linalg.solve, []

    def counted(*args):
        calls.append(1)
        return solve(*args)

    monkeypatch.setattr(np.linalg, "solve", counted)
    params = cons.ConstructionParams.random_bounded(1, 3, 3, 5)
    verdict = limits.disjointness_certificate(params, 2, 3, max_shift=4000)
    assert verdict.verdict is limits.Verdict.INCONCLUSIVE
    assert 6 <= len(calls) <= 18


# ------------------------------------------------------------- sequences

def test_h_sequence_examples():
    # H_j = -2^(j-1) on the odometer and -L_j on chacon (s_min = 0); the
    # walk keeps the last three stages with L_ref <= |H_j| <= max_shift,
    # where L_ref = 32 (stage 6) on the odometer and 40 (stage 4) on chacon
    odometer = cons.odometer(2)
    for J in range(7, 10):
        last = [(j, -(2 ** (j - 1))) for j in range(max(6, J - 2), J + 1)]
        assert limits._select_stages(odometer, (1,), 2 ** (J - 1)) == (6, last)
        # an explicit list of J stages ends the walk at stage J
        listed = cons.ConstructionParams.explicit(0, odometer.stages * J)
        assert limits._select_stages(listed, (1,), 10**9) == (6, last)
    table = cons.heights(cons.chacon(), 7)
    for J in range(5, 8):
        last = range(max(4, J - 2), J + 1)
        ch = limits._select_stages(cons.chacon(), (1,), table.L(J))
        assert ch == (4, [(j, -table.L(j)) for j in last])
    # the largest multiplier scales |H_j| before the max_shift test:
    # 2*364 <= 728 < 2*1093; the smallest one before the reference test,
    # so stage 3 is admitted at 5*13 >= 40 but not at 2*13 or 3*13
    assert limits._select_stages(cons.chacon(), (2,), 728) == (4, [
        (j, -table.L(j)) for j in (4, 5, 6)])
    assert limits._select_stages(cons.chacon(), (2,), 727) == (4, [
        (j, -table.L(j)) for j in (4, 5)])
    assert limits._select_stages(cons.chacon(), (3, 1), 363) == (4, [
        (j, -table.L(j)) for j in (4, 5)])
    assert limits._select_stages(cons.chacon(), (5,), 605) == (4, [
        (j, -table.L(j)) for j in (3, 4, 5)])
    # chacon at max_shift 4 has only the stages of shifts -1 and -4, and at
    # (3, 2) and 300 only stage 4: 2*13 < 40 and 3*121 > 300
    for multipliers, max_shift in (((1,), 4), ((3, 2), 300)):
        with pytest.raises(ValueError, match="fewer than two admissible stages"):
            limits._select_stages(cons.chacon(), multipliers, max_shift)
    # a listed construction too short for a reference tower admits no stage
    short = cons.ConstructionParams.explicit(0, [cons.StageParams(2, (0, 0))])
    with pytest.raises(ValueError, match="fewer than two admissible stages: the listed "
                                         "stages build no reference tower"):
        limits._select_stages(short, (1,), 4)


#: a stage beyond this one has |H_j| >= L_j >= 2^40, above every drawn
#: max_shift, so the reference filter need read no further
LAST_FILTERED_STAGE = 40


def filtered_stages(params, multipliers, max_shift):
    """The reference stage j_ref, the first with 2Z+2 levels, and H_j of
    every stage j, through an explicit construction's last one, kept
    where L_{j_ref} <= k*|H_j| <= max_shift for every multiplier k; the
    last three of at least two."""
    top = (len(params.stages) if params.kind == "explicit"
           else LAST_FILTERED_STAGE)
    table = cons.heights(params, top + 1)  # a list of top stages builds L_{top+1}
    refs = [j for j in range(1, top + 2) if table.L(j) >= 2 * limits.Z + 2]
    if not refs:
        return None
    floor = table.L(refs[0])
    usable = [(j, -(table.L(j) + params.stage(j).s_min_first))
              for j in range(1, top + 1)]
    usable = [(j, h) for j, h in usable
              if all(floor <= -k * h <= max_shift for k in multipliers)]
    return (refs[0], usable[-3:]) if len(usable) >= 2 else None


_STAGE = st.integers(2, 4).flatmap(
    lambda r: st.lists(st.integers(0, 4), min_size=r, max_size=r).map(
        lambda s: cons.StageParams(r, tuple(s))))
CONSTRUCTIONS = st.one_of(
    st.builds(cons.ConstructionParams.periodic, st.integers(0, 3),
              st.lists(_STAGE, min_size=1, max_size=4)),
    st.builds(cons.ConstructionParams.explicit, st.integers(0, 3),
              st.lists(_STAGE, min_size=1, max_size=12)),
    st.builds(cons.ConstructionParams.random_bounded, st.integers(0, 3),
              st.integers(2, 4), st.integers(0, 4), st.integers(0, 10**6)),
)


@st.composite
def stage_selections(draw):
    params = draw(CONSTRUCTIONS)
    multipliers = draw(st.lists(st.integers(1, 6), min_size=1, max_size=2))
    max_shift = draw(st.integers(2, 23).flatmap(lambda e: st.integers(2**e, 2**(e + 1))))
    return params, multipliers, max_shift


@settings(max_examples=100, deadline=None)
@given(stage_selections())
def test_stage_walk_matches_the_filter(selection):
    expected = filtered_stages(*selection)
    if expected is None:
        with pytest.raises(ValueError, match="fewer than two admissible stages"):
            limits._select_stages(*selection)
    else:
        j_ref, walk = limits._select_stages(*selection)
        assert (j_ref, walk) == expected
        # every target moves each reference level out of the reference tower
        params, multipliers, _ = selection
        floor = cons.heights(params, j_ref).L(j_ref)
        assert all(floor <= -min(multipliers) * h for _, h in walk)


@settings(max_examples=100, deadline=None)
@given(CONSTRUCTIONS)
def test_return_height_strictly_decreases(params):
    # the walk may stop at the first stage beyond max_shift only because
    # |H_j| strictly increases with j
    top = len(params.stages) if params.kind == "explicit" else 30
    hs = [limits._return_height(params, j) for j in range(1, top + 1)]
    assert all(a > b for a, b in zip(hs, hs[1:]))


def test_weak_limit_odometer():
    res = limits.weak_limit(cons.odometer(2), 1)
    assert res.polynomial.a(0) >= 0.9
    assert res.stability_gap <= 0.02


def test_weak_limit_chacon_identity_component():
    res = limits.weak_limit(cons.chacon(), 1)
    assert res.stages == (5, 6, 7) and res.shifts == (-121, -364, -1093)
    assert res.ref_stage == 4
    assert res.polynomial.a(0) >= 0.25
    assert res.polynomial.fit_residual <= 0.05
    assert res.stability_gap <= 0.02
    assert abs(res.polynomial.mass - 1) <= 1e-6


# ------------------------------------------------------------ similarity

def poly(coeffs, theta=0.0):
    return limits.LimitPolynomial(coeffs=dict(coeffs), theta=theta, fit_residual=0.0)


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
    assert built and max(built) <= L_K // 50
    # a large max_shift takes every fit to L_K >= 200|n| >= 1e6
    built.clear()
    verdict = limits.disjointness_certificate(params, 2, 3, max_shift=200_000)
    shifts = verdict.q_result.shifts + verdict.p_result.shifts
    Ks = [limits.depth(params, n, verdict.q_result.ref_stage) for n in shifts]
    L_K = cons.heights(params, max(Ks)).L(max(Ks))
    assert min(cons.heights(params, k).L(k) for k in Ks) >= 10**6
    assert built and max(built) <= L_K // 50


# ------------------------------------------------ similarity and cascade

def test_similarity_reasons():
    Q, P = poly({0: 0.5, 3: 0.5}), poly({0: 0.5, 2: 0.5})
    bad_q, bad_p = poly({0: 0.5, 1: 0.5}), poly({0: 0.5, 3: 0.5})
    q_text = "supp(Q) not within 3Z: shifts [1]"
    # Q is checked first, so it is the one reported when both fail
    for q_poly, p_poly, reason in [(bad_q, P, q_text), (bad_q, bad_p, q_text),
                                   (Q, bad_p, "supp(P) not within 2Z: shifts [3]")]:
        verdict = limits.is_pq_similar(q_poly, p_poly, 2, 3)
        assert verdict.reason == reason
        assert not verdict.similar and verdict.witness is None
        assert verdict.max_coeff_gap == math.inf
    gap = limits.is_pq_similar(Q, poly({0: 0.25, 2: 0.75}), 2, 3, tol=0.01)
    assert gap.reason == "coefficient gap 0.25 exceeds tol 0.01"
    assert limits.is_pq_similar(Q, P, 2, 3).reason == "supports and coefficients match"


def holds_column(level, levels, p=2):
    """The cascade's per-m column of ``rows()``, on stages with no spacer
    difference."""
    return tuple(row[2] for row in
                 limits.flatness_consequence(cons.flat3(), (5,), p, level, levels).rows())


def test_divisibility_cascade_examples():
    res = limits.divisibility_cascade({0, 4, -8}, 2, 3)
    assert res == 2 and holds_column(res, 3) == (True, True, False)
    res = limits.divisibility_cascade([0, 3], 2, 2)
    assert res == 0 and holds_column(res, 2) == (False, False)
    res = limits.divisibility_cascade(iter([0, 9]), 3, 2)  # read once
    assert res == 2 and holds_column(res, 2, p=3) == (True, True)
    # an empty support would hold at every level
    with pytest.raises(ValueError, match=r"\(no coefficient above tau=0.02\) holds vacuously"):
        limits.divisibility_cascade(set(), 5, 2)
    with pytest.raises(ValueError):
        limits.divisibility_cascade({0}, 2, 0)
    with pytest.raises(ValueError):
        limits.divisibility_cascade({0}, 1, 1)


def test_flatness_consequence_flat3():
    cascade = limits.divisibility_cascade({0}, 2, 3)
    rep = limits.flatness_consequence(cons.flat3(), (5, 6, 7), 2, cascade, 3)
    assert rep.consistent and rep.all_flat
    assert all(row[3] for row in rep.rows())


def test_flatness_consequence_chacon_halts():
    cascade = limits.divisibility_cascade({0, 1}, 2, 1)
    assert cascade == 0
    rep = limits.flatness_consequence(cons.chacon(), (5, 6, 7), 2, cascade, 1)
    assert rep.consistent  # nothing certified, nothing contradicted
    [row] = rep.rows()
    assert row[4] == 1
    assert not row[3]


def test_flatness_consequence_difference_four():
    diff4 = cons.ConstructionParams.periodic(
        0, [cons.StageParams(3, (0, 4, 0))], name="diff4"
    )
    ok = limits.divisibility_cascade({0, 4}, 2, 2)
    rep = limits.flatness_consequence(diff4, (5, 6, 7), 2, ok, 2)
    assert ok == 2 and rep.consistent

    over = limits.divisibility_cascade({0, 8}, 2, 3)
    assert over == 3
    rep2 = limits.flatness_consequence(diff4, (5, 6, 7), 2, over, 3)
    assert not rep2.consistent
    assert [row[3] for row in rep2.rows()] == [True, True, False]


def test_flatness_consequence_reads_the_tail_window():
    # spacer difference 1 at stages 1..4 and 3 from stage 5 on; the check
    # reads the stages it is given, the tail of the walk a fit used
    stages = [cons.StageParams(3, (0, 1, 0))] * 4 + [cons.StageParams(3, (0, 3, 0))] * 8
    params = cons.ConstructionParams.explicit(0, stages)
    cascade = limits.divisibility_cascade({0}, 3, 2)
    late = limits.flatness_consequence(params, (5, 6, 7), 3, cascade, 2)
    assert [row[3] for row in late.rows()] == [True, False]
    assert {row[4] for row in late.rows()} == {3}
    across = limits.flatness_consequence(params, (4, 5), 3, cascade, 2)
    assert [row[3] for row in across.rows()] == [False, False]
    assert across.forced_flat_level == 2 and not across.consistent


def test_flatness_consequence_refuses_what_no_cascade_gives():
    # p = 1 would never pass the spacer bound, and a level past ``levels``
    # or below 0 is no cascade level
    for p, level, levels in [(1, 0, 2), (2, 3, 2), (2, -1, 2)]:
        with pytest.raises(ValueError, match="need p >= 2 and 0 <= level <= levels"):
            limits.flatness_consequence(cons.chacon(), (5, 6), p, level, levels)


#: shifts with large 2-, 3- and 5-adic valuations, 0 and negatives included
SHIFTS = st.builds(lambda u, a, b, c: u * 2**a * 3**b * 5**c, st.integers(-3, 3),
                   st.integers(0, 7), st.integers(0, 4), st.integers(0, 3))
SPACED_STAGES = st.builds(lambda r, s: cons.StageParams(r, tuple(s[:r])), st.integers(2, 4),
                          st.lists(st.integers(0, 12), min_size=4, max_size=4))


@settings(max_examples=200, deadline=None)
@given(support=st.frozensets(SHIFTS, min_size=1, max_size=6),
       stages=st.lists(SPACED_STAGES, min_size=1, max_size=3),
       p=st.sampled_from([2, 3, 5]), levels=st.integers(1, 6))
@example(support=frozenset({0}), stages=[cons.StageParams(2, (0, 5))], p=2, levels=3)
def test_cascade_levels_match_the_per_m_rule(support, stages, p, levels):
    params = cons.ConstructionParams.explicit(0, stages)
    level = limits.divisibility_cascade(support, p, levels)
    rep = limits.flatness_consequence(params, range(1, len(stages) + 1), p, level, levels)
    # the oracle: one divisibility test per m and per value
    heads = [stage.s[: stage.r - 1] for stage in stages]
    diffs = {abs(a - b) for h in heads for i, a in enumerate(h) for b in h[i + 1:]}
    max_diff = max(diffs, default=0)
    rows = [(m, p**m, all(z % p**m == 0 for z in support),
             all(d % p**m == 0 for d in diffs), max_diff) for m in range(1, levels + 1)]
    assert list(rep.rows()) == rows
    assert rep.consistent == all(divides or not holds for _, _, holds, divides, _ in rows)
    assert rep.all_flat == (max_diff == 0)
    forced = 1
    while p**forced <= max(max(stage.s) for stage in stages):
        forced += 1
    assert rep.forced_flat_level == forced
    assert limits._p_adic_level(set(), p, levels) == levels


def test_limit_polynomial_csv_rows():
    p = poly({-1: 0.25, 2: 0.75})
    rows = list(p.to_csv_rows())
    assert rows[0] == ("-1", repr(0.25))
    assert rows[-2][0] == "theta"
    assert rows[-1][0] == "residual"
    assert p.optimality_gap is None  # hand-built, not fitted
