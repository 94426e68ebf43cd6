"""Weak limits of powers and what they certify.

Along the return-power sequences n_k = d*H_{j_k}, with

    H_j = -(L_j + min(s_j(1..r_j-1))),

powers T^{n_k} of a bounded construction accumulate to operators of
the form sum_z a_z T^z + c*Theta (Theta = projection onto constants).
This module fits such truncated polynomials to correlation data on a
coefficient simplex, compares two fitted limits for p/q-similarity
(Q = R(S^q), P = R(T^p) for a common series R), and combines the two
into numerical disjointness evidence. Everything here is finite-depth
estimation: verdicts are labeled evidence, never proofs.

A fit's one depth param is ``max_shift``: its stages run from j = 1 until
|d*H_j| passes it. Its window Z, thresholds and depth rule are constants.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from math import gcd
from typing import Iterable, Mapping, Sequence

import numpy as np

from .construction import ConstructionParams, first_stage_reaching, heights
from .errors import StageUnavailable
from .tower import CorrelationMatrix, correlation_depths


#: the depth rule: a shift n is counted at the first depth K with
#: L_K >= max(MIN_LEVELS, SHIFT_FACTOR*|n|), and a weak limit is fitted
#: along its last FIT_COUNT admissible stages
MIN_LEVELS = 10_000
SHIFT_FACTOR = 200
FIT_COUNT = 3
#: the basis window |z| <= Z of every fit, and the thresholds that
#: separate signal from truncation noise at depths with L_K >= MIN_LEVELS
Z = 8
SUPPORT_TAU = 0.02
COEFF_TOL = 0.02
STABILITY_TOL = 0.02
RESIDUAL_TOL = 0.05
#: default of the one depth param a fit takes, the largest admissible |shift|
DEFAULT_MAX_SHIFT = 2_000


def depth(params: ConstructionParams, n: int, j: int) -> int:
    """The depth K for shift n at reference stage j: the first stage
    K >= j with L_K >= max(MIN_LEVELS, SHIFT_FACTOR*|n|)."""
    return first_stage_reaching(params, max(MIN_LEVELS, SHIFT_FACTOR * abs(n)), j)


# ------------------------------------------------------------ polynomial

@dataclass(frozen=True)
class LimitPolynomial:
    """Truncated convex combination sum_z a_z T^z + c*Theta. A fitted
    one carries its Frank-Wolfe ``optimality_gap``, an upper bound on
    how far its squared residual lies above the least attainable."""

    coeffs: Mapping[int, float]
    theta: float
    fit_residual: float
    optimality_gap: float | None = None

    def a(self, z: int) -> float:
        return float(self.coeffs.get(z, 0.0))

    @property
    def mass(self) -> float:
        return float(sum(self.coeffs.values()) + self.theta)

    def support(self, tau: float) -> frozenset[int]:
        """Shifts carrying more than tau of coefficient mass."""
        return frozenset(z for z, a in self.coeffs.items() if a > tau)

    def to_csv_rows(self):
        for z in sorted(self.coeffs):
            yield (str(z), repr(float(self.coeffs[z])))
        yield ("theta", repr(float(self.theta)))
        yield ("residual", repr(float(self.fit_residual)))

    def __str__(self):
        parts = [
            f"{a:.4f}*T^{z}" for z, a in sorted(self.coeffs.items()) if a > 1e-4
        ]
        if self.theta > 1e-4:
            parts.append(f"{self.theta:.4f}*Theta")
        return " + ".join(parts) if parts else "0"


def coefficient_distance(a: LimitPolynomial, b: LimitPolynomial) -> float:
    """sup-distance over all shift coefficients and theta."""
    zs = set(a.coeffs) | set(b.coeffs)
    gap = max((abs(a.a(z) - b.a(z)) for z in zs), default=0.0)
    return max(gap, abs(a.theta - b.theta))


# ---------------------------------------------------------------- fitting

def _solve_simplex_qp(A):
    """Minimiser x of ||x.A[:-1] - A[-1]||^2 over {x >= 0, sum x = 1} by
    block principal pivoting (Judice and Pires, Comput. Oper. Res. 21,
    1994; Kim and Park, SIAM J. Sci. Comput. 33, 2011), with its
    Frank-Wolfe gap grad.x - min(grad), which bounds how far the
    objective lies above its minimum.

    From the full support, each face F's minimum y comes from its KKT
    system, with grad = 2(gram.y - gtb). F is accepted by the active
    set's test, y_F > 0 and a gap <= 1e-12, when also every i outside F
    has grad_i > grad.y + 1e-12. Otherwise one exchange drops every i in
    F with y_i <= 0 and adds every i outside F with grad_i < grad.y -
    1e-12, so a fit reaches its optimal face in a few solves. As a
    backup, after 3 exchanges that do not lower the count of such
    infeasible variables, only the last of them is flipped until the
    count falls.

    The Lawson-Hanson steps of ``_active_set_qp`` finish the solve from
    the full face when a face repeats, when its KKT system is singular,
    or when an optimal face is degenerate (some i outside F could enter
    at no cost, as on an exact fit). They are the one path that ends on
    a singular Gram matrix, and at a degenerate optimum the face a solve
    ends on depends on its path.

    The accepted y is the same ``np.linalg.solve`` on the same face as
    the last step of ``_active_set_qp``, with the same gap, so x, the gap
    and the residual are the active set's whenever both end on the same
    face, as they do when the basis rows are independent (the optimum is
    unique) and no variable is degenerate.
    """
    products = A @ A.T
    gram, gtb = products[:-1, :-1], products[:-1, -1]
    n = gtb.shape[0]
    kkt = np.ones((n + 1, n + 1))
    kkt[:n, :n] = 2.0 * gram
    kkt[n, n] = 0.0
    rhs = np.append(2.0 * gtb, 1.0)
    free = np.ones(n, dtype=bool)
    seen = set()
    fewest, backup = n + 1, 3
    while (key := free.tobytes()) not in seen:
        seen.add(key)
        face = np.flatnonzero(free)
        rows = np.append(face, n)
        y = np.zeros(n)
        try:
            y[face] = np.linalg.solve(kkt[rows][:, rows], rhs[rows])[:-1]
        except np.linalg.LinAlgError:
            break
        grad = 2.0 * (gram @ y - gtb)
        level = grad @ y
        gap = float(level - grad.min())
        drop = free & (y <= 0.0)
        if gap <= 1e-12 and not drop.any():
            if (grad[~free] > level + 1e-12).all():
                return y, gap
            break  # degenerate: a variable off F could enter at no cost
        infeasible = np.flatnonzero(drop | (~free & (grad < level - 1e-12)))
        if infeasible.size < fewest:
            fewest, backup = infeasible.size, 3
        elif backup:
            backup -= 1
        else:
            infeasible = infeasible[-1:]
        free[infeasible] = ~free[infeasible]
    return _active_set_qp(A, gram, gtb, kkt, rhs)


def _active_set_qp(A, gram, gtb, kkt, rhs):
    """The simplex QP of ``_solve_simplex_qp`` on its Gram matrix and KKT
    system, by an active set (Lawson and Hanson, Solving Least Squares
    Problems, 1974), with its Frank-Wolfe gap.

    From the full support, each face's minimum comes from its KKT system
    (or, when that is singular, from least squares on the rows of A). A
    minimum with non-positive entries is approached only up to the
    boundary, where the blocking variable drops out; at a feasible one
    the variable of least gradient re-enters until the gap is <= 1e-12.
    Each re-entry lowers the objective, so only rounding repeats a face,
    and a repeat ends the solve.
    """
    n = gtb.shape[0]
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


def fit_limit_polynomial(
    target: CorrelationMatrix,
    basis: Mapping[int, CorrelationMatrix],
    measures: np.ndarray,
) -> LimitPolynomial:
    """Constrained least squares fit of the target correlation matrix.

    Minimizes || C_n - sum_z a_z C_z - c*M_Theta ||_F over the simplex
    {a_z, c >= 0, sum + c = 1}, where M_Theta(A,B) = nu(A)nu(B), exactly
    by block principal pivoting; the fit carries its optimality gap.
    The window is the largest |z| among the basis shifts.
    """
    zs = sorted(basis)
    window = max(abs(z) for z in zs)
    if window >= target.total:
        raise ValueError(f"basis window {window} infeasible for depth with L_K={target.total}")
    for z, mat in basis.items():
        if (mat.stage, mat.depth) != (target.stage, target.depth):
            raise ValueError(f"basis C_{z} built at a different stage/depth")

    # rows: the basis C_z, M_Theta, then the target C_n, each count matrix
    # (a transposed C_{-z} too) written in place, then divided by the total
    side = target.counts.shape[0]
    rows = np.empty((len(zs) + 2, side, side))
    for row, z in zip(rows, zs):
        row[...] = basis[z].counts
    rows[-1] = target.counts
    A = rows.reshape(len(rows), side * side)
    A[:-2] /= target.total
    A[-1] /= target.total
    np.outer(measures, measures, out=rows[-2])
    x, gap = _solve_simplex_qp(A)

    residual = float(np.linalg.norm(x @ A[:-1] - A[-1]))
    coeffs = {z: float(x[i]) for i, z in enumerate(zs)}
    return LimitPolynomial(
        coeffs=coeffs, theta=float(x[-1]), fit_residual=residual, optimality_gap=gap,
    )


def _fit_shifts(
    params: ConstructionParams, j: int, shifts: Sequence[int],
    depths: Iterable[int], Z: int,
) -> list[LimitPolynomial]:
    """Fit each target C_n, n in ``shifts``, on the basis {C_z : |z| <= Z}
    at its depth K from ``depths``; one climb counts every fit. A lazy
    ``depths`` finds each K just before its request is checked, so the
    error raised is that of the first fit that fails, as when each fit
    was counted alone. The class measures nu(A) are the diagonal of C_0,
    which counts each class of the depth-K word once."""
    if Z < 0:
        raise ValueError(f"window Z={Z} must be >= 0")
    window = range(-Z, Z + 1)
    requests = ((K, [n, *window]) for n, K in zip(shifts, depths))
    fits = []
    for n, mats in zip(shifts, correlation_depths(params, j, requests)):
        measures = np.diag(mats[0].counts) / mats[0].total
        fits.append(fit_limit_polynomial(mats[n], {z: mats[z] for z in window}, measures))
    return fits


def fit_for_shift(
    params: ConstructionParams, j: int, K: int, n: int, Z: int = Z
) -> LimitPolynomial:
    """Count target C_n and basis {C_z : |z| <= Z} at (j, K) at once; fit."""
    return _fit_shifts(params, j, [n], [K], Z)[0]


# ------------------------------------------------------------- sequences

def _return_height(params: ConstructionParams, j: int) -> int:
    """H_j = -(L_j + s_j^min)."""
    return -(heights(params, j).L(j) + params.stage(j).s_min_first)


def auto_ref_stage(params: ConstructionParams, Z: int) -> int:
    """Smallest reference stage whose level count exceeds 2Z+1, so that
    the basis shifts |z| <= Z stay distinct even on periodic words
    (odometer words repeat with period L_j, aliasing C_z with
    C_{z mod L_j})."""
    return first_stage_reaching(params, 2 * Z + 2)


def _select_stages(
    params: ConstructionParams, multipliers: Sequence[int], max_shift: int,
) -> tuple[int, list[tuple[int, int]]]:
    """The reference stage j_ref and (j, H_j) of the last FIT_COUNT stages j
    with L_{j_ref} <= k*|H_j| <= max_shift for every k in ``multipliers``, so
    that each shift moves every reference level out of the reference tower.
    |H_j| strictly increases with j (L_{j+1} >= 2L_j + s_j(1)), so the walk
    stops at the first stage beyond max_shift, or an explicit one's last."""
    low, high = min(multipliers), max(multipliers)
    try:
        j_ref = auto_ref_stage(params, Z)
    except StageUnavailable:
        raise ValueError(f"fewer than two admissible stages: the listed stages build "
                         f"no reference tower of 2Z+2={2 * Z + 2} levels") from None
    floor = heights(params, j_ref).L(j_ref)
    walk = (range(1, len(params.stages) + 1) if params.kind == "explicit"
            else itertools.count(1))
    usable = []
    for j in walk:
        h = _return_height(params, j)
        if -high * h > max_shift:
            break
        if -low * h >= floor:
            usable.append((j, h))
    if len(usable) < 2:
        raise ValueError(f"fewer than two admissible stages j with L_{j_ref}={floor} <= "
                         f"{low}*|H_j| and {high}*|H_j| <= max_shift={max_shift}")
    return j_ref, usable[-FIT_COUNT:]


@dataclass(frozen=True)
class WeakLimitResult:
    """A fitted limit along a power sequence plus its stability trace."""

    polynomial: LimitPolynomial
    fits: tuple[LimitPolynomial, ...] = field(repr=False)
    stages: tuple[int, ...]
    shifts: tuple[int, ...]
    stability_gap: float
    ref_stage: int

    def fit_summary(self) -> str:
        """Two report lines: the fitted stages, shifts and reference
        stage, then the stability, residual and optimality gaps."""
        return (f"  fitted stages {list(self.stages)}, shifts {list(self.shifts)}, "
                f"ref stage {self.ref_stage}\n"
                f"  stability gap {self.stability_gap:.4g}, "
                f"residual {self.polynomial.fit_residual:.4g}, "
                f"optimality gap {self.polynomial.optimality_gap:.2g}")


def _fit_powers(
    params: ConstructionParams, multipliers: Sequence[int], max_shift: int,
) -> list[WeakLimitResult]:
    """Fit the series k*H_j of each multiplier k along the stages
    ``_select_stages`` admits, each shift n at the depth ``depth`` gives
    it, the fits of all series counted by one climb."""
    j_ref, walk = _select_stages(params, multipliers, max_shift)
    stages = tuple(j for j, _ in walk)
    series = [tuple(k * h for _, h in walk) for k in multipliers]
    shifts = [n for ns in series for n in ns]
    depths = (depth(params, n, j_ref) for n in shifts)
    fits = _fit_shifts(params, j_ref, shifts, depths, Z)
    results = []
    for ns in series:
        series_fits, fits = fits[:len(ns)], fits[len(ns):]
        gap = max(
            (coefficient_distance(a, b) for a, b in zip(series_fits, series_fits[1:])),
            default=float("inf"),
        )
        results.append(WeakLimitResult(
            polynomial=series_fits[-1], fits=tuple(series_fits), stages=stages,
            shifts=ns, stability_gap=gap, ref_stage=j_ref,
        ))
    return results


def weak_limit(
    params: ConstructionParams, d: int, *, max_shift: int = DEFAULT_MAX_SHIFT,
) -> WeakLimitResult:
    """Fit the weak limit of T^{d*H_j} along successive stages j.

    Fits the last FIT_COUNT admissible stages (L_{j_ref} <= |d*H_j| <=
    max_shift), reports the maximal coefficient gap between consecutive
    fits, and returns the deepest fit as the limit estimate.
    """
    return _fit_powers(params, (d,), max_shift)[0]


# ------------------------------------------------------------ similarity

@dataclass(frozen=True)
class SimilarityVerdict:
    """Outcome of the p/q-similarity test, with the recovered common
    series R when it exists."""

    similar: bool
    witness: dict[int, float] | None
    max_coeff_gap: float
    reason: str


def is_pq_similar(
    Q: LimitPolynomial, P: LimitPolynomial, p: int, q: int,
    tol: float = COEFF_TOL, tau: float = SUPPORT_TAU,
) -> SimilarityVerdict:
    """Test whether Q(S) = R(S^q) and P(T) = R(T^p) for a common R.

    Requires supp(Q) within q*Z and supp(P) within p*Z (above the
    support threshold tau), coefficient agreement a^Q_{qr} = a^P_{pr}
    within tol on the common r-grid, and matching theta components.
    """
    if p < 1 or q < 1:
        raise ValueError("p and q must be positive")
    if gcd(p, q) != 1:
        raise ValueError(f"p={p}, q={q} must be coprime")

    for name, poly, k in (("Q", Q, q), ("P", P, p)):
        bad = sorted(z for z in poly.support(tau) if z % k != 0)
        if bad:
            return SimilarityVerdict(
                False, None, float("inf"), f"supp({name}) not within {k}Z: shifts {bad}",
            )

    r_range = {z // q for z in Q.coeffs if z % q == 0}
    r_range |= {z // p for z in P.coeffs if z % p == 0}
    gap = abs(Q.theta - P.theta)
    for r in r_range:
        gap = max(gap, abs(Q.a(q * r) - P.a(p * r)))
    if gap > tol:
        return SimilarityVerdict(
            False, None, gap, f"coefficient gap {gap:.4g} exceeds tol {tol:g}"
        )
    witness = {r: Q.a(q * r) for r in sorted(r_range) if Q.a(q * r) > 0.0}
    return SimilarityVerdict(True, witness, gap, "supports and coefficients match")


# ----------------------------------------------------------- certificate

class Verdict(enum.Enum):
    EVIDENCE_DISJOINT = "EvidenceDisjoint"
    SIMILAR_LIMITS = "SimilarLimits"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class DisjointnessVerdict:
    """Numerical evidence about disjointness of T^p and T^q.

    EvidenceDisjoint requires both fitted limits converged and not
    p/q-similar; this is evidence in the sense of the finite
    computation, not a proof of weak convergence.
    """

    verdict: Verdict
    p: int
    q: int
    q_result: WeakLimitResult
    p_result: WeakLimitResult
    similarity: SimilarityVerdict
    notes: tuple[str, ...] = ()

    def diagnostics(self) -> str:
        lines = [f"verdict: {self.verdict.value} (numerical evidence)"]
        for name, k, res in (("Q", self.q, self.q_result), ("P", self.p, self.p_result)):
            lines += [
                f"{name} (along T^({name.lower()}*H_j), {name.lower()}={k}): "
                f"{res.polynomial}",
                res.fit_summary(),
            ]
        lines.append(f"similarity: {self.similarity.reason}")
        lines.extend(self.notes)
        return "\n".join(lines)


def check_pair(p: int, q: int):
    """ValueError unless p and q are positive, distinct and coprime."""
    if p < 1 or q < 1:
        raise ValueError("p and q must be positive")
    if p == q:
        raise ValueError("p and q must differ")
    if gcd(p, q) != 1:
        raise ValueError(f"p={p}, q={q} must be coprime")


def disjointness_certificate(
    params: ConstructionParams, p: int, q: int, *, max_shift: int = DEFAULT_MAX_SHIFT,
) -> DisjointnessVerdict:
    """Fit Q along T^{q*H_j} and P along T^{p*H_j} on a shared stage
    sequence and compare: non-similar converged limits are evidence
    that T^q and T^p are disjoint."""
    check_pair(p, q)

    q_result, p_result = _fit_powers(params, (q, p), max_shift)

    similarity = is_pq_similar(q_result.polynomial, p_result.polynomial, p, q)

    notes = []
    stable = True
    for name, res in (("Q", q_result), ("P", p_result)):
        if res.stability_gap > STABILITY_TOL:
            stable = False
            notes.append(
                f"{name} fit unstable: gap {res.stability_gap:.4g} > {STABILITY_TOL:g}"
            )
        if res.polynomial.fit_residual > RESIDUAL_TOL:
            stable = False
            notes.append(
                f"{name} fit residual {res.polynomial.fit_residual:.4g} > "
                f"{RESIDUAL_TOL:g}"
            )

    if similarity.similar:
        verdict = Verdict.SIMILAR_LIMITS
    elif stable:
        verdict = Verdict.EVIDENCE_DISJOINT
    else:
        verdict = Verdict.INCONCLUSIVE
    return DisjointnessVerdict(
        verdict=verdict, p=p, q=q, q_result=q_result, p_result=p_result,
        similarity=similarity, notes=tuple(notes),
    )


# --------------------------------------------------------------- cascade

def _p_adic_level(values: Iterable[int], p: int, levels: int) -> int:
    """The largest k <= levels such that p^k divides every value: the
    p-adic valuation of their gcd, capped at ``levels``. The gcd of no
    values, or of zeros, is 0, which every power divides."""
    g, k = gcd(*values), 0
    while k < levels and g % p ** (k + 1) == 0:
        k += 1
    return k


def divisibility_cascade(support: Iterable[int], p: int, levels: int) -> int:
    """The cascade level of ``support``: the largest k <= levels with every
    shift in p^k * Z, so that the support lies in p^m * Z exactly for
    m <= k. An empty support would hold vacuously and is refused."""
    if p < 2:
        raise ValueError("p must be >= 2")
    if levels < 1:
        raise ValueError("need at least one level")
    zs = tuple(support)
    if not zs:
        raise ValueError(
            f"empty support (no coefficient above tau={SUPPORT_TAU}) holds vacuously")
    return _p_adic_level(zs, p, levels)


@dataclass(frozen=True)
class FlatnessConsequence:
    """The fitted cascade against the parameter side, as two p-adic levels
    capped at ``levels``: ``cascade_level``, of the support, and
    ``params_level``, of the spacer differences s_j(i) - s_j(i') over the
    first r-1 columns of the fitted stages. Divisibility by p^m implies it
    by every lower power, so both per-m columns of ``rows`` are prefixes of
    Trues, and "the parameters divide at every m where the cascade holds"
    is exactly cascade_level <= params_level (``consistent``)."""

    p: int
    levels: int
    cascade_level: int
    params_level: int
    max_abs_diff: int
    forced_flat_level: int

    @property
    def consistent(self) -> bool:
        return self.cascade_level <= self.params_level

    @property
    def all_flat(self) -> bool:
        return self.max_abs_diff == 0

    def rows(self):
        """(m, p^m, cascade holds, params divide, max |difference|), m <= levels."""
        for m in range(1, self.levels + 1):
            yield (m, self.p**m, m <= self.cascade_level, m <= self.params_level,
                   self.max_abs_diff)


def flatness_consequence(
    params: ConstructionParams, stages: Iterable[int], p: int, level: int, levels: int,
) -> FlatnessConsequence:
    """Cross-check the cascade level ``level`` of ``divisibility_cascade``
    (run with the same p and ``levels``) against the spacer differences
    of ``stages``, the stages the cascade's limit was fitted along; also
    reports the level from which bounded parameters force flat behavior
    (the first m with p^m > the spacer bound).
    """
    if p < 2 or not 0 <= level <= levels:
        raise ValueError(f"need p >= 2 and 0 <= level <= levels, got {p}, {level}, {levels}")
    stages = [params.stage(j) for j in stages]
    diffs = {a - b for st in stages for a in st.s[:-1] for b in st.s[:-1]}
    s_sup = max((max(st.s) for st in stages), default=0)
    return FlatnessConsequence(
        p=p, levels=levels, cascade_level=level,
        params_level=_p_adic_level(diffs, p, levels), max_abs_diff=max(diffs, default=0),
        forced_flat_level=next(m for m in itertools.count(1) if p**m > s_sup),
    )
