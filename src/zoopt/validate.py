"""Property suites: estimator statistics, smoothing bounds, projection oracles,
and algorithm reduction equivalences.

Each check returns a PropertyResult with the measured quantity and the bound it
was held to, so the CLI can print one PASS/FAIL line per property.  Every
oracle here is an independent route (rejection sampling, dense feasible
samples, least-squares on the constraint boundary, manual recurrences), never a
call back into the code path being checked.
"""

import math
from dataclasses import dataclass

import numpy as np

from .estimators import (MU_FLOOR, averaged_estimator, clamp_mu,
                         coordinate_estimate, nes_antithetic_estimate,
                         two_point_estimates, two_point_uniform)
from .geometry import (Box, DiagonalMetric, L2Ball, SymmetricBand, Unconstrained,
                       gradient_mapping, vi_violation)
from .numkit import RngStream, block_spans, sample_unit_sphere
from .optimizers import (AdaMMState, adamm_direction, default_config,
                         run_optimizer, zo_adamm_step)
from .problems import make_counterexample_lp, make_quadratic
from .smoothing import SmoothingProbe, analytic_smooth_quadratic, smooth_value_mc


@dataclass
class PropertyResult:
    name: str
    passed: bool
    measured: float
    bound: float
    note: str = ""

    def line(self):
        tag = "PASS" if self.passed else "FAIL"
        extra = f"  ({self.note})" if self.note else ""
        return (f"{tag}  {self.name:<48} measured={self.measured:.6g} "
                f"bound={self.bound:.6g}{extra}")


def _leq(name, measured, bound, note=""):
    return PropertyResult(name, measured <= bound, float(measured), float(bound), note)


# ---------------------------------------------------------------------------
# estimator statistics


def sphere_concentration(seed=0, d=100, n_draws=100_000, xis=(4.0, 8.0, 16.0)):
    """Tail frequency of sphere coordinates against exp((1 - xi + log xi)/2)."""
    rng = RngStream(seed)
    draws = np.empty((n_draws, d))
    for lo, hi in block_spans(n_draws, 2 * d):
        draws[lo:hi] = sample_unit_sphere(d, rng, hi - lo)
    out = []
    for xi in xis:
        thresh = math.sqrt(xi / d)
        freq = float(np.mean(np.abs(draws) >= thresh))
        bound = math.exp((1.0 - xi + math.log(xi)) / 2.0)
        out.append(_leq(f"estimators.sphere_tail_xi_{xi:g}", freq, bound))
    return out


def unbiasedness_check(seed=0, d=10, n_estimates=200_000, mu=0.01):
    """Mean of two-point estimates vs the analytic smoothed gradient,
    per-coordinate, within 4 standard errors."""
    prob = make_quadratic(d, condition=4.0, seed=seed + 1)
    a_diag = prob.metadata.extra["a_diag"]
    x_star = prob.metadata.extra["x_star"]
    rng = RngStream(seed)
    x = rng.uniform(d) * 2.0 - 1.0
    # f = 0.5 sum a (x - x*)^2 in the a/b form of the smoothed closed form
    _, grad_mu = analytic_smooth_quadratic(a_diag, -a_diag * x_star, x, mu)
    ests = two_point_estimates(prob.objective, x, 0, mu, n_estimates, rng)
    mean = ests.mean(axis=0)
    se = ests.std(axis=0, ddof=1) / math.sqrt(n_estimates)
    dev_in_se = float(np.max(np.abs(mean - grad_mu) / se))
    return [_leq("estimators.two_point_unbiased_4se", dev_in_se, 4.0,
                 note=f"n={n_estimates}")]


def _variance_halving(axis, values, n_estimates, d, estimate):
    """Total variance of ``n_estimates`` draws of ``estimate(v)`` per v in
    ``values``; each step passes when the ratio is within 25% of 1/2."""
    variances = []
    for v in values:
        ests = np.empty((n_estimates, d))
        for k in range(n_estimates):
            ests[k] = estimate(v)
        centered = ests - ests.mean(axis=0)
        variances.append(float((centered * centered).sum() / (n_estimates - 1)))
    ratios = [hi / lo for lo, hi in zip(variances, variances[1:])]
    return [PropertyResult(f"estimators.variance_halving_{axis}{a}_to_{axis}{b}",
                           0.375 <= r <= 0.625, r, 0.625, note="target 0.5 +/- 25%")
            for a, b, r in zip(values, values[1:], ratios)]


def variance_scaling_q(seed=0, d=50, n_estimates=10_000, mu=0.01,
                       qs=(1, 2, 4, 8)):
    """Deterministic objective: the direction average must halve the variance
    per doubling of q (ratio within 25% of 1/2)."""
    prob = make_quadratic(d, condition=3.0, seed=seed + 2)
    rng = RngStream(seed)
    x = rng.uniform(d) * 2.0 - 1.0
    return _variance_halving(
        "q", qs, n_estimates, d,
        lambda q: averaged_estimator(prob.objective, x, mu, 1, q, rng))


def variance_scaling_b(seed=0, d=10, n_samples=64, n_estimates=2_500, mu=0.01,
                       q=48, bs=(1, 2, 4, 8)):
    """Finite-sum objective at fixed large q: the minibatch average must halve
    the stochastic variance per doubling of b (ratio within 25% of 1/2).

    The per-sample shifts are strong enough that the sample-noise leg dominates
    the direction-noise floor at these b."""
    prob = make_quadratic(d, condition=2.0, seed=seed + 3, n_samples=n_samples,
                          noise=3.0)
    rng = RngStream(seed)
    x = rng.uniform(d) * 2.0 - 1.0
    return _variance_halving(
        "b", bs, n_estimates, d,
        lambda b: averaged_estimator(prob.objective, x, mu, b, q, rng))


def query_accounting_check(seed=0, d=6):
    """Estimator query consumption equals the documented closed forms exactly."""
    out = []
    rng = RngStream(seed)
    x = np.zeros(d)

    prob = make_quadratic(d, seed=seed)
    two_point_uniform(prob.objective, x, 0, 0.01, rng)
    out.append(PropertyResult("estimators.queries_two_point",
                              prob.objective.queries == 2,
                              prob.objective.queries, 2))
    prob = make_quadratic(d, seed=seed, n_samples=9)
    b, q = 3, 5
    averaged_estimator(prob.objective, x, 0.01, b, q, rng)
    out.append(PropertyResult("estimators.queries_averaged",
                              prob.objective.queries == b * (q + 1),
                              prob.objective.queries, b * (q + 1)))
    prob = make_quadratic(d, seed=seed)
    coordinate_estimate(prob.objective, x, 0, 0.01, [0, 2, 4])
    out.append(PropertyResult("estimators.queries_coordinate",
                              prob.objective.queries == 6,
                              prob.objective.queries, 6))
    prob = make_quadratic(d, seed=seed)
    nes_antithetic_estimate(prob.objective, x, 0, 0.01, 7, rng)
    out.append(PropertyResult("estimators.queries_nes",
                              prob.objective.queries == 14,
                              prob.objective.queries, 14))
    return out


def estimators_suite(seed=0):
    out = []
    out += unbiasedness_check(seed)
    out += variance_scaling_q(seed)
    out += variance_scaling_b(seed)
    out += query_accounting_check(seed)
    out += sphere_concentration(seed)
    return out


# ---------------------------------------------------------------------------
# smoothing bounds


def _local_lipschitz_quadratic(a_diag, x_star, x, mu):
    # valid Lipschitz constant on the ball of radius mu around x
    r = math.sqrt(float(np.dot(x - x_star, x - x_star)))
    return float(a_diag.max()) * (r + mu)


def smoothing_suite(seed=0, mu=0.05, mu_floor=MU_FLOOR, n_value=60_000,
                    n_grad=20_000, points_per_problem=10):
    """Smoothing-oracle bounds with 4-sigma Monte-Carlo slack.

    ``mu_floor`` mirrors the library's clamp so a corrupted floor shows up as a
    failed bound (the probes run at the clamped value while the bounds use the
    requested one).
    """
    from .problems import make_logistic

    mu_eff = clamp_mu(mu, floor=mu_floor)
    out = []
    rng = RngStream(seed)

    quad = make_quadratic(8, condition=4.0, seed=seed + 10)
    logi = make_logistic(40, 8, seed=seed + 11)

    for prob, label in ((quad, "quadratic"), (logi, "logistic")):
        d = prob.objective.dim
        L_g = prob.metadata.grad_lip
        worst = {k: (-np.inf, 0.0) for k in
                 ("value_gap_lipschitz", "value_gap_smooth", "grad_gap",
                  "second_moment")}
        for p in range(points_per_problem):
            x = rng.uniform(d) * 2.0 - 1.0
            probe = SmoothingProbe(mu_eff, n_value, seed=seed + 100 + p)
            fmu, se = smooth_value_mc(prob.objective, x, 0, probe)
            gap = abs(fmu - prob.objective.peek(x, 0))
            if label == "quadratic":
                L_c = _local_lipschitz_quadratic(prob.metadata.extra["a_diag"],
                                                 prob.metadata.extra["x_star"],
                                                 x, mu)
            else:
                L_c = prob.metadata.lip_const
            # value-gap bounds: Lipschitz form and smooth form
            _track(worst, "value_gap_lipschitz", gap - 4.0 * se, L_c * mu)
            _track(worst, "value_gap_smooth", gap - 4.0 * se,
                   L_g * mu * mu / 2.0)

            # the probes query sample index 0, so the reference gradient is
            # that sample's, not the finite-sum average
            grad = prob.metadata.sample_gradient(x, 0)
            ests = np.empty((n_grad, d))
            grng = RngStream(seed + 500 + p)
            for k in range(n_grad):
                ests[k] = two_point_uniform(prob.objective, x, 0, mu_eff, grng)
            mean = ests.mean(axis=0)
            se_vec = ests.std(axis=0, ddof=1) / math.sqrt(n_grad)
            dev = math.sqrt(float(np.dot(mean - grad, mean - grad)))
            slack = 4.0 * math.sqrt(float(np.dot(se_vec, se_vec)))
            _track(worst, "grad_gap", dev - slack, mu * d * L_g / 2.0)

            norms = (ests * ests).sum(axis=1)
            second = float(norms.mean())
            se_n = float(norms.std(ddof=1)) / math.sqrt(n_grad)
            gbound = (2.0 * d * float(np.dot(grad, grad))
                      + mu * mu * L_g * L_g * d * d / 2.0)
            _track(worst, "second_moment", second - 4.0 * se_n, gbound)

        for key, (measured, bound) in worst.items():
            out.append(_leq(f"smoothing.{key}_{label}", measured, bound,
                            note=f"worst of {points_per_problem} points, "
                                 f"4-sigma slack"))
    return out


def _track(worst, key, measured, bound):
    # keep the point with the least margin to its bound
    prev_m, prev_b = worst[key]
    if measured - bound > prev_m - prev_b:
        worst[key] = (measured, bound)


# ---------------------------------------------------------------------------
# geometry oracles


def _random_band(rng, d):
    a = rng.normal(d)
    while not np.any(a != 0):
        a = rng.normal(d)
    b = 0.2 + rng.uniform() * 2.0
    return SymmetricBand(a, b)


def _band_oracle(band, h, y):
    """Least-squares minimizer of the weighted distance on the active
    hyperplane: an independent route to the projection."""
    a, bw = band.a, band.b
    t = float(np.dot(a, y))
    if abs(t) <= bw:
        return np.array(y, dtype=float)
    s = 1.0 if t > 0 else -1.0
    d = a.shape[0]
    # orthonormal completion of a via QR
    m = np.eye(d)
    m[:, 0] = a
    qmat, _ = np.linalg.qr(m)
    nullsp = qmat[:, 1:]
    x0 = (s * bw / float(np.dot(a, a))) * a
    rhs = nullsp.T @ (h * (y - x0))
    sol = np.linalg.solve(nullsp.T @ (h[:, None] * nullsp), rhs)
    return x0 + nullsp @ sol


def geometry_suite(seed=0, n_band=100, n_idem=1000, n_reduce=1000):
    out = []
    rng = RngStream(seed)

    # weighted band projection vs least-squares oracle, plus dominance over a
    # dense rejection-sampled feasible cloud
    worst_oracle = 0.0
    worst_dom = -np.inf
    for _ in range(n_band):
        d = 2 + int(rng.uniform() * 4)  # dims 2..5
        band = _random_band(rng, d)
        h = 0.2 + rng.uniform(d) * 3.0
        y = rng.normal(d) * 2.0
        proj = band.project_metric(y, h)
        oracle = _band_oracle(band, h, y)
        worst_oracle = max(worst_oracle, float(np.max(np.abs(proj - oracle))))
        wd_proj = float(np.dot(h * (proj - y), proj - y))
        found = 0
        while found < 50:
            cand = rng.normal(d) * 2.0
            if band.member(cand):
                found += 1
                wd_cand = float(np.dot(h * (cand - y), cand - y))
                worst_dom = max(worst_dom, wd_proj - wd_cand)
    out.append(_leq("geometry.band_weighted_vs_oracle", worst_oracle, 1e-6))
    out.append(_leq("geometry.band_weighted_dominance", worst_dom, 1e-9,
                    note="projection beats every feasible sample"))

    # box under any diagonal metric is exactly the clamp
    exact = True
    for _ in range(200):
        d = 1 + int(rng.uniform() * 6)
        lo = rng.normal(d) - 1.5
        hi = lo + 0.1 + rng.uniform(d) * 2.0
        box = Box(lo, hi)
        h = 0.1 + rng.uniform(d) * 5.0
        y = rng.normal(d) * 3.0
        if not np.array_equal(box.project_metric(y, h),
                              np.clip(y, lo, hi)):
            exact = False
    out.append(PropertyResult("geometry.box_weighted_is_clamp", exact,
                              0.0 if exact else 1.0, 0.0))

    # idempotence + feasibility for both geometries over all variants
    worst_idem = 0.0
    feasible = True
    sets = []
    for _ in range(n_idem):
        d = 2 + int(rng.uniform() * 4)
        kind = int(rng.uniform() * 4)
        if kind == 0:
            cset = Unconstrained()
        elif kind == 1:
            lo = rng.normal(d) - 1.0
            cset = Box(lo, lo + 0.1 + rng.uniform(d))
        elif kind == 2:
            cset = _random_band(rng, d)
        else:
            cset = L2Ball(rng.normal(d), 0.2 + rng.uniform() * 2.0)
        sets.append((cset, d))
    for cset, d in sets:
        y = rng.normal(d) * 3.0
        h = 0.2 + rng.uniform(d) * 3.0
        for proj in (cset.project, lambda v: cset.project_metric(v, h)):
            p1 = proj(y)
            p2 = proj(p1)
            worst_idem = max(worst_idem, float(np.max(np.abs(p2 - p1))))
            feasible = feasible and cset.member(p1, tol=1e-12)
    out.append(_leq("geometry.projection_idempotence", worst_idem, 1e-12))
    out.append(PropertyResult("geometry.projection_feasibility", feasible,
                              0.0 if feasible else 1.0, 0.0))

    # unit-metric reduction
    worst_red = 0.0
    for cset, d in sets[:n_reduce]:
        y = rng.normal(d) * 3.0
        pe = cset.project(y)
        pm = cset.project_metric(y, np.ones(d))
        worst_red = max(worst_red, float(np.max(np.abs(pe - pm))))
    out.append(_leq("geometry.unit_metric_reduction", worst_red, 1e-12))

    # fixed point vs stationarity on the counterexample
    ce = make_counterexample_lp()
    x_star = ce.x0
    grad = ce.metadata.gradient(x_star)
    sign_g = np.sign(grad)
    p_euclid = gradient_mapping(ce.constraint, DiagonalMetric.unit(2), x_star,
                                sign_g, 0.1)
    metric = DiagonalMetric(np.abs(grad))
    p_weighted = gradient_mapping(ce.constraint, metric, x_star, grad, 0.1)
    worst_vi = 0.0
    for _ in range(200):
        step = rng.normal(2) * 0.3
        cand = x_star + step
        if ce.constraint.member(cand):
            worst_vi = min(worst_vi, vi_violation(grad, x_star, cand))
    euclid_broken = (float(np.max(np.abs(p_euclid))) == 0.0 and worst_vi < -1e-9)
    out.append(PropertyResult(
        "geometry.euclidean_fixed_point_masks_vi", euclid_broken,
        worst_vi, -1e-9,
        note="unit-metric mapping vanishes at a non-stationary point"))
    weighted_sees_it = float(np.max(np.abs(p_weighted))) > 1e-9
    out.append(PropertyResult(
        "geometry.weighted_mapping_respects_vi", weighted_sees_it,
        float(np.max(np.abs(p_weighted))), 1e-9,
        note="|grad| metric mapping is nonzero where the VI fails"))
    return out


# ---------------------------------------------------------------------------
# reduction equivalences


def reductions_suite(seed=0):
    out = []
    prob = make_quadratic(10, condition=3.0, seed=seed + 20)

    sgd_like = default_config("zo-adamm", beta1=0.0, beta2=1.0, v0=1.0, vhat0=1.0,
                              alpha=0.05, seed=seed, b=1, q=2)
    sgd = default_config("zo-sgd", alpha=0.05, seed=seed, b=1, q=2)
    budget = 500 * 3  # 500 iterations at b*(q+1) = 3 queries each
    res_a = run_optimizer(prob, sgd_like, budget, keep_iterates=True)
    res_b = run_optimizer(prob, sgd, budget, keep_iterates=True)
    n_iter = min(len(res_a.trace.iterates), len(res_b.trace.iterates))
    worst = max(float(np.max(np.abs(xa - xb))) for xa, xb in
                zip(res_a.trace.iterates, res_b.trace.iterates))
    out.append(_leq("reductions.adamm_equals_sgd_500_iters", worst, 1e-12,
                    note=f"{n_iter - 1} iterations compared"))

    # sign limit: beta1 = beta2 = 0, running max off
    rng = RngStream(seed + 1)
    cfg = default_config("zo-adamm", beta1=0.0, beta2=0.0, use_vhat_max=False,
                         alpha=0.01, seed=seed)
    state = AdaMMState.fresh(10, cfg.v0, cfg.vhat0)
    x = prob.x0.copy()
    exact = True
    for _ in range(200):
        g_hat = averaged_estimator(prob.objective, x, 0.01, 1, 1, rng)
        state, x = zo_adamm_step(state, x, g_hat, cfg, prob.constraint)
        if not np.array_equal(adamm_direction(state), np.sign(g_hat)):
            exact = False
            break
    out.append(PropertyResult("reductions.sign_limit_exact", exact,
                              0.0 if exact else 1.0, 0.0,
                              note="direction equals sign(g) at every step"))
    return out


SUITES = {
    "smoothing": smoothing_suite,
    "estimators": estimators_suite,
    "geometry": geometry_suite,
    "reductions": reductions_suite,
}


def run_suites(names, seed=0):
    results = []
    for name in names:
        results += SUITES[name](seed=seed)
    return results
