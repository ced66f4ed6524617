"""The adaptive-momentum zeroth-order optimizer and six baselines, plus the
query-budgeted run loop.

The adaptive method keeps exponential moving averages

    m <- beta1*m + (1-beta1)*g,   v <- beta2*v + (1-beta2)*g^2,
    v_hat <- max(v_hat, v)        (running max, optional)

and steps x+ = proj_{X, sqrt(v_hat)}(x - alpha_t * m / sqrt(v_hat)), where the
projection minimizes the diagonally weighted distance.  Limiting cases recover
plain (projected) SGD and sign-SGD; see the reduction tests.

Each method is one row of ``METHODS``: its step rule (adaptive, plain or
sign), whether it projects, its estimator and any schedules it requires.
The six baselines share two step functions: ``zo-smd`` is the projected
plain step and ``zo-scd`` the unprojected one.
"""

import logging
import math
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigError, NumericError
from .estimators import (EstimatorConfig, averaged_with_indices, clamp_mu,
                         coordinate_estimate, nes_antithetic_estimate,
                         query_cost)
from .geometry import DiagonalMetric, Unconstrained, mahalanobis_measure
from .metrics import RunResult, Trace, TraceRecord
from .numkit import RngStream, check_finite

log = logging.getLogger("zoopt")


@dataclass(frozen=True)
class Method:
    """One row of ``METHODS``."""
    step: str                  # adaptive | plain | sign
    projected: bool            # False: unconstrained problems only
    attack_alpha: float        # step size for the pinned-victim attacks
    estimator: str = "uniform-two-point"   # default estimator kind
    estimator_required: bool = False       # no other kind but "analytic"
    schedules: dict = field(default_factory=dict)  # required OptConfig values
    mu: float = None           # default estimator mu under those schedules


# The attack step sizes come from a small grid search for the best converged
# objective with a successful attack on the desk-scale attack problems.
METHODS = {
    "zo-adamm": Method("adaptive", True, 0.025),
    "zo-sgd": Method("plain", False, 0.05),
    "zo-signsgd": Method("sign", False, 0.05),
    "zo-scd": Method("plain", False, 0.3, estimator="coordinate",
                     estimator_required=True),
    "zo-psgd": Method("plain", True, 0.05),
    # mirror descent (half-squared-l2 map): alpha/sqrt(t) and mu0/(d*t)
    "zo-smd": Method("plain", True, 0.02,
                     schedules={"alpha_schedule": "inverse-sqrt",
                                "mu_schedule": "inverse-dt"}, mu=1.0),
    # the NES baseline: projected sign step on antithetic Gaussian differences
    "zo-nes": Method("sign", True, 0.02, estimator="nes-antithetic",
                     estimator_required=True),
}


def _row(name):
    if name not in METHODS:
        raise ConfigError(f"optimizer.algorithm: unknown algorithm {name!r}")
    return METHODS[name]


@dataclass
class AdaMMState:
    m: np.ndarray
    v: np.ndarray
    v_hat: np.ndarray
    t: int = 0

    @classmethod
    def fresh(cls, d, v0, vhat0):
        return cls(np.zeros(d), np.full(d, float(v0)), np.full(d, float(vhat0)))


@dataclass
class OptConfig:
    algorithm: str = "zo-adamm"
    beta1: float = 0.9
    beta2: float = 0.3
    alpha: float = 0.1
    alpha_schedule: str = "inverse-sqrt"   # constant | inverse-sqrt
    mu_schedule: str = "inverse-sqrt-Td"   # constant | inverse-sqrt-Td | inverse-dt
    v0: float = 1e-5
    vhat0: float = 1e-5
    use_vhat_max: bool = True
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)
    seed: int = 0
    beta1_decay: bool = False              # beta_{1,t} = beta1/t (convex-regret regime)
    euclidean_projection_override: bool = False  # divergence reproducer; logs a warning

    def echo(self):
        """Every field, with the estimator's flattened in and its ``kind``
        written as ``estimator_kind``."""
        d = {f.name: getattr(self, f.name) for f in fields(self)
             if f.name != "estimator"}
        for f in fields(self.estimator):
            d["estimator_kind" if f.name == "kind" else f.name] = getattr(
                self.estimator, f.name)
        if self.beta2 > 0:
            # momentum/second-moment ratio; the convergence regime needs < 1
            d["gamma"] = self.beta1 / self.beta2
        return d


def step_size(cfg, t):
    if cfg.alpha_schedule == "constant":
        return cfg.alpha
    if cfg.alpha_schedule == "inverse-sqrt":
        return cfg.alpha / math.sqrt(t)
    raise ConfigError("optimizer.alpha_schedule: unknown schedule "
                      f"{cfg.alpha_schedule!r}")


def smoothing_at(cfg, t, d, planned):
    if cfg.mu_schedule == "constant":
        return clamp_mu(cfg.estimator.mu)
    if cfg.mu_schedule == "inverse-sqrt-Td":
        return clamp_mu(1.0 / math.sqrt(max(planned, 1) * d))
    if cfg.mu_schedule == "inverse-dt":
        return clamp_mu(cfg.estimator.mu / (d * t))
    raise ConfigError("optimizer.mu_schedule: unknown schedule "
                      f"{cfg.mu_schedule!r}")


def adamm_direction(state):
    """Descent direction m / sqrt(v_hat), with the 0/0 -> 0 convention so a
    zero gradient history stays put (this is what makes the sign limit exact)."""
    h = np.sqrt(state.v_hat)
    return np.divide(state.m, h, out=np.zeros_like(state.m), where=h > 0)


def zo_adamm_step(state, x, g_hat, cfg, cset):
    """One adaptive-momentum update; returns (new state, new iterate)."""
    if not np.all(np.isfinite(g_hat)):
        raise NumericError("non-finite gradient estimate", x=x, iteration=state.t + 1)
    t = state.t + 1
    b1 = cfg.beta1 / t if cfg.beta1_decay else cfg.beta1
    m = b1 * state.m + (1.0 - b1) * g_hat
    v = cfg.beta2 * state.v + (1.0 - cfg.beta2) * (g_hat * g_hat)
    v_hat = np.maximum(state.v_hat, v) if cfg.use_vhat_max else v
    new_state = AdaMMState(m, v, v_hat, t)
    alpha_t = step_size(cfg, t)
    y = x - alpha_t * adamm_direction(new_state)
    if cfg.euclidean_projection_override or isinstance(cset, Unconstrained):
        x_new = cset.project(y)
    else:
        h = np.sqrt(v_hat)
        if np.any(h <= 0):
            # validate_config rules out v0 = 0 here, so v reached 0 during
            # the run: a zero estimate with beta2 = 0, or an underflow
            raise NumericError("weighted projection needs a positive metric, "
                               "but a coordinate of v is 0; enable "
                               "use_vhat_max with vhat0 > 0", x=x, iteration=t)
        x_new = cset.project_metric(y, h)
    return new_state, x_new


def zo_sgd_step(x, g_hat, alpha_t, cset, projected):
    """x - alpha_t * g_hat, Euclidean-projected when ``projected``."""
    if not projected and not isinstance(cset, Unconstrained):
        raise ConfigError("unprojected step on a constrained set; use the "
                          "projected variant")
    y = x - alpha_t * g_hat
    return cset.project(y) if projected else y


def zo_signsgd_step(x, g_hat, alpha_t, cset, projected):
    """Sign step x - alpha_t * sign(g_hat) (sign(0) = 0), optionally projected."""
    if not projected and not isinstance(cset, Unconstrained):
        raise ConfigError("unprojected step on a constrained set; use the "
                          "projected variant")
    y = x - alpha_t * np.sign(g_hat)
    return cset.project(y) if projected else y


def zo_smd_step(x, g_hat, alpha_t, cset):
    """Mirror-descent step with the half-squared-l2 mirror map: identical
    mechanics to the projected step (the method differs in its schedules)."""
    return cset.project(x - alpha_t * g_hat)


def zo_scd_step(x, sparse_estimate, alpha_t):
    """Coordinate step; coordinates with a zero estimate stay bitwise unchanged."""
    return x - alpha_t * sparse_estimate


def validate_config(cfg, problem, query_budget, max_iters=None,
                    record_measure="auto"):
    """Surface configuration problems before the first iteration."""
    if record_measure not in ("auto", "off"):
        raise ConfigError(f"run.record_measure: unknown mode {record_measure!r}")
    row = _row(cfg.algorithm)
    if not 0.0 <= cfg.beta1 <= 1.0 or not 0.0 <= cfg.beta2 <= 1.0:
        raise ConfigError("optimizer.beta1/beta2 must lie in [0, 1]")
    if not (math.isfinite(cfg.alpha) and cfg.alpha > 0):
        raise ConfigError("optimizer.alpha must be positive and finite")
    for key in ("v0", "vhat0"):
        start = getattr(cfg, key)
        if not (math.isfinite(start) and start >= 0):
            raise ConfigError(f"optimizer.{key} must be nonnegative and finite")
    cfg.estimator.validate()
    # both raise ConfigError on an unknown schedule
    step_size(cfg, 1)
    smoothing_at(cfg, 1, problem.objective.dim, 1)

    if (row.step == "adaptive" and not cfg.euclidean_projection_override
            and not isinstance(problem.constraint, Unconstrained)):
        # the weighted projection's metric is sqrt(v_hat), or sqrt(v) without
        # use_vhat_max; from a zero start, a coordinate no estimate touches
        # stays 0
        key = "vhat0" if cfg.use_vhat_max else "v0"
        if getattr(cfg, key) == 0:
            raise ConfigError(f"optimizer.{key} must be positive for the "
                              "weighted projection when use_vhat_max is "
                              f"{str(cfg.use_vhat_max).lower()}")
    if not row.projected and not isinstance(problem.constraint, Unconstrained):
        raise ConfigError(f"optimizer.algorithm: {cfg.algorithm} handles "
                          "unconstrained problems only")
    for key, value in row.schedules.items():
        if getattr(cfg, key) != value:
            raise ConfigError(f"optimizer.{key}: {cfg.algorithm} requires "
                              f"{value!r}")
    if row.estimator_required and cfg.estimator.kind not in (row.estimator,
                                                             "analytic"):
        raise ConfigError(f"optimizer.kind: {cfg.algorithm} requires the "
                          f"{row.estimator} estimator")
    if cfg.estimator.kind == "analytic" and problem.metadata.gradient is None:
        raise ConfigError("optimizer.kind: analytic estimator needs a problem "
                          "with a recorded gradient")

    if max_iters is not None and max_iters < 0:
        raise ConfigError("run.max_iters: must be >= 0")
    cost = query_cost(cfg.estimator, problem.objective.dim)
    if cost == 0 and max_iters is None:
        raise ConfigError("run.max_iters: required with a query-free estimator")
    if cost > 0 and query_budget < cost:
        raise ConfigError(f"run.query_budget: budget {query_budget} is below one "
                          f"iteration's cost {cost}")
    # the iteration-0 record evaluates the start point before the run loop,
    # where a numeric abort could keep no partial trace
    try:
        start = problem.objective.full_loss(problem.x0)
    except NumericError:
        start = math.nan
    if not math.isfinite(start):
        raise ConfigError(f"problem {problem.tag!r}: the objective is not "
                          "finite at the start point x0")
    return cost


def default_config(algorithm, **overrides):
    """OptConfig preset for a method: its estimator kind and, where it requires
    them, its schedules and their mu; ``overrides`` name fields of OptConfig
    or EstimatorConfig."""
    row = _row(algorithm)
    est = {"kind": row.estimator}
    if row.mu is not None:
        est["mu"] = row.mu
    est.update((f.name, overrides.pop(f.name)) for f in fields(EstimatorConfig)
               if f.name in overrides)
    return OptConfig(algorithm=algorithm, estimator=EstimatorConfig(**est),
                     **{**row.schedules, **overrides})


def run_optimizer(problem, cfg, query_budget, max_iters=None, stride=None,
                  record_measure="auto", keep_iterates=False):
    """Run one optimizer on one problem until the next iteration would exceed
    the query budget (or ``max_iters``).

    Deterministic given (cfg.seed, config): the run owns a fresh counter-based
    stream and the oracle's counter starts at zero.  Numeric blow-ups abort the
    run with the partial trace retained and flagged.
    """
    obj = problem.objective
    cset = problem.constraint
    d = obj.dim
    cost = validate_config(cfg, problem, query_budget, max_iters, record_measure)
    if cfg.euclidean_projection_override:
        log.warning("Euclidean projection override is active: this configuration "
                    "reproduces the non-convergence counterexample")
    row = METHODS[cfg.algorithm]
    rng = RngStream(cfg.seed)

    planned = max_iters if cost == 0 else query_budget // cost
    if max_iters is not None and cost > 0:
        planned = min(planned, max_iters)
    if stride is None or stride < 1:
        stride = 1 if planned <= 2000 else 10

    start_queries = obj.queries
    t0 = time.perf_counter()
    x = np.array(problem.x0, dtype=np.float64)
    state = AdaMMState.fresh(d, cfg.v0, cfg.vhat0)
    trace = Trace()
    if keep_iterates:
        trace.iterates = [x.copy()]
    track_regret = problem.comparator is not None
    # the measure is recorded where the problem carries its gradient
    gradient = problem.metadata.gradient if record_measure == "auto" else None

    def used():
        return obj.queries - start_queries

    def make_record(it, alpha_t):
        rec = TraceRecord(iter=it, queries=used(), loss=obj.full_loss(x))
        if gradient is not None:
            grad = gradient(x)
            if row.step == "adaptive" and it > 0:
                h = np.sqrt(np.maximum(state.v_hat, 1e-300))
            else:
                h = np.ones(d)
            rec.measure_m = mahalanobis_measure(cset, DiagonalMetric(h), x, grad,
                                                alpha_t if it > 0 else cfg.alpha)
            rec.grad_norm_sq = float(np.dot(grad, grad))
        if problem.distortion_fn is not None:
            rec.distortion = problem.distortion_fn(x)
        if problem.success_count_fn is not None:
            rec.success = problem.success_count_fn(x) == problem.n_images
        return rec

    trace.records.append(make_record(0, cfg.alpha))

    t = 0
    try:
        while True:
            if max_iters is not None and t >= max_iters:
                break
            if cost > 0 and used() + cost > query_budget:
                break
            t += 1
            alpha_t = step_size(cfg, t)
            mu_t = smoothing_at(cfg, t, d, planned)
            est = cfg.estimator

            if est.kind == "analytic":
                indices = []
                g_hat = problem.metadata.gradient(x)
            elif est.kind == "uniform-two-point":
                indices = obj.sample_minibatch(est.b, rng)
                g_hat = averaged_with_indices(obj, x, mu_t, indices, est.q, rng,
                                              est.directions)
            elif est.kind == "coordinate":
                indices = obj.sample_minibatch(1, rng)
                coords = rng.choice_without_replacement(d, min(est.q, d))
                g_hat = coordinate_estimate(obj, x, indices[0], mu_t, coords)
            else:  # nes-antithetic
                indices = obj.sample_minibatch(1, rng)
                g_hat = nes_antithetic_estimate(obj, x, indices[0], mu_t, est.q, rng)

            if track_regret:
                if indices:
                    rows = (len(indices), d)
                    ft_x = float(np.mean(obj.peek_batch(np.broadcast_to(x, rows),
                                                        indices)))
                    ft_c = float(np.mean(obj.peek_batch(
                        np.broadcast_to(problem.comparator, rows), indices)))
                else:
                    ft_x = obj.full_loss(x)
                    ft_c = obj.full_loss(problem.comparator)
                trace.sampled_losses.append(ft_x)
                trace.comparator_losses.append(ft_c)

            # step functions are looked up by name on each call, so a wrapper
            # installed on the module sees them
            if row.step == "adaptive":
                state, x = zo_adamm_step(state, x, g_hat, cfg, cset)
            elif row.step == "plain":
                x = zo_sgd_step(x, g_hat, alpha_t, cset, row.projected)
            else:
                x = zo_signsgd_step(x, g_hat, alpha_t, cset, row.projected)
            check_finite(x, "iterate")

            if keep_iterates:
                trace.iterates.append(x.copy())
            if t % stride == 0 or t == planned:
                trace.records.append(make_record(t, alpha_t))
    except NumericError as err:
        trace.aborted = str(err)

    if trace.records[-1].iter != t and trace.aborted is None:
        trace.records.append(make_record(t, step_size(cfg, max(t, 1))))

    trace.total_queries = used()
    random_iter = 1 + int(rng.uniform() * t) if t > 0 else 0
    return RunResult(trace=trace, final_x=x, random_iter=random_iter,
                     config=cfg.echo(), seconds=time.perf_counter() - t0)
