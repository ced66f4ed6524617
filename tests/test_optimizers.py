import math

import numpy as np
import pytest

from zoopt.errors import ConfigError
from zoopt.geometry import Box, SymmetricBand, Unconstrained
from zoopt.numkit import RngStream
from zoopt.optimizers import (METHODS, AdaMMState, adamm_direction,
                              default_config, run_optimizer, smoothing_at,
                              validate_config, zo_adamm_step, zo_scd_step,
                              zo_sgd_step, zo_signsgd_step, zo_smd_step)
from zoopt.problems import (load_victim, make_attack_problem,
                            make_counterexample_lp, make_logistic,
                            make_quadratic)


def test_adamm_step_scalar_recurrence():
    # independent step-through of the moving-average recurrences:
    # m = 0.1*2, v = 0.3*1e-5 + 0.7*4, vhat = max(1e-5, v),
    # x+ = -0.1 * m / sqrt(vhat)
    cfg = default_config("zo-adamm", beta1=0.9, beta2=0.3, alpha=0.1,
                         alpha_schedule="constant", v0=1e-5, vhat0=1e-5)
    state = AdaMMState.fresh(1, 1e-5, 1e-5)
    g = np.array([2.0])
    state, x = zo_adamm_step(state, np.zeros(1), g, cfg, Unconstrained())
    m_ref = 0.1 * 2.0
    v_ref = 0.3 * 1e-5 + 0.7 * 4.0
    vhat_ref = max(1e-5, v_ref)
    assert state.m[0] == pytest.approx(m_ref, abs=1e-15)
    assert state.v[0] == pytest.approx(v_ref, abs=1e-15)
    assert state.v_hat[0] == pytest.approx(vhat_ref, abs=1e-15)
    assert x[0] == pytest.approx(-0.1 * m_ref / math.sqrt(vhat_ref), abs=1e-9)


def test_adamm_sgd_special_case_single_step():
    cfg = default_config("zo-adamm", beta1=0.0, beta2=1.0, v0=1.0, vhat0=1.0,
                         alpha=0.05, alpha_schedule="constant")
    state = AdaMMState.fresh(3, 1.0, 1.0)
    x = np.array([0.2, -0.4, 1.0])
    g = np.array([1.0, -2.0, 0.5])
    _, x_new = zo_adamm_step(state, x, g, cfg, Unconstrained())
    assert np.array_equal(x_new, x - 0.05 * g)


def test_adamm_sign_special_case():
    cfg = default_config("zo-adamm", beta1=0.0, beta2=0.0, use_vhat_max=False,
                         alpha=0.01)
    state = AdaMMState.fresh(4, cfg.v0, cfg.vhat0)
    g = np.array([3.7, -0.002, 0.0, 125.0])
    state, _ = zo_adamm_step(state, np.zeros(4), g, cfg, Unconstrained())
    assert np.array_equal(adamm_direction(state), np.sign(g))
    assert adamm_direction(state)[2] == 0.0  # sign(0) = 0 convention


def test_vhat_monotone_under_max():
    cfg = default_config("zo-adamm", beta1=0.9, beta2=0.3)
    rng = RngStream(1)
    state = AdaMMState.fresh(5, cfg.v0, cfg.vhat0)
    x = np.zeros(5)
    prev = state.v_hat.copy()
    for _ in range(100):
        state, x = zo_adamm_step(state, x, rng.normal(5), cfg, Unconstrained())
        assert np.all(state.v_hat >= prev)
        assert np.all(state.v_hat >= cfg.vhat0)
        prev = state.v_hat.copy()


def test_sgd_step_basics():
    x = np.array([1.0, 2.0])
    assert np.array_equal(zo_sgd_step(x, np.zeros(2), 0.1, Unconstrained(),
                                      projected=False), x)
    box = Box([-0.5, -0.5], [0.5, 0.5])
    out = zo_sgd_step(np.array([0.4, 0.0]), np.array([-5.0, 0.0]), 0.1, box,
                      projected=True)
    assert box.member(out) and out[0] == 0.5
    with pytest.raises(ConfigError):
        zo_sgd_step(x, np.zeros(2), 0.1, box, projected=False)


def test_sgd_descends_with_analytic_gradient():
    prob = make_quadratic(6, condition=5.0, seed=2)
    lg = prob.metadata.grad_lip
    x = prob.x0.copy()
    losses = [prob.objective.peek(x)]
    for _ in range(100):
        x = zo_sgd_step(x, prob.metadata.gradient(x), 0.9 / lg, Unconstrained(),
                        projected=False)
        losses.append(prob.objective.peek(x))
    assert all(b < a or a == 0.0 for a, b in zip(losses, losses[1:]))


def test_signsgd_counterexample_pin():
    band = SymmetricBand([1.0, 1.0], 1.0)
    x = np.array([0.5, 0.5])
    g = np.array([-2.0, -1.0])
    for alpha in (0.001, 0.05, 0.3):
        out = zo_signsgd_step(x, g, alpha, band, projected=True)
        assert np.array_equal(out, x)
    assert np.array_equal(zo_signsgd_step(x, np.zeros(2), 0.1, band,
                                          projected=True), x)
    up = zo_signsgd_step(np.zeros(2), np.array([2.0, 0.1]), 0.25,
                         Unconstrained(), projected=False)
    assert np.array_equal(up, [-0.25, -0.25])


def test_smd_matches_projected_step_and_schedule():
    band = SymmetricBand([1.0, -1.0], 2.0)
    x = np.array([1.5, -1.2])
    g = np.array([0.3, -0.8])
    assert np.array_equal(zo_smd_step(x, g, 0.07, band),
                          zo_sgd_step(x, g, 0.07, band, projected=True))
    cfg = default_config("zo-smd", mu=1.0)
    d = 8
    assert smoothing_at(cfg, 1, d, 100) == pytest.approx(1.0 / d)
    for t in (1, 3, 10):
        assert smoothing_at(cfg, 2 * t, d, 100) == \
            pytest.approx(smoothing_at(cfg, t, d, 100) / 2.0)


def test_scd_step_touches_only_estimated_coordinates():
    x = np.array([0.5, -0.25, 1.0])
    assert np.array_equal(zo_scd_step(x, np.zeros(3), 0.1), x)
    est = np.array([0.0, 2.0, 0.0])
    out = zo_scd_step(x, est, 0.1)
    assert out[0] == x[0] and out[2] == x[2]
    assert out[1] == pytest.approx(-0.45, abs=1e-15)
    prob = make_quadratic(3, condition=2.0, seed=3)
    xr = RngStream(4).normal(3)
    grad = prob.metadata.gradient(xr)
    assert np.max(np.abs(zo_scd_step(xr, grad, 0.05)
                         - (xr - 0.05 * grad))) <= 1e-9


def test_run_budget_too_small_errors():
    prob = make_quadratic(5, seed=5)
    cfg = default_config("zo-adamm", b=1, q=10)
    with pytest.raises(ConfigError):
        run_optimizer(prob, cfg, 10)  # one iteration needs 11 queries


@pytest.mark.parametrize("key", ["alpha_schedule", "mu_schedule"])
def test_validate_config_rejects_unknown_schedules(key):
    cfg = default_config("zo-adamm", **{key: "bogus"})
    with pytest.raises(ConfigError, match=key):
        validate_config(cfg, make_quadratic(4), 110)


def test_run_deterministic():
    prob_a = make_quadratic(6, condition=3.0, seed=6)
    prob_b = make_quadratic(6, condition=3.0, seed=6)
    cfg = default_config("zo-adamm", seed=9, b=1, q=3)
    res_a = run_optimizer(prob_a, cfg, 400, keep_iterates=True)
    res_b = run_optimizer(prob_b, cfg, 400, keep_iterates=True)
    assert len(res_a.trace.records) == len(res_b.trace.records)
    for ra, rb in zip(res_a.trace.records, res_b.trace.records):
        assert ra == rb
    for xa, xb in zip(res_a.trace.iterates, res_b.trace.iterates):
        assert np.array_equal(xa, xb)
    assert res_a.random_iter == res_b.random_iter


def test_run_query_budget_accounting():
    prob = make_quadratic(6, seed=7)
    cfg = default_config("zo-adamm", seed=0, b=1, q=4)  # 5 queries/iteration
    res = run_optimizer(prob, cfg, 103)
    assert res.trace.total_queries <= 103
    assert res.trace.total_queries > 103 - 5
    assert res.trace.total_queries == (103 // 5) * 5  # closed-form budget
    assert prob.objective.queries == res.trace.total_queries
    queries = [r.queries for r in res.trace.records]
    assert all(b > a for a, b in zip(queries, queries[1:]))


@pytest.mark.parametrize("algo", [n for n, m in METHODS.items() if m.projected])
def test_constrained_run_iterates_feasible(algo):
    prob = make_logistic(30, 6, seed=8, radius=1.0)
    cfg = default_config(algo, seed=3, alpha=0.5, b=1, q=2)
    res = run_optimizer(prob, cfg, 600, keep_iterates=True)
    for xt in res.trace.iterates:
        assert prob.constraint.member(xt, tol=1e-12)


@pytest.mark.parametrize("algo", [n for n, m in METHODS.items()
                                  if not m.projected])
def test_unconstrained_algorithms_reject_constraints(algo):
    prob = make_logistic(10, 4, seed=9)
    with pytest.raises(ConfigError):
        run_optimizer(prob, default_config(algo), 200)
    assert prob.objective.queries == 0


ESTIMATOR_KINDS = ("uniform-two-point", "coordinate", "nes-antithetic",
                   "analytic")
SCHEDULES = {"alpha_schedule": ("constant", "inverse-sqrt"),
             "mu_schedule": ("constant", "inverse-sqrt-Td", "inverse-dt")}


@pytest.mark.parametrize("algo", list(METHODS))
def test_required_estimator_and_schedules_are_enforced(algo):
    """A row's required estimator (or the analytic one) and its required
    schedule values are the only ones its runs accept; other rows take any."""
    row = METHODS[algo]

    def accepted(**overrides):
        prob = make_quadratic(4, seed=1)
        try:
            run_optimizer(prob, default_config(algo, **overrides), 100,
                          max_iters=2)
        except ConfigError:
            assert prob.objective.queries == 0
            return False
        return True

    assert accepted()
    for kind in ESTIMATOR_KINDS:
        assert accepted(kind=kind) == (not row.estimator_required
                                       or kind in (row.estimator, "analytic"))
    for key, values in SCHEDULES.items():
        for value in values:
            assert accepted(**{key: value}) == \
                (row.schedules.get(key, value) == value)


def test_adamm_matches_sgd_trajectory():
    budget = 500 * 3
    prob_a = make_quadratic(10, condition=2.0, seed=10)
    prob_b = make_quadratic(10, condition=2.0, seed=10)
    adamm = default_config("zo-adamm", beta1=0.0, beta2=1.0, v0=1.0, vhat0=1.0,
                           alpha=0.05, seed=21, b=1, q=2)
    sgd = default_config("zo-sgd", alpha=0.05, seed=21, b=1, q=2)
    res_a = run_optimizer(prob_a, adamm, budget, keep_iterates=True)
    res_b = run_optimizer(prob_b, sgd, budget, keep_iterates=True)
    assert len(res_a.trace.iterates) == 501
    for xa, xb in zip(res_a.trace.iterates, res_b.trace.iterates):
        assert np.max(np.abs(xa - xb)) <= 1e-12


def test_euclidean_override_divergence_and_weighted_escape():
    prob = make_counterexample_lp()
    shared = dict(beta1=0.0, beta2=0.0, use_vhat_max=False, alpha=0.1,
                  alpha_schedule="inverse-sqrt", kind="analytic", seed=0)
    res_e = run_optimizer(prob, default_config("zo-adamm",
                                               euclidean_projection_override=True,
                                               **shared),
                          0, max_iters=1000, keep_iterates=True,
                          record_measure="off")
    assert all(np.array_equal(xt, [0.5, 0.5]) for xt in res_e.trace.iterates)

    res_m = run_optimizer(prob, default_config("zo-adamm", **shared),
                          0, max_iters=1000, keep_iterates=True,
                          record_measure="off")
    x1 = [xt[0] for xt in res_m.trace.iterates]
    assert all(b > a for a, b in zip(x1, x1[1:]))
    assert all(prob.constraint.member(xt, tol=1e-12)
               for xt in res_m.trace.iterates)
    assert res_m.final_x[0] > 0.5


def test_numeric_abort_keeps_partial_trace():
    from zoopt.oracle import StochasticObjective
    from zoopt.problems import ProblemSpec
    from zoopt.oracle import ProblemMetadata

    calls = {"n": 0}

    def explode(x, xi):
        calls["n"] += 1
        return math.nan if calls["n"] > 30 else float(np.dot(x, x))

    prob = ProblemSpec(StochasticObjective(3, explode), Unconstrained(),
                       ProblemMetadata(), np.zeros(3), tag="explode")
    cfg = default_config("zo-adamm", seed=1, b=1, q=1)
    res = run_optimizer(prob, cfg, 200)
    assert res.trace.aborted is not None
    assert len(res.trace.records) >= 1


def test_zero_v0_without_vhat_max_is_rejected_only_when_projected():
    cfg = default_config("zo-adamm", kind="coordinate", q=2, v0=0.0,
                         use_vhat_max=False)
    with pytest.raises(ConfigError, match="optimizer.v0"):
        validate_config(cfg, make_logistic(20, 5, seed=0, radius=0.5), 200)
    # no weighted projection, so a zero coordinate of v only stalls it
    validate_config(cfg, make_quadratic(5), 200)


def test_vhat0_is_checked_as_v0_is():
    cfg = default_config("zo-adamm", vhat0=0.0)
    with pytest.raises(ConfigError, match="optimizer.vhat0"):
        validate_config(cfg, make_logistic(20, 5, seed=0, radius=0.5), 200)
    # no weighted projection: v_hat is max(0, v) > 0 and the run descends
    res = run_optimizer(make_quadratic(5), cfg, 200)
    assert res.trace.records[-1].loss < res.trace.records[0].loss
    # nan or inf in v_hat zeroes every step, so the run would never move
    for bad in (math.nan, math.inf, -1.0):
        with pytest.raises(ConfigError, match="optimizer.vhat0"):
            run_optimizer(make_quadratic(5),
                          default_config("zo-adamm", vhat0=bad), 200)


def test_second_moment_reaching_zero_aborts_the_run():
    # beta2 = 0 makes v the last squared estimate, which is 0 on the
    # coordinates the estimate skips
    cfg = default_config("zo-adamm", kind="coordinate", q=2, beta2=0.0,
                         use_vhat_max=False)
    res = run_optimizer(make_logistic(20, 5, seed=0, radius=0.5), cfg, 200)
    assert "positive metric" in res.trace.aborted
    assert "(iteration 1)" in res.trace.aborted
    assert [rec.iter for rec in res.trace.records] == [0]


def test_analytic_estimator_needs_max_iters_and_gradient():
    prob = make_quadratic(4, seed=11)
    cfg = default_config("zo-adamm", kind="analytic")
    with pytest.raises(ConfigError):
        run_optimizer(prob, cfg, 100)  # no max_iters with a query-free estimator
    res = run_optimizer(prob, cfg, 0, max_iters=50)
    assert res.trace.total_queries == 0
    assert len(res.trace.sampled_losses) == 0


def test_beta1_decay_schedule():
    cfg = default_config("zo-adamm", beta1=0.8, beta2=0.5, beta1_decay=True,
                         alpha=0.1, alpha_schedule="constant")
    state = AdaMMState.fresh(1, cfg.v0, cfg.vhat0)
    g = np.array([1.0])
    state, _ = zo_adamm_step(state, np.zeros(1), g, cfg, Unconstrained())
    # t=1: beta_{1,1} = 0.8
    assert state.m[0] == pytest.approx(0.2 * 1.0, abs=1e-15)
    state, _ = zo_adamm_step(state, np.zeros(1), g, cfg, Unconstrained())
    # t=2: beta_{1,2} = 0.4
    assert state.m[0] == pytest.approx(0.4 * 0.2 + 0.6 * 1.0, abs=1e-15)


def test_random_iterate_index_in_range():
    prob = make_quadratic(4, seed=12)
    cfg = default_config("zo-adamm", seed=5, b=1, q=1)
    res = run_optimizer(prob, cfg, 100)  # 50 iterations at 2 queries each
    assert 1 <= res.random_iter <= 50


def test_auto_measure_is_left_empty_for_black_box_problems():
    model, inputs, labels = load_victim()
    cfg = default_config("zo-adamm", seed=2, b=1, q=1)
    runs = {mode: run_optimizer(make_attack_problem(model, [inputs[0]],
                                                    [labels[0]]),
                                cfg, 8, record_measure=mode)
            for mode in ("auto", "off")}
    assert all(r.measure_m is None and r.grad_norm_sq is None
               for r in runs["auto"].trace.records)
    assert runs["auto"].trace.records == runs["off"].trace.records
    # 4 iterations at 2 queries each: recording adds no query
    assert runs["auto"].trace.total_queries == 8


def test_off_skips_the_measure_and_changes_nothing_else():
    cfg = default_config("zo-adamm", seed=3)
    auto, off = (run_optimizer(make_quadratic(6, seed=1), cfg, 330,
                               record_measure=mode) for mode in ("auto", "off"))
    assert all(r.measure_m is not None and r.grad_norm_sq is not None
               for r in auto.trace.records)
    assert all(r.measure_m is None and r.grad_norm_sq is None
               for r in off.trace.records)
    assert ([(r.iter, r.queries, r.loss) for r in auto.trace.records]
            == [(r.iter, r.queries, r.loss) for r in off.trace.records])
    assert np.array_equal(auto.final_x, off.final_x)
    assert auto.random_iter == off.random_iter


@pytest.mark.parametrize("overrides", [
    {"alpha": math.nan}, {"alpha": math.inf}, {"alpha": -math.inf},
    {"mu": math.nan, "mu_schedule": "constant"},
    {"mu": math.inf, "mu_schedule": "constant"},
    {"mu": math.nan},
])
def test_non_finite_step_or_smoothing_is_a_config_error(overrides):
    prob = make_quadratic(5)
    with pytest.raises(ConfigError):
        run_optimizer(prob, default_config("zo-adamm", **overrides), 1000)
    assert prob.objective.queries == 0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_objective_not_finite_at_the_start_point_is_a_config_error():
    # the sampled noise overflows every value at x0 = 0
    prob = make_quadratic(3, n_samples=3, noise=1e308)
    with pytest.raises(ConfigError, match="'quadratic'.*start point"):
        run_optimizer(prob, default_config("zo-adamm"), 100)
    assert prob.objective.queries == 0
