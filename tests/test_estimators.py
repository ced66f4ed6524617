import math

import numpy as np
import pytest

from zoopt.errors import NumericError
from zoopt.estimators import (MU_FLOOR, averaged_estimator,
                              averaged_with_indices, clamp_mu,
                              coordinate_estimate, nes_antithetic_estimate,
                              two_point_estimates, two_point_uniform)
from zoopt import numkit
from zoopt.numkit import RngStream, sample_unit_sphere
from zoopt.oracle import StochasticObjective
from zoopt.problems import make_quadratic


class FixedDirection:
    """rng stand-in emitting preset direction vectors (already unit length)."""

    def __init__(self, *vecs):
        self.vecs = [np.array(v, dtype=float) for v in vecs]
        self.k = 0

    def normal(self, n):
        v = self.vecs[self.k % len(self.vecs)]
        self.k += 1
        assert n == v.shape[0]
        return v.copy()


def linear_obj(a):
    a = np.array(a, dtype=float)
    return StochasticObjective(a.shape[0], lambda x, xi: float(np.dot(a, x)))


def constant_obj(d, c=3.7):
    return StochasticObjective(d, lambda x, xi: c)


def test_two_point_linear_fixed_direction():
    obj = linear_obj([-2.0, -1.0])
    g = two_point_uniform(obj, np.zeros(2), 0, 0.1, FixedDirection([1.0, 0.0]))
    assert np.allclose(g, [-4.0, 0.0], atol=1e-12)


def test_two_point_constant_is_zero():
    rng = RngStream(0)
    for _ in range(20):
        g = two_point_uniform(constant_obj(4), np.ones(4), 0, 0.05, rng)
        assert np.array_equal(g, np.zeros(4))


def test_two_point_mean_zero_at_quadratic_minimum():
    obj = StochasticObjective(3, lambda x, xi: float(np.dot(x, x)))
    rng = RngStream(1)
    n = 30_000
    ests = np.empty((n, 3))
    for k in range(n):
        ests[k] = two_point_uniform(obj, np.zeros(3), 0, 0.05, rng)
    se = ests.std(axis=0, ddof=1) / math.sqrt(n)
    assert np.all(np.abs(ests.mean(axis=0)) <= 4.0 * se)


def test_averaged_reduces_to_two_point():
    prob = make_quadratic(5, condition=2.0, seed=3)
    x = np.ones(5) * 0.3
    g1 = averaged_estimator(prob.objective, x, 0.02, 1, 1, RngStream(9))
    g2 = two_point_uniform(prob.objective, x, 0, 0.02, RngStream(9))
    assert np.array_equal(g1, g2)


def test_averaged_variance_ratio_q10_vs_q1():
    prob = make_quadratic(20, condition=2.0, seed=4)
    x = np.full(20, 0.4)
    rng = RngStream(5)
    n = 2000

    def total_var(q):
        ests = np.empty((n, 20))
        for k in range(n):
            ests[k] = averaged_estimator(prob.objective, x, 0.01, 1, q, rng)
        c = ests - ests.mean(axis=0)
        return float((c * c).sum() / (n - 1))

    ratio = total_var(10) / total_var(1)
    assert 0.075 <= ratio <= 0.125  # 0.1 +/- 25%


def test_averaged_constant_zero():
    g = averaged_estimator(constant_obj(3), np.zeros(3), 0.1, 2, 4, RngStream(6))
    assert np.array_equal(g, np.zeros(3))


def test_coordinate_central_difference_quadratic():
    obj = StochasticObjective(3, lambda x, xi: float(np.dot(x, x)))
    x = np.array([1.0, 0.0, 0.0])
    g = coordinate_estimate(obj, x, 0, 0.01, [0])
    assert g[0] == pytest.approx(2.0, abs=1e-12)
    assert g[1] == 0.0 and g[2] == 0.0


def test_coordinate_linear_exact_any_mu():
    a = [1.5, -0.25, 4.0]
    obj = linear_obj(a)
    for mu in (1e-4, 0.01, 0.5):
        g = coordinate_estimate(obj, np.zeros(3), 0, mu, [0, 1, 2])
        assert np.allclose(g, a, atol=1e-9)


def test_coordinate_full_matches_analytic_gradient():
    prob = make_quadratic(6, condition=10.0, seed=7)
    rng = RngStream(8)
    x = rng.uniform(6) * 2 - 1
    g = coordinate_estimate(prob.objective, x, 0, 1e-4, list(range(6)))
    assert np.max(np.abs(g - prob.metadata.gradient(x))) <= 1e-9


def test_coordinate_rejects_duplicates_and_empty():
    obj = linear_obj([1.0, 2.0])
    with pytest.raises(ValueError):
        coordinate_estimate(obj, np.zeros(2), 0, 0.01, [0, 0])
    with pytest.raises(ValueError):
        coordinate_estimate(obj, np.zeros(2), 0, 0.01, [])


def test_nes_constant_zero():
    g = nes_antithetic_estimate(constant_obj(4), np.zeros(4), 0, 0.1, 3,
                                RngStream(10))
    assert np.array_equal(g, np.zeros(4))


def test_nes_linear_mean_recovers_slope():
    a = np.array([0.5, -1.0, 2.0])
    obj = linear_obj(a)
    rng = RngStream(11)
    n = 20_000
    ests = np.empty((n, 3))
    for k in range(n):
        ests[k] = nes_antithetic_estimate(obj, np.zeros(3), 0, 0.05, 1, rng)
    se = ests.std(axis=0, ddof=1) / math.sqrt(n)
    assert np.all(np.abs(ests.mean(axis=0) - a) <= 4.0 * se)


def test_nes_antithetic_symmetry():
    prob = make_quadratic(4, condition=3.0, seed=12)
    x = np.full(4, 0.2)
    u = np.array([0.3, -1.2, 0.7, 0.1])
    g_pos = nes_antithetic_estimate(prob.objective, x, 0, 0.05, 1,
                                    FixedDirection(u))
    g_neg = nes_antithetic_estimate(prob.objective, x, 0, 0.05, 1,
                                    FixedDirection(-u))
    assert np.allclose(g_pos, g_neg, atol=1e-12)


def test_query_costs_exact():
    prob = make_quadratic(6, seed=0, n_samples=5)
    rng = RngStream(13)
    x = np.zeros(6)
    averaged_estimator(prob.objective, x, 0.01, 3, 4, rng)
    assert prob.objective.queries == 3 * 5
    prob2 = make_quadratic(6, seed=0)
    two_point_uniform(prob2.objective, x, 0, 0.01, rng)
    assert prob2.objective.queries == 2
    prob3 = make_quadratic(6, seed=0)
    nes_antithetic_estimate(prob3.objective, x, 0, 0.01, 5, rng)
    assert prob3.objective.queries == 10
    prob4 = make_quadratic(6, seed=0)
    coordinate_estimate(prob4.objective, x, 0, 0.01, [1, 3])
    assert prob4.objective.queries == 4


def test_mu_clamp():
    assert clamp_mu(0.5) == 0.5
    assert clamp_mu(1e-12) == MU_FLOOR
    with pytest.raises(ValueError):
        clamp_mu(0.0)
    with pytest.raises(ValueError):
        clamp_mu(-1.0)


def test_gaussian_direction_ablation():
    # Gaussian directions drop the dimension factor: on a linear objective a
    # single estimate is (a.u) u
    obj = linear_obj([-2.0, -1.0])
    u = np.array([1.0, 0.0])
    g = two_point_uniform(obj, np.zeros(2), 0, 0.1, FixedDirection(u),
                          directions="gaussian")
    assert np.allclose(g, [-2.0, 0.0], atol=1e-12)
    rng = RngStream(20)
    n = 20_000
    ests = np.empty((n, 2))
    for k in range(n):
        ests[k] = two_point_uniform(obj, np.zeros(2), 0, 0.1, rng,
                                    directions="gaussian")
    se = ests.std(axis=0, ddof=1) / math.sqrt(n)
    assert np.all(np.abs(ests.mean(axis=0) - [-2.0, -1.0]) <= 4 * se)


# the estimators as first written, one direction and one query at a time: the
# reference for the block-drawn, batch-evaluated versions


def _averaged_one_at_a_time(obj, x, mu, indices, q, rng):
    base = [obj.evaluate(x, j) for j in indices]
    g = np.zeros(obj.dim)
    scale = (obj.dim / mu) / (len(indices) * q)
    for _ in range(q):
        u = sample_unit_sphere(obj.dim, rng)
        coeff = 0.0
        for k, j in enumerate(indices):
            coeff += obj.evaluate(x + mu * u, j) - base[k]
        g += (scale * coeff) * u
    return g


def _two_point_one_at_a_time(obj, x, xi, mu, rng):
    u = sample_unit_sphere(obj.dim, rng)
    base = obj.evaluate(x, xi)
    fwd = obj.evaluate(x + mu * u, xi)
    return ((obj.dim / mu) * (fwd - base)) * u


def _nes_one_at_a_time(obj, x, xi, mu, q, rng):
    g = np.zeros(obj.dim)
    for _ in range(q):
        u = rng.normal(obj.dim)
        g += (obj.evaluate(x + mu * u, xi) - obj.evaluate(x - mu * u, xi)) * u
    g /= 2.0 * q * mu
    return g


def _coordinate_one_at_a_time(obj, x, xi, mu, coords):
    g = np.zeros(obj.dim)
    for i in coords:
        step = np.zeros(obj.dim)
        step[i] = mu
        g[i] = (obj.evaluate(x + step, xi) - obj.evaluate(x - step, xi)) / (2.0 * mu)
    return g


def _fails_at_call(k, n_samples):
    """Finite-sum objective that turns infinite at its k-th call."""
    calls = [0]

    def fn(x, xi):
        calls[0] += 1
        return math.inf if calls[0] == k else float(np.dot(x, x)) + xi

    return StochasticObjective(4, fn, n_samples=n_samples)


CALLS = {
    "averaged": (lambda obj, rng: averaged_with_indices(obj, X4, 0.05, [2, 0], 3, rng),
                 lambda obj, rng: _averaged_one_at_a_time(obj, X4, 0.05, [2, 0], 3, rng),
                 8),
    "nes": (lambda obj, rng: nes_antithetic_estimate(obj, X4, 1, 0.05, 3, rng),
            lambda obj, rng: _nes_one_at_a_time(obj, X4, 1, 0.05, 3, rng), 6),
    "two-point": (lambda obj, rng: two_point_uniform(obj, X4, 1, 0.05, rng),
                  lambda obj, rng: _two_point_one_at_a_time(obj, X4, 1, 0.05, rng),
                  2),
    "two-point-x3": (lambda obj, rng: two_point_estimates(obj, X4, 1, 0.05, 3, rng),
                     lambda obj, rng: np.array([_two_point_one_at_a_time(
                         obj, X4, 1, 0.05, rng) for _ in range(3)]),
                     6),
    "coordinate": (lambda obj, rng: coordinate_estimate(obj, X4, 1, 0.05, [3, 0, 2]),
                   lambda obj, rng: _coordinate_one_at_a_time(obj, X4, 1, 0.05, [3, 0, 2]),
                   6),
}
X4 = np.array([0.3, -0.1, 0.8, 0.05])


@pytest.mark.parametrize("name", sorted(CALLS))
def test_estimators_match_one_query_at_a_time(name):
    batched, reference, cost = CALLS[name]
    obj_a, obj_b = _fails_at_call(0, 3), _fails_at_call(0, 3)
    rng_a, rng_b = RngStream(31), RngStream(31)
    got, want = batched(obj_a, rng_a), reference(obj_b, rng_b)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert obj_a.queries == obj_b.queries == cost
    assert rng_a._counter == rng_b._counter
    # an abort at any query leaves the count, the error and the stream where
    # the one-at-a-time loop leaves them
    for k in range(1, cost + 1):
        obj_a, obj_b = _fails_at_call(k, 3), _fails_at_call(k, 3)
        rng_a, rng_b = RngStream(31), RngStream(31)
        with pytest.raises(NumericError) as err_a:
            batched(obj_a, rng_a)
        with pytest.raises(NumericError) as err_b:
            reference(obj_b, rng_b)
        assert obj_a.queries == obj_b.queries == k - 1
        assert str(err_a.value) == str(err_b.value)
        assert rng_a._counter == rng_b._counter


@pytest.mark.parametrize("name", sorted(CALLS))
def test_estimators_match_one_query_at_a_time_in_one_direction_steps(name,
                                                                     monkeypatch):
    # 8 words: each block_spans step holds one direction of X4's averaged
    # estimator (b*d = 8) and one two-point estimate (2*d = 8)
    monkeypatch.setattr(numkit, "BLOCK_WORDS", 8)
    assert len(list(numkit.block_spans(3, 8))) == 3
    test_estimators_match_one_query_at_a_time(name)


def test_two_point_estimates_report_the_first_non_finite_estimate():
    # values near the double range: a difference of two finite values can
    # overflow, which the estimate check must catch, reporting that estimate
    def fn(x, xi):
        return -1.7e308 if x[0] > 0.5 else 1.7e308

    rng, block_rng = RngStream(32), RngStream(32)
    x = np.array([0.5, 0.0, 0.0])
    singles = []
    block_obj = StochasticObjective(3, fn)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError) as single_err:
            for _ in range(6):
                singles.append(two_point_uniform(StochasticObjective(3, fn), x, 0,
                                                 0.1, rng))
        with pytest.raises(NumericError) as block_err:
            two_point_estimates(block_obj, x, 0, 0.1, 6, block_rng)
    assert singles  # an earlier estimate was finite
    assert str(block_err.value) == str(single_err.value)
    assert np.array_equal(block_err.value.x, single_err.value.x)
    # the stream stops where the loop stops; the six estimates were one
    # block_spans step, so all of its queries stay charged
    assert block_rng._counter == rng._counter
    assert block_obj.queries == 12
