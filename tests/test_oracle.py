import math

import numpy as np
import pytest

from zoopt.errors import NumericError
from zoopt.numkit import RngStream
from zoopt.oracle import StochasticObjective
from zoopt.problems import make_counterexample_lp, make_logistic


def quadratic_obj(d=3):
    return StochasticObjective(d, lambda x, xi: float(np.dot(x, x)))


def test_counterexample_value():
    prob = make_counterexample_lp()
    assert prob.objective.evaluate(np.array([0.5, 0.5])) == -1.5


def test_evaluate_deterministic_and_counted():
    obj = quadratic_obj()
    x = np.array([1.0, 2.0, 3.0])
    v1 = obj.evaluate(x, 0)
    v2 = obj.evaluate(x, 0)
    assert v1 == v2
    assert obj.queries == 2


def test_quadratic_at_origin():
    assert quadratic_obj().evaluate(np.zeros(3)) == 0.0


def test_out_of_range_sample():
    obj = StochasticObjective(2, lambda x, xi: xi * 1.0, n_samples=4)
    with pytest.raises(ValueError):
        obj.evaluate(np.zeros(2), 4)
    with pytest.raises(ValueError):
        obj.evaluate(np.zeros(2), -1)


def test_non_finite_value_reports_x():
    obj = StochasticObjective(1, lambda x, xi: math.inf)
    with pytest.raises(NumericError):
        obj.evaluate(np.array([2.0]))


def test_minibatch_deterministic_objective():
    obj = quadratic_obj()
    rng = RngStream(0)
    assert obj.sample_minibatch(3, rng) == [0, 0, 0]
    assert obj.sample_minibatch(1, rng) == [0]
    assert rng._counter == 0  # no randomness consumed
    with pytest.raises(ValueError):
        obj.sample_minibatch(0, rng)


def test_minibatch_frequencies():
    obj = StochasticObjective(1, lambda x, xi: 0.0, n_samples=10)
    rng = RngStream(1)
    counts = np.zeros(10)
    pooled = obj.sample_minibatch(100_000, rng)
    for i in pooled:
        counts[i] += 1
    freqs = counts / len(pooled)
    assert np.all(np.abs(freqs - 0.1) <= 0.01)


def test_full_loss_matches_evaluate_when_deterministic():
    obj = quadratic_obj()
    x = np.array([1.0, -2.0, 0.5])
    assert obj.full_loss(x) == obj.peek(x, 0)


def test_full_loss_two_samples():
    obj = StochasticObjective(1, lambda x, xi: [1.0, 3.0][xi], n_samples=2)
    assert obj.full_loss(np.zeros(1)) == 2.0


def test_full_loss_never_counts():
    prob = make_logistic(20, 4, seed=0)
    x = np.ones(4) * 0.3
    prob.objective.full_loss(x)
    assert prob.objective.queries == 0
    # brute-force average oracle
    brute = sum(prob.objective.peek(x, i) for i in range(20)) / 20
    assert abs(prob.objective.full_loss(x) - brute) <= 1e-12


def _sum_sq_obj(with_batch, n_samples=None):
    def fn(x, xi):
        return float(np.dot(x, x)) + xi

    def fn_batch(X, xi):
        return np.vecdot(X, X) + xi

    return StochasticObjective(3, fn, n_samples=n_samples,
                               fn_batch=fn_batch if with_batch else None)


@pytest.mark.parametrize("with_batch", [True, False])
def test_evaluate_batch_equals_rowwise_evaluate_and_charges_rows(with_batch):
    obj = _sum_sq_obj(with_batch, n_samples=4)
    X = RngStream(3).normal(15).reshape(5, 3)
    vals = obj.evaluate_batch(X, 2)
    assert obj.queries == 5
    assert [float(v) for v in vals] == [obj.peek(x, 2) for x in X]
    xi = np.array([0, 3, 1, 1, 2])
    assert [float(v) for v in obj.evaluate_batch(X, xi)] == \
        [obj.peek(x, j) for x, j in zip(X, xi)]
    assert obj.queries == 10
    assert np.array_equal(obj.peek_batch(X, xi), obj.evaluate_batch(X, xi))
    assert obj.queries == 15  # peek_batch is uncounted
    assert obj.evaluate_batch(np.empty((0, 3))).shape == (0,)
    assert obj.queries == 15


@pytest.mark.parametrize("with_batch", [True, False])
def test_evaluate_batch_rejects_bad_points_and_indices(with_batch):
    obj = _sum_sq_obj(with_batch, n_samples=4)
    with pytest.raises(ValueError):
        obj.evaluate_batch(np.zeros(3))
    with pytest.raises(ValueError):
        obj.evaluate_batch(np.zeros((2, 4)))
    with pytest.raises(ValueError):
        obj.evaluate_batch(np.zeros((2, 3)), 4)
    with pytest.raises(ValueError):
        obj.evaluate_batch(np.zeros((2, 3)), [0, 4])
    with pytest.raises(ValueError):
        obj.evaluate_batch(np.zeros((2, 3)), [-1, 0])
    with pytest.raises(ValueError):
        obj.evaluate_batch(np.zeros((2, 3)), [0, 1, 2])
    assert obj.queries == 0
    wrong = StochasticObjective(3, lambda x, xi: 0.0,
                                fn_batch=lambda X, xi: np.zeros(len(X) + 1))
    with pytest.raises(ValueError):
        wrong.evaluate_batch(np.zeros((2, 3)))


@pytest.mark.parametrize("with_batch", [True, False])
def test_evaluate_batch_non_finite_charges_rows_before_it(with_batch):
    def fn(x, xi):
        return math.inf if x[0] > 1.0 else float(x[0])

    def fn_batch(X, xi):
        return np.where(X[:, 0] > 1.0, math.inf, X[:, 0])

    X = np.array([[0.0], [0.5], [2.0], [0.1], [3.0]])
    obj = StochasticObjective(1, fn, fn_batch=fn_batch if with_batch else None)
    with pytest.raises(NumericError) as batch_err:
        obj.evaluate_batch(X)
    assert obj.queries == 2
    single = StochasticObjective(1, fn)
    with pytest.raises(NumericError) as single_err:
        for x in X:
            single.evaluate(x)
    assert single.queries == 2
    assert str(batch_err.value) == str(single_err.value)
    assert np.array_equal(batch_err.value.x, X[2])
    with pytest.raises(NumericError):
        obj.peek_batch(X)
    assert obj.queries == 2
