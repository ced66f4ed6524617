import itertools
import math

import numpy as np
import pytest

from zoopt import geometry
from zoopt.errors import NumericError
from zoopt.geometry import (Box, DiagonalMetric, L2Ball, SymmetricBand,
                            Unconstrained, gradient_mapping,
                            mahalanobis_measure, vi_violation)
from zoopt.numkit import RngStream, check_finite
from zoopt.optimizers import AdaMMState, default_config, zo_adamm_step

BAND = SymmetricBand([1.0, 1.0], 1.0)


def test_member_point_unchanged():
    y = np.array([0.3, -0.2])
    assert np.array_equal(BAND.project(y), y)
    assert np.array_equal(BAND.project_metric(y, np.array([2.0, 5.0])), y)


def test_band_projection_pins_corner():
    for alpha in (1e-6, 0.01, 0.3, 0.49):
        y = np.array([0.5 + alpha, 0.5 + alpha])
        assert np.array_equal(BAND.project(y), [0.5, 0.5])


def test_box_clamp():
    box = Box([-0.5, -0.5], [0.5, 0.5])
    assert np.array_equal(box.project([0.7, -0.9]), [0.5, -0.5])


def test_weighted_band_closed_form():
    # KKT for h=[2,1], y=[0.8, 0.8] gives [0.5 + alpha/3, 0.5 - alpha/3]
    got = BAND.project_metric([0.8, 0.8], np.array([2.0, 1.0]))
    assert np.allclose(got, [0.6, 0.4], atol=1e-6)
    # numerical oracle: scan the active hyperplane x1 + x2 = 1 finely
    ts = np.linspace(-2, 3, 200_001)
    cands = np.stack([ts, 1.0 - ts], axis=1)
    wd = 2.0 * (cands[:, 0] - 0.8) ** 2 + (cands[:, 1] - 0.8) ** 2
    best = cands[np.argmin(wd)]
    assert np.allclose(got, best, atol=1e-4)
    wd_got = 2.0 * (got[0] - 0.8) ** 2 + (got[1] - 0.8) ** 2
    assert wd_got <= wd.min() + 1e-9


def test_unit_metric_matches_euclidean():
    rng = RngStream(0)
    sets = [BAND, Box([-1.0, -0.3], [0.2, 0.8]), L2Ball([0.5, -0.5], 0.7),
            Unconstrained()]
    for _ in range(1000):
        y = rng.normal(2) * 2.0
        cset = sets[int(rng.uniform() * len(sets))]
        pe = cset.project(y)
        pm = cset.project_metric(y, np.ones(2))
        assert np.max(np.abs(pe - pm)) <= 1e-12


def test_weighted_box_is_exact_clamp():
    rng = RngStream(1)
    for _ in range(200):
        lo = rng.normal(4) - 1.0
        box = Box(lo, lo + 0.2 + rng.uniform(4))
        h = 0.1 + rng.uniform(4) * 4.0
        y = rng.normal(4) * 3.0
        assert np.array_equal(box.project_metric(y, h),
                              np.clip(y, box.lo, box.hi))


def test_projection_idempotent_and_feasible():
    rng = RngStream(2)
    for _ in range(300):
        d = 2 + int(rng.uniform() * 3)
        cset = [Unconstrained(),
                Box(-np.ones(d), np.ones(d) * 0.5),
                SymmetricBand(rng.normal(d), 0.5 + rng.uniform()),
                L2Ball(rng.normal(d), 0.3 + rng.uniform())][int(rng.uniform() * 4)]
        h = 0.2 + rng.uniform(d) * 2.0
        y = rng.normal(d) * 3.0
        for proj in (cset.project, lambda v: cset.project_metric(v, h)):
            p = proj(y)
            assert cset.member(p, tol=1e-12)
            assert np.max(np.abs(proj(p) - p)) <= 1e-12


def test_gradient_mapping_unconstrained():
    g = np.array([1.5, -2.0])
    p = gradient_mapping(Unconstrained(), DiagonalMetric.unit(2), np.zeros(2),
                         g, 0.1)
    assert np.array_equal(p, g)
    h = np.array([4.0, 0.25])
    p = gradient_mapping(Unconstrained(), DiagonalMetric(h), np.zeros(2), g, 0.1)
    assert np.array_equal(p, g / h)


def test_gradient_mapping_inactive_constraint():
    box = Box([-10.0, -10.0], [10.0, 10.0])
    h = np.array([2.0, 3.0])
    g = np.array([1.0, -0.5])
    x = np.array([0.1, 0.2])
    p = gradient_mapping(box, DiagonalMetric(h), x, g, 1e-3)
    assert np.allclose(p, g / h, atol=1e-12)


def test_gradient_mapping_counterexample_fixed_point():
    # Euclidean metric and sign gradient: the mapping vanishes although the
    # true gradient does not
    sign_g = np.array([-1.0, -1.0])
    p = gradient_mapping(BAND, DiagonalMetric.unit(2), np.array([0.5, 0.5]),
                         sign_g, 0.2)
    assert np.array_equal(p, np.zeros(2))


def test_measure_examples():
    m = mahalanobis_measure(Unconstrained(), DiagonalMetric.unit(2),
                            np.zeros(2), np.array([3.0, 4.0]), 0.1)
    assert m == 25.0
    # h = sqrt(vhat) = [4, 1]: measure = sum g_i^2 / h_i
    m = mahalanobis_measure(Unconstrained(), DiagonalMetric([4.0, 1.0]),
                            np.zeros(2), np.array([2.0, 1.0]), 0.1)
    assert m == pytest.approx(2.0, abs=1e-12)
    m = mahalanobis_measure(BAND, DiagonalMetric.unit(2), np.array([0.5, 0.5]),
                            np.array([-1.0, -1.0]), 0.2)
    assert m == 0.0


def test_vi_violation_examples():
    grad = np.array([-2.0, -1.0])
    x_star = np.array([0.5, 0.5])
    assert vi_violation(grad, x_star, np.array([0.6, 0.4])) == \
        pytest.approx(-0.1, abs=1e-12)
    assert vi_violation(grad, x_star, x_star) == 0.0
    assert vi_violation(np.zeros(2), x_star, np.array([7.0, -3.0])) == 0.0


def test_l2ball_projections():
    ball = L2Ball([0.0, 0.0], 2.0)
    y = np.array([6.0, 8.0])
    assert np.allclose(ball.project(y), [1.2, 1.6], atol=1e-12)
    # weighted projection still lands on the sphere and beats a feasible sweep
    h = np.array([5.0, 1.0])
    p = ball.project_metric(y, h)
    assert abs(np.linalg.norm(p) - 2.0) <= 1e-9
    thetas = np.linspace(0, 2 * np.pi, 100_000)
    cands = 2.0 * np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    wd = (h * (cands - y) ** 2).sum(axis=1)
    assert float(np.dot(h * (p - y), p - y)) <= wd.min() + 1e-6


def test_invalid_sets():
    with pytest.raises(ValueError):
        Box([1.0], [0.0])
    with pytest.raises(ValueError):
        SymmetricBand([0.0, 0.0], 1.0)
    with pytest.raises(ValueError):
        SymmetricBand([1.0], 0.0)
    with pytest.raises(ValueError):
        L2Ball([0.0], -1.0)
    with pytest.raises(ValueError):
        DiagonalMetric([1.0, 0.0])


def _bisection_projection(ball, y, h, cap=200):
    """``L2Ball.project_metric`` as first written: bisection on the KKT
    multiplier, kept as the oracle for the search that replaced it.  The
    first version stopped after ``cap`` = 200 halvings; ``cap=None`` lifts
    that, so the bisection stops only at adjacent doubles."""
    c, r = ball.center, ball.radius
    diff = y - c
    if math.sqrt(float(np.dot(diff, diff))) <= r:
        return y

    def radius_sq(lam):
        v = h * diff / (h + lam)
        return float(np.dot(v, v))

    lo, hi = 0.0, 1.0
    while radius_sq(hi) > r * r:
        hi *= 2.0
    for _ in itertools.count() if cap is None else range(cap):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if radius_sq(mid) > r * r:
            lo = mid
        else:
            hi = mid
    return c + h * diff / (h + hi)


def _assert_matches_bisection(center, radius, y, h, cap=200):
    ball = L2Ball(center, radius)
    y = np.asarray(y, dtype=np.float64)
    with np.errstate(all="ignore"):
        want = _bisection_projection(ball, y, h, cap)
        got = ball.project_metric(y, h)
    assert np.array_equal(got, want, equal_nan=True), (got, want)
    return got


def test_weighted_ball_projection_matches_bisection_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=400, deadline=None)
    @hypothesis.given(data=st.data())
    def check(data):
        d = data.draw(st.integers(1, 40), label="d")
        vec = st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)
        log_h = data.draw(st.lists(st.floats(-6.0, 3.0), min_size=d,
                                   max_size=d), label="log10 h")
        h = 10.0 ** np.array(log_h)
        if data.draw(st.booleans(), label="an inf weight"):
            h[data.draw(st.integers(0, d - 1), label="at")] = math.inf
        center = 10.0 * np.array(data.draw(vec, label="center"))
        u = np.array(data.draw(vec.filter(lambda v: math.hypot(*v) > 0.1),
                               label="direction"))
        radius = 10.0 ** data.draw(st.floats(-3.0, 3.0), label="log10 r")
        offset = data.draw(st.one_of(
            st.integers(1, 64).map(lambda n: n * math.ulp(radius)),
            st.floats(-15.0, 8.0).map(lambda e: radius * 10.0 ** e)),
            label="offset")
        y = center + u * ((radius + offset) / float(np.linalg.norm(u)))
        _assert_matches_bisection(center, radius, y, h)

    check()


@pytest.mark.parametrize("h", [1e-40, 1e-60, 1e-120, 1e-250])
def test_weighted_ball_projection_under_the_step_cap(h):
    # a weight this small puts the multiplier below 2**-148, where the first
    # bisection stopped on its 200-step cap before adjacent doubles; the
    # result is that of the bisection run to adjacent doubles instead
    center, radius = np.array([0.3, -0.2]), 0.5
    ball = L2Ball(center, radius)
    hw = np.array([h, 2.0 * h])
    for n in (1, 3, 1000):
        y = center + np.array([0.6, 0.8]) * (radius + n * math.ulp(radius))
        got = _assert_matches_bisection(center, radius, y, hw, cap=None)
        assert ball.member(got, tol=0.0)
        assert abs(float(np.linalg.norm(got - center)) - radius) <= 1e-15
        # from 1e-60 the capped multiplier is large enough to pull the
        # result off the sphere (at 1e-120 and below, to the center)
        capped = _bisection_projection(ball, y, hw)
        assert np.array_equal(got, capped) == (h > 1e-60)
    diff = y - center
    assert 0.0 < geometry._first_inside(hw * diff, hw, radius) < 2.0 ** -148


def test_weighted_ball_projection_ignores_the_weights_scale():
    # a projection under diag(h) is one under diag(s*h); the scales reach
    # the multipliers where a bisection capped at 200 halvings stops early
    ball = L2Ball(np.zeros(3), 1.0)
    want = ball.project_metric([3.0, 4.0, 0.0], np.array([1.0, 2.0, 4.0]))
    assert np.allclose(want, [0.390, 0.921, 0.0], atol=1e-3)
    for s in (1e-20, 1e-40, 1e-60, 1e-120, 1e-250):
        got = ball.project_metric([3.0, 4.0, 0.0], s * np.array([1.0, 2.0, 4.0]))
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)
        assert abs(float(np.linalg.norm(got)) - 1.0) <= 1e-15


def test_weighted_ball_projection_matches_bisection_on_non_finite_input():
    center, radius = np.zeros(3), 1.0
    # h * diff overflows: the bisection doubles hi to inf
    got = _assert_matches_bisection(center, radius, [1e200, 0.5, 0.0],
                                    np.array([1e200, 1.0, 1.0]))
    assert np.isnan(got[0])
    # a nan offset is nan at every multiplier
    _assert_matches_bisection(center, radius, [math.nan, 2.0, 0.0],
                              np.ones(3))
    # a scalar weight
    _assert_matches_bisection(center, radius, [3.0, 4.0, 0.0], 2.5)


def test_inf_weight_projection_gives_the_iterate_the_run_aborts_on():
    # g**2 overflows v_hat to inf in coordinate 0, so h = inf there: the
    # rounded radius is nan at every multiplier, the multiplier is the
    # smallest double and the projection is nan, which check_finite rejects
    ball = L2Ball(np.zeros(3), 0.5)
    cfg = default_config("zo-adamm", alpha=0.1, alpha_schedule="constant")
    x = np.array([0.5, 0.0, 0.0])
    g = np.array([1e200, -1.0, 2.0])
    with np.errstate(all="ignore"):
        state, x_new = zo_adamm_step(AdaMMState.fresh(3, 1e-5, 1e-5), x, g,
                                     cfg, ball)
    h = np.sqrt(state.v_hat)
    assert math.isinf(h[0])
    y = x - 0.1 * state.m / h
    assert float(np.linalg.norm(y)) > ball.radius
    with np.errstate(all="ignore"):
        want = _bisection_projection(ball, y, h, cap=None)
        diff = y - ball.center
        first = geometry._first_inside(h * diff, h, ball.radius)
    assert np.array_equal(x_new, want, equal_nan=True)
    assert np.isnan(x_new[0])
    assert first == 5e-324
    with pytest.raises(NumericError, match="non-finite value in iterate"):
        check_finite(x_new, "iterate")
