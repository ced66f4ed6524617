import numpy as np
import pytest

from zoopt.geometry import (Box, DiagonalMetric, L2Ball, SymmetricBand,
                            Unconstrained, gradient_mapping,
                            mahalanobis_measure, vi_violation)
from zoopt.numkit import RngStream

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
