import math

import numpy as np
import pytest

from zoopt.geometry import Box, Unconstrained
from zoopt.numkit import RngStream
from zoopt.problems import (TinyMlp, cw_loss, generate_victim, load_victim,
                            make_attack_problem, make_counterexample_lp,
                            make_logistic, make_nonconvex, make_quadratic,
                            tanh_reparam)

# frozen from the first verified run of the pinned victim on pinned input 0
GOLDEN_LOGITS_INPUT0 = [-0.4695104281778938, 0.3026733367354548,
                        -0.2165045170088614, -0.7955140158589808]


def test_counterexample():
    prob = make_counterexample_lp()
    assert prob.objective.peek(np.array([0.5, 0.5])) == -1.5
    for x in (np.zeros(2), np.array([3.0, -1.0])):
        assert np.array_equal(prob.metadata.gradient(x), [-2.0, -1.0])
    assert prob.constraint.member(prob.x0)


def test_quadratic_identity_condition():
    prob = make_quadratic(3, condition=1.0, seed=5)
    x_star = prob.metadata.extra["x_star"]
    assert prob.objective.peek(x_star) == pytest.approx(0.0, abs=1e-30)
    y = x_star + np.array([1.0, -2.0, 0.5])
    assert prob.objective.peek(y) == pytest.approx(0.5 * (1 + 4 + 0.25), abs=1e-12)
    assert prob.metadata.f_star == 0.0


def test_quadratic_finite_sum_gradient_consistency():
    prob = make_quadratic(4, condition=3.0, seed=6, n_samples=12, noise=0.7)
    rng = RngStream(7)
    x = rng.normal(4)
    per_sample = np.mean([prob.metadata.sample_gradient(x, i)
                          for i in range(12)], axis=0)
    assert np.max(np.abs(per_sample - prob.metadata.gradient(x))) <= 1e-12
    # full loss minimized at x_star with the recorded value
    assert prob.objective.full_loss(prob.metadata.extra["x_star"]) == \
        pytest.approx(prob.metadata.f_star, abs=1e-12)


def test_logistic_at_zero():
    prob = make_logistic(25, 6, seed=8)
    for i in range(25):
        assert prob.objective.peek(np.zeros(6), i) == pytest.approx(math.log(2.0),
                                                                    abs=1e-15)
        feats = prob.metadata.extra["features"][i]
        label = prob.metadata.extra["labels"][i]
        got = prob.metadata.sample_gradient(np.zeros(6), i)
        assert np.allclose(got, -label * feats / 2.0, atol=1e-12)


def test_logistic_planted_beats_origin():
    for seed in range(100):
        prob = make_logistic(30, 5, seed=seed)
        assert prob.objective.full_loss(prob.comparator) < \
            prob.objective.full_loss(np.zeros(5))


def test_logistic_full_gradient_is_sample_average():
    prob = make_logistic(15, 4, seed=9)
    x = RngStream(10).normal(4) * 0.5
    avg = np.mean([prob.metadata.sample_gradient(x, i) for i in range(15)], axis=0)
    assert np.max(np.abs(avg - prob.metadata.gradient(x))) <= 1e-12


def test_nonconvex_reductions():
    quad_like = make_nonconvex(4, seed=11, eps=0.0)
    x_star = quad_like.metadata.extra["x_star"]
    assert quad_like.objective.peek(x_star) == pytest.approx(0.0, abs=1e-30)

    prob = make_nonconvex(4, seed=11, eps=0.1, omega=3.0)
    assert prob.metadata.grad_lip == pytest.approx(1.0 + 0.1 * 9.0, abs=1e-15)

    rng = RngStream(12)
    h = 1e-6
    for _ in range(100):
        x = rng.normal(4)
        grad = prob.metadata.gradient(x)
        fd = np.empty(4)
        for i in range(4):
            e = np.zeros(4)
            e[i] = h
            fd[i] = (prob.objective.peek(x + e) - prob.objective.peek(x - e)) / (2 * h)
        assert np.max(np.abs(grad - fd)) <= 1e-6

    boxed = make_nonconvex(4, seed=11, box_halfwidth=0.8)
    assert isinstance(boxed.constraint, Box)
    assert isinstance(prob.constraint, Unconstrained)


def test_mlp_zero_weights():
    model = TinyMlp(np.zeros((3, 2)), np.zeros(3), np.zeros((2, 3)), np.zeros(2))
    assert np.array_equal(model.forward(np.array([0.2, -0.1])), np.zeros(2))


def test_mlp_linear_selection():
    # tanh is identity to first order; tiny inputs pass through a picker matrix
    w1 = np.eye(3)[:2] * 1.0  # selects coords 0, 1
    model = TinyMlp(w1, np.zeros(2), np.eye(2), np.zeros(2))
    x = np.array([1e-9, -2e-9, 5.0])
    out = model.forward(x)
    assert np.allclose(out, [1e-9, -2e-9], atol=1e-18)


def test_mlp_golden_logits():
    model, inputs, labels = load_victim()
    assert np.allclose(model.forward(inputs[0]), GOLDEN_LOGITS_INPUT0,
                       atol=1e-12)


def test_victim_pinned_matches_generator():
    model, inputs, labels = load_victim()
    regen_model, regen_inputs, regen_labels = generate_victim()
    assert np.array_equal(model.w1, regen_model.w1)
    assert np.array_equal(model.b2, regen_model.b2)
    assert regen_labels == labels
    assert all(np.array_equal(a, b) for a, b in zip(inputs, regen_inputs))
    # every pinned input is classified as its label with a real margin
    for im, t in zip(inputs, labels):
        z = model.forward(im)
        assert int(np.argmax(z)) == t
        assert float(z[t] - np.delete(z, t).max()) >= 0.1


def test_cw_loss():
    assert cw_loss(np.array([2.0, 0.5]), 0) == 1.5
    assert cw_loss(np.array([0.5, 2.0]), 0) == 0.0
    assert cw_loss(np.array([0.5, 2.0]), 0, kappa=0.3) == -0.3
    with pytest.raises(ValueError):
        cw_loss(np.array([1.0]), 0)
    with pytest.raises(ValueError):
        cw_loss(np.array([1.0, 2.0]), 5)


def test_tanh_reparam_round_trip():
    rng = RngStream(13)
    for _ in range(1000):
        x = rng.uniform(6) * 0.98 - 0.49
        assert np.max(np.abs(tanh_reparam(np.zeros(6), x) - x)) <= 1e-12


def test_tanh_reparam_saturation_and_range():
    x = np.full(3, 0.1)
    out = tanh_reparam(np.full(3, 20.0), x)
    assert np.all(np.abs(out - 0.5) <= 1e-8)
    rng = RngStream(14)
    for _ in range(200):
        w = rng.normal(3) * 5.0
        x = rng.uniform(3) - 0.5
        assert np.all(np.abs(tanh_reparam(w, x)) < 0.5)
    with pytest.raises(ValueError):
        tanh_reparam(np.zeros(2), np.array([0.6, 0.0]))


def _victim():
    return load_victim()


def test_attack_constrained_at_zero():
    model, inputs, labels = _victim()
    prob = make_attack_problem(model, inputs, labels, lam=10.0)
    cw_sum = sum(cw_loss(model.forward(im), t)
                 for im, t in zip(inputs, labels))
    assert prob.objective.full_loss(np.zeros(16)) == \
        pytest.approx(10.0 * cw_sum / len(inputs), abs=1e-12)
    assert prob.distortion_fn(np.zeros(16)) == 0.0
    assert prob.success_count_fn(np.zeros(16)) == 0


def test_attack_box_is_image_intersection():
    model, inputs, labels = _victim()
    prob = make_attack_problem(model, inputs, labels)
    lo = np.max([-0.5 - im for im in inputs], axis=0)
    hi = np.min([0.5 - im for im in inputs], axis=0)
    assert np.array_equal(prob.constraint.lo, lo)
    assert np.array_equal(prob.constraint.hi, hi)
    assert prob.constraint.member(np.zeros(16))


def test_attack_objective_nonnegative_and_finite_sum_consistent():
    model, inputs, labels = _victim()
    prob = make_attack_problem(model, inputs[:4], labels[:4], lam=10.0)
    rng = RngStream(15)
    for _ in range(20):
        delta = prob.constraint.project(rng.normal(16) * 0.2)
        val = prob.objective.full_loss(delta)
        assert val >= 0.0
        brute = sum(prob.objective.peek(delta, i) for i in range(4)) / 4
        assert val == pytest.approx(brute, abs=1e-12)


def test_attack_unconstrained_mode():
    model, inputs, labels = _victim()
    prob = make_attack_problem(model, [inputs[0]], [labels[0]], lam=10.0,
                               mode="unconstrained")
    assert isinstance(prob.constraint, Unconstrained)
    w = np.zeros(16)
    want = 10.0 * cw_loss(model.forward(tanh_reparam(w, inputs[0])),
                          labels[0])
    assert prob.objective.peek(w, 0) == pytest.approx(want, rel=1e-9)
    assert prob.distortion_fn(w) <= 1e-12


def test_attack_modes_and_errors():
    model, inputs, labels = _victim()
    per_image = make_attack_problem(model, [inputs[0]], [labels[0]])
    universal = make_attack_problem(model, inputs, labels)
    assert per_image.tag == "attack-per-image" and per_image.n_images == 1
    assert universal.tag == "attack-universal" and universal.n_images == 10
    with pytest.raises(ValueError):
        make_attack_problem(model, [inputs[0]], [labels[0]], lam=0.0)
    with pytest.raises(ValueError):
        make_attack_problem(model, [np.full(16, 0.7)], [0])
    with pytest.raises(ValueError):
        make_attack_problem(model, [inputs[0]], [labels[0]], mode="bogus")


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _cw_one_row(z, t, kappa):
    return max(float(z[t] - np.delete(z, t).max()), -float(kappa))


def _attack_one_point(model, images, labels, mode, lam=10.0, kappa=0.0):
    def fn(v, xi):
        im = images[xi]
        if mode == "constrained":
            return (lam * _cw_one_row(model.forward(im + v), labels[xi], kappa)
                    + float(np.dot(v, v)))
        xs = np.clip(im, -0.5 + 1e-6, 0.5 - 1e-6)
        xp = 0.5 * np.tanh(np.arctanh(2.0 * xs) + v)
        diff = xp - im
        return lam * (_cw_one_row(model.forward(xp), labels[xi], kappa)
                      + float(np.dot(diff, diff)))
    return fn


def _batched_problems():
    """name -> (problem, its objective as first written, one point at a time).

    The problems define only a batch form; the one-point forms are the
    reference the batch must reproduce bit for bit."""
    model, inputs, labels = _victim()
    out = {"counterexample": (make_counterexample_lp(),
                              lambda x, xi: -2.0 * x[0] - x[1])}

    quad = make_quadratic(20, condition=30.0, seed=2)
    a, xs = quad.metadata.extra["a_diag"], quad.metadata.extra["x_star"]
    out["quadratic"] = (quad, lambda x, xi: 0.5 * float(np.dot(a * (x - xs), x - xs)))

    qsum = make_quadratic(7, seed=3, n_samples=9, noise=2.0)
    rng = RngStream(3)
    qs_star = rng.uniform(7) * 2.0 - 1.0
    shifts = 2.0 * rng.normal(9 * 7).reshape(9, 7)
    shifts -= shifts.mean(axis=0)
    assert np.array_equal(qs_star, qsum.metadata.extra["x_star"])

    def qsum_fn(x, xi):
        r = x - qs_star - shifts[xi]
        return 0.5 * float(np.dot(r, r))
    out["quadratic-sum"] = (qsum, qsum_fn)

    logi = make_logistic(30, 6, seed=4)
    feats, ys = logi.metadata.extra["features"], logi.metadata.extra["labels"]
    out["logistic"] = (logi, lambda x, xi: float(np.logaddexp(
        0.0, -(ys[xi] * float(np.dot(feats[xi], x))))))

    ncvx = make_nonconvex(11, seed=5, box_halfwidth=0.5)
    nc_star = ncvx.metadata.extra["x_star"]
    out["nonconvex"] = (ncvx, lambda x, xi: (
        0.5 * float(np.dot(x - nc_star, x - nc_star))
        + 0.1 * float(np.sum(np.sin(3.0 * x)))))

    for m, kappa, prefix in ((1, 0.0, "attack"), (6, 0.2, "universal")):
        ims, ts = ([inputs[3]], [labels[3]]) if m == 1 else (inputs[:6], labels[:6])
        for mode in ("constrained", "unconstrained"):
            out[f"{prefix}-{mode}"] = (
                make_attack_problem(model, ims, ts, kappa=kappa, mode=mode),
                _attack_one_point(model, ims, ts, mode, kappa=kappa))
    return out


@pytest.mark.parametrize("name", sorted(_batched_problems()))
def test_evaluate_batch_matches_evaluate_bitwise(name):
    prob, reference = _batched_problems()[name]
    obj = prob.objective
    assert obj._fn_batch is not None
    rng = RngStream(21)
    n = 40
    X = rng.normal(n * obj.dim).reshape(n, obj.dim) * 0.3
    X[0] = 0.0
    m = obj.n_samples or 1
    per_row = rng.integers(n, 0, m)
    for xi in (m - 1, per_row):
        xis = [int(j) for j in np.broadcast_to(xi, (n,))]
        want = [reference(x, j) for x, j in zip(X, xis)]
        before = obj.queries
        got = obj.evaluate_batch(X, xi)
        assert obj.queries - before == n
        assert np.array_equal(_bits(got), _bits(want))
        singles = [obj.evaluate(x, j) for x, j in zip(X, xis)]
        assert np.array_equal(_bits(singles), _bits(want))
        assert obj.queries - before == 2 * n
    assert obj.full_loss(X[1]) == float(np.mean([reference(X[1], j)
                                                 for j in range(m)]))


def test_forward_batch_and_attack_metrics_match_rowwise_forms():
    model, inputs, labels = _victim()
    X = RngStream(22).uniform(50 * 16).reshape(50, 16) - 0.5
    want = np.array([model.forward(x) for x in X])
    assert np.array_equal(_bits(model.forward_batch(X)), _bits(want))
    for mode in ("constrained", "unconstrained"):
        prob = make_attack_problem(model, inputs, labels, mode=mode)
        rng = RngStream(23)
        for _ in range(20):
            v = rng.normal(16) * 0.4
            if mode == "constrained":
                v = prob.constraint.project(v)
                adv = [im + v for im in inputs]
                dist = float(np.dot(v, v))
            else:
                adv = [tanh_reparam(v, im) for im in inputs]
                dist = 0.0
                for a, im in zip(adv, inputs):
                    dist += float(np.dot(a - im, a - im))
                dist /= len(inputs)
            fooled = sum(cw_loss(model.forward(a), t) <= 0.0
                         for a, t in zip(adv, labels))
            assert prob.success_count_fn(v) == fooled
            assert prob.distortion_fn(v) == dist


def test_cw_loss_equals_delete_formula():
    rng = RngStream(24)
    for _ in range(200):
        z = rng.normal(5)
        for t in range(5):
            for kappa in (0.0, 0.25):
                assert np.array_equal(_bits([cw_loss(z, t, kappa)]),
                                      _bits([_cw_one_row(z, t, kappa)]))


def test_attack_labels_and_kappa_checked_up_front():
    model, inputs, labels = _victim()
    with pytest.raises(ValueError):
        make_attack_problem(model, [inputs[0]], [model.n_classes])
    with pytest.raises(ValueError):
        make_attack_problem(model, [inputs[0]], [labels[0]], kappa=-0.1)
