"""Byte-level regression anchors for whole runs.

Each case runs one method end to end, writes its trace CSV and JSON envelope,
and hashes those bytes together with the final iterate, the regret terms and
the returned random iterate.  The digests were recorded from the
one-query-at-a-time implementation (commit 6af0673), before the estimators,
probes and problems moved to block direction draws and batched evaluation, so
any change to what a (config, seed) produces shows up here.  The one digest
recorded later is ``zo-adamm/attack-approx``: its ``measure_m`` and
``grad_norm_sq`` columns moved when the approximate reference gradient took
its stream from ``numkit.derived_seed``.
"""

import hashlib
import math

import numpy as np
import pytest

from zoopt import numkit
from zoopt.estimators import averaged_estimator, two_point_uniform
from zoopt.geometry import Unconstrained
from zoopt.metrics import serialize_csv, write_envelope
from zoopt.numkit import RngStream
from zoopt.optimizers import default_config, run_optimizer
from zoopt.oracle import ProblemMetadata, StochasticObjective
from zoopt.problems import (ProblemSpec, load_victim, make_attack_problem,
                            make_counterexample_lp, make_logistic,
                            make_nonconvex, make_quadratic)
from zoopt.smoothing import SmoothingProbe, smooth_grad_mc, smooth_value_mc
from zoopt.validate import (query_accounting_check, smoothing_suite,
                            sphere_concentration, unbiasedness_check,
                            variance_scaling_b, variance_scaling_q)


def _attack(n_images, mode):
    model, inputs, labels = load_victim()
    return make_attack_problem(model, inputs[:n_images], labels[:n_images],
                               mode=mode)


def _wall():
    """A finite sum with no ``fn_batch`` whose samples turn infinite past
    slightly different walls: runs toward it abort inside an estimator call,
    after some of its queries were charged."""
    target = np.full(4, 3.0)

    def fn(x, xi):
        if x[0] + 0.002 * xi > 1.0:
            return math.inf
        r = x - target
        return float(np.dot(r, r))

    obj = StochasticObjective(4, fn, n_samples=3, name="wall")
    return ProblemSpec(obj, Unconstrained(), ProblemMetadata(), np.zeros(4),
                       tag="wall")


# name -> (problem builder, default_config arguments, budget, run_optimizer
# keyword arguments)
CASES = {
    "zo-adamm/quadratic": (lambda: make_quadratic(20, seed=3),
                           dict(seed=7), 2_200, {}),
    "zo-adamm/logistic-ball": (lambda: make_logistic(40, 6, seed=1, radius=0.5),
                               dict(seed=2), 2_200, {}),
    "zo-adamm/universal-b2": (lambda: _attack(3, "constrained"),
                              dict(seed=4, b=2, q=5, alpha=0.1), 1_200, {}),
    "zo-adamm/attack-approx": (lambda: _attack(1, "constrained"),
                               dict(seed=5, alpha=0.1), 330,
                               {"record_measure": "approx"}),
    "zo-adamm/abort": (lambda: make_quadratic(4),
                       dict(alpha=1e160, alpha_schedule="constant", q=1), 100,
                       {}),
    "zo-sgd/quadratic-sum-b3": (lambda: make_quadratic(6, seed=2, n_samples=5),
                                dict(seed=3, b=3, q=4, alpha=0.05), 1_500, {}),
    "zo-sgd/gaussian": (lambda: make_quadratic(8, condition=4.0, seed=1),
                        dict(seed=1, directions="gaussian", alpha=0.02), 1_100,
                        {}),
    "zo-sgd/abort-b3": (lambda: make_quadratic(4, seed=1, n_samples=3),
                        dict(seed=2, b=3, q=2, alpha=1e160,
                             alpha_schedule="constant"), 200, {}),
    "zo-sgd/abort-mid-call": (_wall, dict(seed=3, b=3, q=3, alpha=0.003,
                                          alpha_schedule="constant", mu=0.1,
                                          mu_schedule="constant"), 6_000, {}),
    "zo-psgd/nonconvex-box": (lambda: make_nonconvex(8, seed=2, box_halfwidth=0.5),
                              dict(seed=6, alpha=0.05), 1_100, {}),
    "zo-signsgd/attack-unconstrained": (lambda: _attack(1, "unconstrained"),
                                        dict(seed=8, alpha=0.05), 660, {}),
    "zo-nes/attack-constrained": (lambda: _attack(1, "constrained"),
                                  dict(seed=9, alpha=0.02), 660, {}),
    "zo-nes/counterexample": (make_counterexample_lp, dict(seed=1, alpha=0.01),
                              200, {}),
    "zo-smd/logistic": (lambda: make_logistic(30, 5, seed=4),
                        dict(seed=10), 1_100, {}),
    "zo-scd/quadratic": (lambda: make_quadratic(10, condition=10.0, seed=5),
                         dict(seed=11, q=4, alpha=0.1), 800, {}),
    "zo-scd/universal-unconstrained": (lambda: _attack(3, "unconstrained"),
                                       dict(seed=12, alpha=0.3), 660, {}),
}

DIGESTS = {
    'zo-adamm/abort': '6754b15060711f06fc8e013f91c8f849cbd10f88fa99f005865e62a53c2fbd5e',
    'zo-adamm/attack-approx': 'e1c752251101eb1821461c7c79a0e710acce7c45a26da910b8040e95bf6463cb',
    'zo-adamm/logistic-ball': 'd92629aa1eb76444faf0675ad05f36ad99c730410a3bc397d6586bbd75721e12',
    'zo-adamm/quadratic': '02041a2934388ae05dd4a6d04071e1ac13421d1e008263fdb33752505f7bfa26',
    'zo-adamm/universal-b2': 'aee0fbe3460406ae3df691280cf42a525c48b21f7390498cf8f8b3bb9be45ee4',
    'zo-nes/attack-constrained': 'f2b41e53b806eea23a1e505e14234b6fa0ade97401fb9722d2de94b81fed3477',
    'zo-nes/counterexample': 'c366e1207c3a7022bf3b0dfddcef39aca17c0fb36e0929687fb458ab87c94d5d',
    'zo-psgd/nonconvex-box': 'e496a7ca07476043351b1439c765177ee7bc107d8b75ab540124bb9addbfac18',
    'zo-scd/quadratic': '4ec65cd6295516f857d6c87f7ead3bc41eb133bf89d3873a367171b36543dada',
    'zo-scd/universal-unconstrained': 'a0f99aa70b07a7ca3d2783b85d154634bc17b9e3621a77f7c961a5accf15dc28',
    'zo-sgd/abort-b3': 'a8164a2db9477df890c16d470c23c3f50c33415ed3243f271b239d7de6906c58',
    'zo-sgd/abort-mid-call': '8b0006b6c2358dbb2b536754330b624858fd91071fa69b11e9527a63e1a1ba10',
    'zo-sgd/gaussian': '6c8776988bbf28418a06e74023848995ae71b888ab88c47892f213fcffff9a22',
    'zo-sgd/quadratic-sum-b3': '462eeef5c2f966c5257b2a5e489e56be5133ad43277d05b1258eac5c8760e5a0',
    'zo-signsgd/attack-unconstrained': '80eb30e86c7259e53d79af803eae88f4415486e63ef18d1d5beef9d278c2b5d7',
    'zo-smd/logistic': '53bbc7c79ca86a245535f52e6b73497d88c75b5487da8e0190eb20d9dc898a61',
}

PROBE_DIGESTS = {
    'validate': '3f334095d82347d4c4dcb3f7a06732cbd19b25872c0492ca958b1dc03e3b447f',
    'value-logistic': 'd6786491684e502cb84f0854db59f6aeb8d20e76878a04559e54de73a41a0db1',
    'grad-logistic': '0fdc89ca997ffb5410cdf944d0717552c52720b2124b9f8df21f67385f7b245d',
    'two-point-logistic': '955a440e8e35724633ed14e03f87646634352b801e162d6dc754d40b80dd36be',
    'averaged-logistic': 'ee509ae8a3f1616932cc9b5a01b4f2cdde01b58da7b6220f9d2605f987596125',
    'queries-logistic': 'cba8d3a39041d4164e60270c6281f81be92d29656bec527211d87de66571f403',
    'value-attack': 'b913c9a3811c369171b8ee52935b50f281ac45edc74d72f4cf32f4f6f1977220',
    'grad-attack': 'c7e44ececad8dc579ab6e21492389acdfb9c334181f35db28d66dd78411b2bc2',
    'two-point-attack': '9459f917c25c7e92f84b627a821bd8621f1e02c3f082afa10c4220a6cc8cc01e',
    'averaged-attack': 'fae391cf1682a9f370b0b52cb6a695d14b344519f7e5d6616a94528aaa083074',
    'queries-attack': 'cba8d3a39041d4164e60270c6281f81be92d29656bec527211d87de66571f403',
}


def _run_digest(name, tmp_path, drop_fn_batch=False):
    build, cfg_args, budget, run_kwargs = CASES[name]
    algorithm = name.split("/")[0]
    problem = build()
    if drop_fn_batch:
        problem.objective._fn_batch = None
    res = run_optimizer(problem, default_config(algorithm, **cfg_args), budget,
                        **run_kwargs)
    csv_path = tmp_path / "trace.csv"
    serialize_csv(res.trace, csv_path)
    write_envelope(res, csv_path.name, tmp_path / "trace.json")
    h = hashlib.sha256()
    h.update(csv_path.read_bytes())
    h.update((tmp_path / "trace.json").read_bytes())
    h.update(np.asarray(res.final_x, dtype=np.float64).tobytes())
    h.update(np.asarray(res.trace.sampled_losses, dtype=np.float64).tobytes())
    h.update(np.asarray(res.trace.comparator_losses, dtype=np.float64).tobytes())
    h.update(str(res.random_iter).encode())
    return h.hexdigest()


def _probe_outputs():
    """Small versions of every Monte-Carlo probe and estimator statistic."""
    out = {}
    results = smoothing_suite(seed=1, n_value=600, n_grad=200,
                              points_per_problem=2)
    results += unbiasedness_check(seed=2, n_estimates=2_000)
    results += variance_scaling_q(seed=3, n_estimates=200)
    results += variance_scaling_b(seed=4, n_estimates=60)
    results += query_accounting_check(seed=5)
    results += sphere_concentration(seed=6, n_draws=3_000)
    out["validate"] = [(r.name, r.passed, r.measured, r.bound) for r in results]

    logi = make_logistic(20, 5, seed=3)
    attack = _attack(1, "unconstrained")
    for label, prob in (("logistic", logi), ("attack", attack)):
        x = np.full(prob.objective.dim, 0.1)
        last = prob.objective.n_samples - 1
        out[f"value-{label}"] = smooth_value_mc(prob.objective, x, last,
                                                SmoothingProbe(0.05, 700, 4))
        out[f"grad-{label}"] = smooth_grad_mc(prob.objective, x, 0,
                                              SmoothingProbe(0.05, 300, 5))
        rng = RngStream(6)
        out[f"two-point-{label}"] = [two_point_uniform(prob.objective, x, 0, 0.01,
                                                       rng) for _ in range(5)]
        out[f"averaged-{label}"] = [averaged_estimator(prob.objective, x, 0.01, 2,
                                                       3, rng) for _ in range(5)]
        out[f"queries-{label}"] = prob.objective.queries
    return out


def _digest_of(value):
    h = hashlib.sha256()

    def feed(v):
        if isinstance(v, (list, tuple)):
            h.update(b"[")
            for item in v:
                feed(item)
            h.update(b"]")
        elif isinstance(v, np.ndarray):
            h.update(np.ascontiguousarray(v, dtype=np.float64).tobytes())
        elif isinstance(v, (bool, np.bool_)):
            h.update(b"T" if v else b"F")
        elif isinstance(v, (float, np.floating)):
            h.update(np.float64(v).tobytes())
        elif isinstance(v, (int, np.integer)):
            h.update(str(int(v)).encode())
        else:
            h.update(str(v).encode())
    feed(value)
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_outputs_match_recorded_digest(name, tmp_path):
    assert _run_digest(name, tmp_path) == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_row_by_row_fallback_gives_the_same_outputs(name, tmp_path):
    # a problem without fn_batch takes the same code path, one row at a time
    assert _run_digest(name, tmp_path, drop_fn_batch=True) == DIGESTS[name]


def test_probe_outputs_match_recorded_digests():
    got = {k: _digest_of(v) for k, v in _probe_outputs().items()}
    assert got == PROBE_DIGESTS


# 40 words: a block_spans step holds one to four directions or points, so
# every estimator, probe and check walks many steps
SMALL_STEPS = 40


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_outputs_in_small_steps_match_recorded_digest(name, tmp_path,
                                                          monkeypatch):
    monkeypatch.setattr(numkit, "BLOCK_WORDS", SMALL_STEPS)
    assert _run_digest(name, tmp_path) == DIGESTS[name]


def test_probe_outputs_in_small_steps_match_recorded_digests(monkeypatch):
    monkeypatch.setattr(numkit, "BLOCK_WORDS", SMALL_STEPS)
    got = {k: _digest_of(v) for k, v in _probe_outputs().items()}
    assert got == PROBE_DIGESTS


if __name__ == "__main__":
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            print(f"    {case!r}: {_run_digest(case, pathlib.Path(tmp))!r},")
    for key, value in _probe_outputs().items():
        print(f"    {key!r}: {_digest_of(value)!r},")
