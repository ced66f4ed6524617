"""Randomized-smoothing oracle and analytic references.

The smoothed function is f_mu(x) = E[f(x + mu*u)] with u uniform on the unit
ball; the two-point sphere estimator is unbiased for grad f_mu.  This module
provides Monte-Carlo probes of both quantities plus a closed form for diagonal
quadratics, used to verify the smoothing bounds and estimator unbiasedness.
"""

from dataclasses import dataclass

import numpy as np

from .estimators import two_point_estimates
from .numkit import RngStream, as_vector, block_spans, sample_unit_ball


@dataclass
class SmoothingProbe:
    mu: float
    n_samples: int = 100_000
    seed: int = 0

    def validate(self):
        if self.mu <= 0:
            raise ValueError("probe mu must be positive")
        if self.n_samples < 1:
            raise ValueError("probe needs at least one sample")
        return self


def smooth_value_mc(obj, x, xi, probe):
    """Monte-Carlo estimate of f_mu(x) over ball perturbations.

    Returns (mean, stderr); stderr is exactly 0 for constant objectives.
    Perturbations are drawn and evaluated one block at a time; n queries.
    """
    probe.validate()
    x = as_vector(x, obj.dim)
    d = obj.dim
    rng = RngStream(probe.seed)
    n = probe.n_samples
    vals = np.empty(n)
    for lo, hi in block_spans(n, 2 * d + 1):
        u = sample_unit_ball(d, rng, hi - lo)
        vals[lo:hi] = obj.evaluate_batch(x + probe.mu * u, xi)
    mean = float(vals.mean())
    se = float(vals.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return mean, se


def smooth_grad_mc(obj, x, xi, probe):
    """Average of n independent two-point sphere estimates at fixed x -- a
    Monte-Carlo estimate of grad f_mu(x).

    Returns (mean vector, per-coordinate standard error).
    """
    probe.validate()
    n = probe.n_samples
    ests = two_point_estimates(obj, x, xi, probe.mu, n, RngStream(probe.seed))
    mean = ests.mean(axis=0)
    se = ests.std(axis=0, ddof=1) / np.sqrt(n) if n > 1 else np.zeros(obj.dim)
    return mean, se


def analytic_smooth_quadratic(a_diag, b, x, mu):
    """Exact (value, gradient) of the ball-smoothed diagonal quadratic
    f(x) = 0.5 * sum_i a_i x_i^2 + b.x.

    Smoothing adds the constant mu^2 * sum(a) / (2*(d+2)) -- the second moment
    of a ball coordinate is 1/(d+2) -- and leaves the gradient unchanged.
    """
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    a_diag = as_vector(a_diag)
    d = a_diag.shape[0]
    b = as_vector(b, d)
    x = as_vector(x, d)
    value = 0.5 * float(np.dot(a_diag * x, x)) + float(np.dot(b, x))
    value += mu * mu * float(np.sum(a_diag)) / (2.0 * (d + 2))
    grad = a_diag * x + b
    return value, grad
