"""Zeroth-order gradient estimators.

All estimators return an estimate of the gradient from function values only and
consume a fixed, documented number of oracle queries:

* two-point forward difference along a uniform sphere direction -- 2 queries
* minibatch/multi-direction average of the two-point estimator -- b*(q+1)
  queries (the base value f(x; xi_j) is evaluated once per sample and reused
  across the q directions)
* coordinate-wise central differences -- 2*len(coords) queries
* antithetic Gaussian (NES-style) differences -- 2*q queries

Each call draws its directions in one block from the stream before it queries
(``two_point_estimates`` draws and queries a ``numkit.block_spans`` step at a
time) and makes its queries through ``evaluate_batch``.  The results, the
query count and the stream position afterwards equal, bit for bit, those of
drawing each direction just before its queries and making the queries one at
a time.  If the objective returns a non-finite value, or an estimate
overflows, the call aborts under one rule: the directions it drew stay drawn,
and exactly the rows evaluated before the first non-finite value are charged.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .numkit import (as_vector, block_spans, check_finite, sample_unit_sphere,
                     weighted_row_sum)

MU_FLOOR = 1e-8  # below this the forward difference drowns in double-precision noise


def clamp_mu(mu, floor=MU_FLOOR):
    if mu <= 0:
        raise ValueError(f"smoothing parameter must be positive, got {mu}")
    return max(float(mu), floor)


@dataclass
class EstimatorConfig:
    mu: float = 0.01
    b: int = 1
    q: int = 10
    kind: str = "uniform-two-point"  # uniform-two-point | coordinate | nes-antithetic | analytic
    directions: str = "sphere"       # "gaussian" is an ablation switch for the two-point path

    def validate(self):
        if not (math.isfinite(self.mu) and self.mu > 0):
            raise ConfigError("optimizer.mu: must be positive and finite")
        for key in ("b", "q"):
            if getattr(self, key) < 1:
                raise ConfigError(f"optimizer.{key}: must be >= 1")
        if self.kind not in ("uniform-two-point", "coordinate", "nes-antithetic", "analytic"):
            raise ConfigError(f"optimizer.kind: unknown estimator {self.kind!r}")
        if self.directions not in ("sphere", "gaussian"):
            raise ConfigError("optimizer.directions: unknown sampler "
                              f"{self.directions!r}")
        return self


def _directions(n, d, rng, directions):
    """n direction rows (one (d,) vector for ``n=None``): uniform on the
    sphere, or standard Gaussian."""
    if directions == "sphere":
        return sample_unit_sphere(d, rng, n)
    return rng.normal(d) if n is None else rng.normal(n * d).reshape(n, d)


def _scale(d, mu, directions):
    # the sphere estimator carries the dimension factor d/mu; the Gaussian
    # variant is already unbiased with 1/mu since E[uu'] = I
    return d / mu if directions == "sphere" else 1.0 / mu


def two_point_estimates(obj, x, xi, mu, n, rng, directions="sphere"):
    """n independent two-point estimates at x as an (n, d) array; 2*n queries.

    Row k equals the k-th of n ``two_point_uniform`` calls on the same
    stream.  Each ``block_spans`` step draws its directions, then queries
    them.  A non-finite value, or two finite values that differ by more than
    the double range, aborts the call at the first non-finite estimate: the
    stream stands after the directions of the steps begun, and every row
    evaluated before the first non-finite value stays charged.
    """
    mu = clamp_mu(mu)
    x = as_vector(x, obj.dim)
    d = obj.dim
    scale = _scale(d, mu, directions)
    out = np.empty((n, d))
    for lo, hi in block_spans(n, 2 * d):
        u = _directions(hi - lo, d, rng, directions)
        pts = np.empty((2 * (hi - lo), d))
        pts[0::2] = x
        pts[1::2] = x + mu * u
        vals = obj.evaluate_batch(pts, xi)
        ests = out[lo:hi]
        np.multiply((scale * (vals[1::2] - vals[0::2]))[:, None], u, out=ests)
        finite = np.isfinite(ests).all(axis=1)
        if not finite.all():
            check_finite(ests[np.argmin(finite)], "two-point gradient estimate")
    return out


def two_point_uniform(obj, x, xi, mu, rng, directions="sphere"):
    """(d/mu) [f(x + mu*u; xi) - f(x; xi)] u with u uniform on the sphere."""
    mu = clamp_mu(mu)
    x = as_vector(x, obj.dim)
    u = _directions(None, obj.dim, rng, directions)
    pts = np.empty((2, obj.dim))
    pts[0] = x
    pts[1] = x + mu * u
    base, fwd = obj.evaluate_batch(pts, xi).tolist()
    g = (_scale(obj.dim, mu, directions) * (fwd - base)) * u
    return check_finite(g, "two-point gradient estimate")


def _direction_sums(batch, x, mu, indices, u):
    """sum_j [f(x + mu*u_i; xi_j) - f(x; xi_j)] for each row u_i of ``u``, over
    the samples xi_j in ``indices``, with ``batch(points, xi)`` giving f.

    The base values f(x; xi_j) are evaluated once, with the first step of
    directions; each ``block_spans`` step holds every sample along each of its
    directions.
    """
    b = len(indices)
    q, d = u.shape
    sums = np.empty(q)
    for lo, hi in block_spans(q, b * d):
        lead = b if lo == 0 else 0
        pts = np.empty((lead + b * (hi - lo), d))
        pts[:lead] = x
        pts[lead:].reshape(hi - lo, b, d)[:] = (x + mu * u[lo:hi])[:, None, :]
        xi = indices[0] if b == 1 else np.tile(indices, len(pts) // b)
        vals = batch(pts, xi)
        if lo == 0:
            base = vals[:b]
        diffs = vals[lead:].reshape(hi - lo, b)
        c = np.zeros(hi - lo)
        for k in range(b):
            c += diffs[:, k] - base[k]
        sums[lo:hi] = c
    return sums


def averaged_with_indices(obj, x, mu, indices, q, rng, directions="sphere"):
    """Core of the averaged estimator for an already-drawn minibatch.

    Shares the q directions across the samples and reuses each base value
    f(x; xi_j): exactly len(indices)*(q+1) queries.
    """
    mu = clamp_mu(mu)
    if not indices or q < 1:
        raise ValueError("need a non-empty minibatch and q >= 1")
    x = as_vector(x, obj.dim)
    u = _directions(q, obj.dim, rng, directions)
    sums = _direction_sums(obj.evaluate_batch, x, mu, indices, u)
    # scaling applied per direction so the b = q = 1 case reproduces the plain
    # two-point estimate bit for bit
    scale = _scale(obj.dim, mu, directions) / (len(indices) * q)
    g = weighted_row_sum(scale * sums, u)
    return check_finite(g, "averaged gradient estimate")


def averaged_estimator(obj, x, mu, b, q, rng, directions="sphere"):
    """Minibatch/multi-direction average of the two-point estimator.

    Draws its own minibatch of b samples (uniform with replacement), then
    averages over q shared directions: b*(q+1) queries total.
    """
    if b < 1:
        raise ValueError("need b >= 1")
    idx = obj.sample_minibatch(b, rng)
    return averaged_with_indices(obj, x, mu, idx, q, rng, directions)


def coordinate_estimate(obj, x, xi, mu, coords):
    """Central differences [f(x+mu*e_i) - f(x-mu*e_i)] / (2*mu) on the given
    coordinates; zeros elsewhere.  2*len(coords) queries."""
    mu = clamp_mu(mu)
    x = as_vector(x, obj.dim)
    coords = [int(i) for i in coords]
    if not coords:
        raise ValueError("coords must be non-empty")
    if len(set(coords)) != len(coords):
        raise ValueError("duplicate coordinate indices")
    if min(coords) < 0 or max(coords) >= obj.dim:
        raise ValueError("coordinate index out of range")
    steps = np.zeros((len(coords), obj.dim))
    steps[np.arange(len(coords)), coords] = mu
    pts = np.empty((2 * len(coords), obj.dim))
    pts[0::2] = x + steps
    pts[1::2] = x - steps
    vals = obj.evaluate_batch(pts, xi)
    g = np.zeros(obj.dim)
    g[coords] = (vals[0::2] - vals[1::2]) / (2.0 * mu)
    return check_finite(g, "coordinate gradient estimate")


def nes_antithetic_estimate(obj, x, xi, mu, q, rng):
    """(1/(2*q*mu)) sum_i [f(x+mu*u_i) - f(x-mu*u_i)] u_i with standard Gaussian
    directions.  Antithetic by construction: flipping any u_i leaves the
    estimate unchanged.  2*q queries."""
    mu = clamp_mu(mu)
    if q < 1:
        raise ValueError("need q >= 1")
    x = as_vector(x, obj.dim)
    d = obj.dim
    u = _directions(q, d, rng, "gaussian")
    pts = np.empty((2 * q, d))
    pts[0::2] = x + mu * u
    pts[1::2] = x - mu * u
    vals = obj.evaluate_batch(pts, xi)
    g = weighted_row_sum(vals[0::2] - vals[1::2], u)
    g /= 2.0 * q * mu
    return check_finite(g, "antithetic gradient estimate")


def query_cost(cfg: EstimatorConfig, dim):
    """Oracle queries one estimator call consumes under config ``cfg``."""
    if cfg.kind == "uniform-two-point":
        return cfg.b * (cfg.q + 1)
    if cfg.kind == "coordinate":
        return 2 * min(cfg.q, dim)
    if cfg.kind == "nes-antithetic":
        return 2 * cfg.q
    if cfg.kind == "analytic":
        return 0
    raise ValueError(f"unknown estimator kind {cfg.kind!r}")
