"""Constraint sets, Euclidean and diagonally-weighted (Mahalanobis) projections,
the gradient mapping, and the weighted convergence measure.

The weighted projection minimizes ||diag(h)^(1/2) (x - y)||^2 over the set for a
strictly positive diagonal weight h.  All projections are exact closed forms
except the weighted L2-ball case, which reduces to a monotone scalar root-find.
"""

import math

import numpy as np

from .numkit import as_vector

FEAS_TOL = 1e-12


class DiagonalMetric:
    """Strictly positive diagonal weight h defining the distance
    ||diag(h)^(1/2) (x - y)||^2."""

    def __init__(self, h):
        h = as_vector(h)
        if np.any(h <= 0):
            raise ValueError("diagonal metric must be strictly positive")
        self.h = h

    @classmethod
    def unit(cls, d):
        return cls(np.ones(d))


class Unconstrained:
    def member(self, x, tol=FEAS_TOL):
        return True

    def project(self, y):
        return as_vector(y)

    def project_metric(self, y, h):
        return as_vector(y)

    def __repr__(self):
        return "Unconstrained()"


class Box:
    def __init__(self, lo, hi):
        self.lo = as_vector(lo)
        self.hi = as_vector(hi, self.lo.shape[0])
        if np.any(self.lo > self.hi):
            raise ValueError("box requires lo <= hi componentwise")

    def member(self, x, tol=FEAS_TOL):
        x = as_vector(x, self.lo.shape[0])
        return bool(np.all(x >= self.lo - tol) and np.all(x <= self.hi + tol))

    def project(self, y):
        return np.clip(as_vector(y, self.lo.shape[0]), self.lo, self.hi)

    def project_metric(self, y, h):
        # a diagonal weight is separable over box constraints, so the weighted
        # minimizer is the same clamp
        return self.project(y)

    def __repr__(self):
        return f"Box(lo={self.lo}, hi={self.hi})"


class SymmetricBand:
    """The slab |a.x| <= b for a nonzero normal a and width b > 0."""

    def __init__(self, a, b):
        self.a = as_vector(a)
        if not np.any(self.a != 0):
            raise ValueError("band normal must be nonzero")
        if b <= 0:
            raise ValueError("band width must be positive")
        self.b = float(b)

    def member(self, x, tol=FEAS_TOL):
        x = as_vector(x, self.a.shape[0])
        return bool(abs(float(np.dot(self.a, x))) <= self.b + tol)

    def project(self, y):
        # a / 1.0 is a, so this is the Euclidean projection bit for bit
        return self.project_metric(y, 1.0)

    def project_metric(self, y, h):
        y = as_vector(y, self.a.shape[0])
        t = float(np.dot(self.a, y))
        if abs(t) <= self.b:
            return y
        s = 1.0 if t > 0 else -1.0
        # the two halfspaces never both bind for b > 0: project onto the nearer
        # hyperplane a.x = s*b
        w = self.a / h  # H^{-1} a
        denom = float(np.dot(self.a, w))
        if denom <= 0:
            raise ArithmeticError("internal invariant violated: a' H^-1 a <= 0")
        return y - w * ((t - s * self.b) / denom)

    def __repr__(self):
        return f"SymmetricBand(a={self.a}, b={self.b})"


class L2Ball:
    def __init__(self, center, radius):
        self.center = as_vector(center)
        if radius <= 0:
            raise ValueError("ball radius must be positive")
        self.radius = float(radius)

    def member(self, x, tol=FEAS_TOL):
        x = as_vector(x, self.center.shape[0])
        return bool(math.sqrt(float(np.dot(x - self.center, x - self.center)))
                    <= self.radius + tol)

    def project(self, y):
        y = as_vector(y, self.center.shape[0])
        diff = y - self.center
        nrm = math.sqrt(float(np.dot(diff, diff)))
        if nrm <= self.radius:
            return y
        return self.center + diff * (self.radius / nrm)

    def project_metric(self, y, h):
        """Weighted projection via the KKT multiplier.

        Stationarity gives x(lam) = (h*y + lam*c) / (h + lam); the residual
        ||x(lam) - c||^2 - r^2 is strictly decreasing in lam >= 0, so the root
        is found by bisection to full double precision.
        """
        y = as_vector(y, self.center.shape[0])
        c, r = self.center, self.radius
        diff = y - c
        if math.sqrt(float(np.dot(diff, diff))) <= r:
            return y

        def radius_sq(lam):
            v = h * diff / (h + lam)
            return float(np.dot(v, v))

        lo, hi = 0.0, 1.0
        while radius_sq(hi) > r * r:
            hi *= 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            if radius_sq(mid) > r * r:
                lo = mid
            else:
                hi = mid
        # hi side is (weakly) inside the ball, so the result is feasible and
        # a second projection returns it unchanged
        return c + h * diff / (h + hi)

    def __repr__(self):
        return f"L2Ball(center={self.center}, radius={self.radius})"


def gradient_mapping(cset, metric, x_minus, g, omega):
    """P = (x- minus x+)/omega for the weighted proximal step

        x+ = argmin_{x in cset} <g, x> + (1/omega) ||H^(1/2)(x - x-)||^2 / 2

    with H = diag(metric.h).  For an unconstrained set this is exactly H^-1 g.
    """
    if omega <= 0:
        raise ValueError("step weight omega must be positive")
    x_minus = as_vector(x_minus)
    g = as_vector(g, x_minus.shape[0])
    if isinstance(cset, Unconstrained):
        return g / metric.h
    x_plus = cset.project_metric(x_minus - omega * (g / metric.h), metric.h)
    return (x_minus - x_plus) / omega


def mahalanobis_measure(cset, metric, x, grad, alpha):
    """Weighted squared norm of the gradient mapping,
    sum_i h_i * P_i^2 with P the mapping under H = diag(h).

    Unconstrained reduction: sum_i grad_i^2 / h_i.
    """
    P = gradient_mapping(cset, metric, x, grad, alpha)
    return float(np.dot(metric.h * P, P))


def vi_violation(grad, x_star, x_test):
    """<grad, x_test - x_star>; a negative value witnesses non-stationarity
    of x_star for the variational-inequality condition."""
    grad = as_vector(grad)
    x_star = as_vector(x_star, grad.shape[0])
    x_test = as_vector(x_test, grad.shape[0])
    return float(np.dot(grad, x_test - x_star))
