"""Constraint sets, Euclidean and diagonally-weighted (Mahalanobis) projections,
the gradient mapping, and the weighted convergence measure.

The weighted projection minimizes ||diag(h)^(1/2) (x - y)||^2 over the set for a
strictly positive diagonal weight h.  All projections are exact closed forms
except the weighted L2-ball case, whose KKT multiplier is the root of a monotone
scalar equation.  Its multiplier is the first double at which the rounded
radius is inside the ball, found by a Newton guess and a search over the
doubles' bit patterns (see ``L2Ball.project_metric``).
"""

import math
import struct

import numpy as np

from .numkit import as_vector

FEAS_TOL = 1e-12
_EPS = 2.0 ** -52


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

        Stationarity gives x(lam) = c + h*(y - c) / (h + lam) for the
        multiplier lam >= 0 that puts x(lam) on the sphere.  The multiplier
        used is T, the first double at which the rounded radius_sq(lam) =
        ||h*(y - c) / (h + lam)||^2 is <= r^2 (``_first_inside``): x(T) is
        inside the ball and no smaller double is.  There is no bisection and
        no step cap, so scaling every weight by one constant scales T with it
        and moves x(T) by rounding only, however small the weights.
        """
        y = as_vector(y, self.center.shape[0])
        c, r = self.center, self.radius
        diff = y - c
        if math.sqrt(float(np.dot(diff, diff))) <= r:
            return y
        hd = h * diff
        # x(T) is (weakly) inside the ball, so the result is feasible and a
        # second projection returns it unchanged
        return c + hd / (h + _first_inside(hd, h, r))

    def __repr__(self):
        return f"L2Ball(center={self.center}, radius={self.radius})"


_DOUBLE = struct.Struct("<d")
_INT64 = struct.Struct("<q")


def _bits(x):
    """The bit pattern of a double >= 0 as an int; inf included, these
    order as the doubles do."""
    return _INT64.unpack(_DOUBLE.pack(x))[0]


def _double(k):
    return _DOUBLE.unpack(_INT64.pack(k))[0]


_INF_BITS = _bits(math.inf)
# a cap: from 0 the steps reach the rounding blur in about three
_NEWTON_STEPS = 8


def _first_inside(hd, h, r):
    """The smallest double lam > 0 with radius_sq(lam) <= r*r, where
    radius_sq(lam) = float(np.dot(v, v)) for v = hd / (h + lam) and hd = h*diff.

    Every summand of the dot product is non-negative and each rounded
    operation is monotone, so radius_sq is non-increasing over the doubles
    and the answer is the first double of a monotone predicate.  Newton's
    method on phi(lam) = 1/||v(lam)|| - 1/r from 0 guesses it (phi is
    increasing and concave, so the steps do not overshoot; Moré & Sorensen,
    1983), then a search over the doubles' bit patterns finds it: widening
    from the guess by doubling, then bisecting.  radius_sq(inf) is 0 or
    nan, so the answer is at most inf; with a nan weight or offset it is
    nan everywhere and the answer is the smallest double.
    """
    r2 = r * r

    def outside(lam):
        v = hd / (h + lam)
        return float(np.dot(v, v)) > r2

    # bit patterns with outside(lo) and not outside(hi); lo = 0 stands for
    # lam = 0, where y is outside, and is never evaluated
    lo, hi = 0, _INF_BITS
    guess, width = _bits(1.0), 1
    lam = 0.0
    for _ in range(_NEWTON_STEPS):
        den = h + lam
        v = hd / den
        s2 = float(np.dot(v, v))
        if lam > 0:
            # s2 is radius_sq(lam) itself, so it bounds the answer for free
            if s2 > r2:
                lo = max(lo, _bits(lam))
            else:
                hi = min(hi, _bits(lam))
        w = float(np.dot(v, v / den))   # -d(s2)/dlam / 2
        if not w > 0:
            break
        step = s2 * (math.sqrt(s2) / r - 1.0) / w
        if not 0.0 < lam + step < math.inf:
            break
        lam += step
        # one rounding of s2 (s2 * eps) moves the root by this much; the
        # search starts widening at that many doubles
        blur = s2 * _EPS / (2.0 * w)
        guess = _bits(lam)
        width = max(1, int(min(blur / math.ulp(lam), 2.0 ** 62)))
        # this close, the search steps another Newton step would save
        # cost less than it does
        if abs(step) <= 64.0 * blur:
            break

    k = min(max(guess, lo), hi)
    if k == lo or (k != hi and outside(_double(k))):
        lo = k
        while k + width < hi:
            if not outside(_double(k + width)):
                hi = k + width
                break
            lo = k + width
            width *= 2
    else:
        hi = k
        while k - width > lo:
            if outside(_double(k - width)):
                lo = k - width
                break
            hi = k - width
            width *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if outside(_double(mid)):
            lo = mid
        else:
            hi = mid
    return _double(hi)


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
