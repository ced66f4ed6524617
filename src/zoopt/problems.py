"""The benchmark problem zoo.

Synthetic convex/nonconvex objectives with known analytic facts, the
non-convergence counterexample (a linear program over a symmetric band), and a
desk-scale black-box adversarial-attack family built on a tiny frozen MLP.
"""

import json
import math
from dataclasses import dataclass
from importlib import resources
from typing import Callable, Optional

import numpy as np

from .geometry import Box, L2Ball, SymmetricBand, Unconstrained
from .numkit import RngStream, as_vector
from .oracle import ProblemMetadata, StochasticObjective

TANH_MARGIN = 1e-6  # clearance kept from the box boundary before arctanh


def _objective(dim, fn_batch, **kw):
    """StochasticObjective whose single-point ``fn`` is the one-row case of
    ``fn_batch``, so the two agree bit for bit by construction."""
    def fn(x, xi):
        return float(fn_batch(x[None], xi)[0])

    return StochasticObjective(dim, fn, fn_batch=fn_batch, **kw)


@dataclass
class ProblemSpec:
    """A problem instance: objective + feasible set + known facts + start point.

    The optional callables are metric-side helpers for attack problems and
    never charge queries.
    """

    objective: StochasticObjective
    constraint: object
    metadata: ProblemMetadata
    x0: np.ndarray
    tag: str
    comparator: Optional[np.ndarray] = None        # regret reference point
    distortion_fn: Optional[Callable] = None       # x -> squared l2 distortion
    success_count_fn: Optional[Callable] = None    # x -> images currently fooled
    n_images: int = 0


def make_counterexample_lp():
    """minimize -2*x1 - x2 subject to |x1 + x2| <= 1, started at [0.5, 0.5].

    The start point is a non-stationary Euclidean-projection fixed point for
    sign-style updates; the weighted projection escapes it.
    """
    grad = np.array([-2.0, -1.0])

    def fn_batch(X, xi):
        return -2.0 * X[:, 0] - X[:, 1]

    obj = _objective(2, fn_batch, name="counterexample-lp")
    meta = ProblemMetadata(
        lip_const=math.sqrt(5.0),
        grad_lip=0.0,
        gradient=lambda x: grad.copy(),
    )
    return ProblemSpec(obj, SymmetricBand([1.0, 1.0], 1.0), meta,
                       np.array([0.5, 0.5]), tag="counterexample")


def make_quadratic(d, condition=1.0, seed=0, n_samples=None, noise=1.0):
    """Diagonal quadratic 0.5 * sum_i A_i (x_i - x*_i)^2 with A log-spaced in
    [1, condition] and a seeded random minimizer.

    With ``n_samples`` the problem becomes a finite sum over per-sample shifts
    of the minimizer; the shifts are centered exactly so the average gradient
    equals the full gradient.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if condition < 1:
        raise ValueError("condition must be >= 1")
    rng = RngStream(seed)
    a_diag = np.logspace(0.0, math.log10(condition), d) if condition > 1 else np.ones(d)
    x_star = rng.uniform(d) * 2.0 - 1.0

    if n_samples is None:
        def fn_batch(X, xi):
            r = X - x_star
            return 0.5 * np.vecdot(a_diag * r, r)

        obj = _objective(d, fn_batch, name="quadratic")
        f_star = 0.0

        def sample_grad(x, xi):
            return a_diag * (x - x_star)
    else:
        shifts = noise * rng.normal(n_samples * d).reshape(n_samples, d)
        shifts -= shifts.mean(axis=0)  # exact mean-zero per coordinate

        def fn_batch(X, xi):
            r = X - x_star - shifts[xi]
            return 0.5 * np.vecdot(a_diag * r, r)

        obj = _objective(d, fn_batch, n_samples=n_samples, name="quadratic-sum")
        f_star = 0.5 * float(np.mean([np.dot(a_diag * s, s) for s in shifts]))

        def sample_grad(x, xi):
            return a_diag * (x - x_star - shifts[xi])

    meta = ProblemMetadata(
        grad_lip=float(a_diag.max()),
        f_star=f_star,
        gradient=lambda x: a_diag * (x - x_star),
        sample_gradient=sample_grad,
        extra={"a_diag": a_diag, "x_star": x_star},
    )
    return ProblemSpec(obj, Unconstrained(), meta, np.zeros(d), tag="quadratic")


def make_logistic(n, d, seed=0, radius=5.0):
    """Synthetic logistic regression over an l2 ball.

    Labels are planted from a hidden weight vector; the planted weights act as
    the regret comparator.  Per-sample analytic gradients are recorded.
    """
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    rng = RngStream(seed)
    feats = rng.normal(n * d).reshape(n, d)
    planted = rng.normal(d)
    planted *= (0.5 * radius) / math.sqrt(float(np.dot(planted, planted)))
    labels = np.where(feats @ planted >= 0, 1.0, -1.0)

    def fn_batch(X, xi):
        z = labels[xi] * np.vecdot(feats[xi], X)
        return np.logaddexp(0.0, -z)

    obj = _objective(d, fn_batch, n_samples=n, name="logistic")

    def sigma_neg(z):
        # sigmoid(-z) without overflow on either tail
        return np.where(z >= 0, np.exp(-np.abs(z)) / (1.0 + np.exp(-np.abs(z))),
                        1.0 / (1.0 + np.exp(-np.abs(z))))

    def sample_grad(x, xi):
        z = labels[xi] * float(np.dot(feats[xi], x))
        return (-labels[xi] * float(sigma_neg(z))) * feats[xi]

    def full_grad(x):
        z = labels * (feats @ x)
        return (feats.T @ (-labels * sigma_neg(z))) / n

    row_norms = np.sqrt((feats * feats).sum(axis=1))
    meta = ProblemMetadata(
        lip_const=float(row_norms.max()),
        grad_lip=0.25 * float((row_norms ** 2).max()),
        gradient=full_grad,
        sample_gradient=sample_grad,
        extra={"features": feats, "labels": labels, "planted": planted},
    )
    return ProblemSpec(obj, L2Ball(np.zeros(d), radius), meta, np.zeros(d),
                       tag="logistic", comparator=planted)


def make_nonconvex(d, seed=0, eps=0.1, omega=3.0, box_halfwidth=None):
    """0.5*||x - x*||^2 + eps * sum_i sin(omega * x_i): a quadratic bowl with a
    sinusoidal ripple, so the gradient-Lipschitz constant 1 + eps*omega^2 is
    exact.  Optionally boxed."""
    if d < 1:
        raise ValueError("d must be >= 1")
    rng = RngStream(seed)
    x_star = rng.uniform(d) * 2.0 - 1.0

    def fn_batch(X, xi):
        r = X - x_star
        return 0.5 * np.vecdot(r, r) + eps * np.sum(np.sin(omega * X), axis=1)

    obj = _objective(d, fn_batch, name="nonconvex")
    meta = ProblemMetadata(
        grad_lip=1.0 + eps * omega * omega,
        gradient=lambda x: (x - x_star) + eps * omega * np.cos(omega * x),
        extra={"x_star": x_star, "eps": eps, "omega": omega},
    )
    if box_halfwidth is None:
        cset = Unconstrained()
    else:
        cset = Box(-box_halfwidth * np.ones(d), box_halfwidth * np.ones(d))
    return ProblemSpec(obj, cset, meta, np.zeros(d), tag="nonconvex")


class TinyMlp:
    """Frozen two-layer victim network: tanh hidden layer, identity output."""

    def __init__(self, w1, b1, w2, b2):
        self.w1 = np.asarray(w1, dtype=np.float64)
        self.b1 = np.asarray(b1, dtype=np.float64)
        self.w2 = np.asarray(w2, dtype=np.float64)
        self.b2 = np.asarray(b2, dtype=np.float64)
        if self.w1.ndim != 2 or self.w2.ndim != 2:
            raise ValueError("weight matrices must be 2-D")
        if self.b1.shape != (self.w1.shape[0],) or self.b2.shape != (self.w2.shape[0],):
            raise ValueError("bias shapes inconsistent with weights")
        if self.w2.shape[1] != self.w1.shape[0]:
            raise ValueError("layer shapes inconsistent")

    @property
    def input_dim(self):
        return self.w1.shape[1]

    @property
    def n_classes(self):
        return self.w2.shape[0]

    def forward(self, x):
        x = as_vector(x, self.input_dim)
        return self.w2 @ np.tanh(self.w1 @ x + self.b1) + self.b2

    def forward_batch(self, X):
        """``forward`` of every row of X, bit for bit.

        The layers are stacked matrix-vector products, the same BLAS call per
        row as ``forward``; ``X @ w1.T`` is one blocked matrix product that
        sums in another order and differs in the last bits.
        """
        hidden = np.tanh(np.matmul(self.w1, X[:, :, None])[:, :, 0] + self.b1)
        return np.matmul(self.w2, hidden[:, :, None])[:, :, 0] + self.b2

    @classmethod
    def from_json_dict(cls, doc):
        arrs = [np.array(layer["data"], dtype=np.float64).reshape(layer["shape"])
                for layer in doc["layers"]]
        return cls(*arrs)


def cw_loss(logits, t, kappa=0.0):
    """max{ Z_t - max_{j != t} Z_j, -kappa }: zero (or -kappa) exactly when the
    model no longer ranks class t on top with margin kappa."""
    logits = as_vector(logits)
    if logits.shape[0] < 2:
        raise ValueError("need at least two classes")
    if not 0 <= t < logits.shape[0]:
        raise ValueError(f"class index {t} out of range")
    if kappa < 0:
        raise ValueError("kappa must be nonnegative")
    return float(_gaps(logits[None], t, -float(kappa))[0])


def _gaps(logits, t, floor=-math.inf):
    """max{ Z_t - max_{j != t} Z_j, floor } for every row of logits; ``t`` is
    one class or one per row.  The max over j != t is exact, so masking Z_t
    out gives the same bits as slicing it out; the floor keeps Python
    ``max``'s choice on ties and NaN."""
    rows = np.arange(logits.shape[0])
    others = logits.copy()
    others[rows, t] = -np.inf
    gap = logits[rows, t] - others.max(axis=1)
    return np.where(floor > gap, floor, gap)


def _box_arctanh(x):
    """arctanh(2x) after clipping x TANH_MARGIN inside the [-0.5, 0.5] box."""
    return np.arctanh(2.0 * np.clip(x, -0.5 + TANH_MARGIN, 0.5 - TANH_MARGIN))


def tanh_reparam(w, x):
    """x' = 0.5*tanh(arctanh(2x) + w), the change of variables that removes the
    [-0.5, 0.5] box constraint.

    Inputs must lie in the box; they are clipped TANH_MARGIN inside it before
    arctanh so boundary pixels stay finite.
    """
    x = as_vector(x)
    w = as_vector(w, x.shape[0])
    if np.any(np.abs(x) > 0.5):
        raise ValueError("input outside the [-0.5, 0.5] box")
    return 0.5 * np.tanh(_box_arctanh(x) + w)


def make_attack_problem(model, images, labels, lam=10.0, kappa=0.0,
                        mode="constrained"):
    """Black-box attack objective over M images sharing one perturbation.

    constrained:   variables delta;  per-sample loss
                   lam * cw(Z(x_i + delta), t_i) + ||delta||^2,
                   delta constrained to the intersection box keeping every
                   x_i + delta inside [-0.5, 0.5]^d.
    unconstrained: variables w under the tanh reparameterization; per-sample
                   loss lam * [cw(Z(x'_i), t_i) + ||x'_i - x_i||^2].

    M = 1 attacks a single image; M > 1 searches a universal perturbation.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    if mode not in ("constrained", "unconstrained"):
        raise ValueError(f"unknown attack mode {mode!r}")
    images = [as_vector(im, model.input_dim) for im in images]
    labels = [int(t) for t in labels]
    if not images or len(images) != len(labels):
        raise ValueError("need matching non-empty images and labels")
    for im in images:
        if np.any(np.abs(im) > 0.5):
            raise ValueError("image outside the [-0.5, 0.5] box")
    if model.n_classes < 2:
        raise ValueError("need at least two classes")
    if not all(0 <= t < model.n_classes for t in labels):
        raise ValueError("class index out of range")
    if kappa < 0:
        raise ValueError("kappa must be nonnegative")
    m = len(images)
    d = model.input_dim
    image_rows = np.array(images)
    label_rows = np.array(labels)

    if mode == "constrained":
        lo = np.max([-0.5 - im for im in images], axis=0)
        hi = np.min([0.5 - im for im in images], axis=0)
        cset = Box(lo, hi)

        def fn_batch(deltas, xi):
            logits = model.forward_batch(image_rows[xi] + deltas)
            return (lam * _gaps(logits, label_rows[xi], -float(kappa))
                    + np.vecdot(deltas, deltas))

        def adversarial_rows(delta):
            return image_rows + delta

        def distortion(delta):
            return float(np.dot(delta, delta))
    else:
        cset = Unconstrained()
        # tanh_reparam's inner term depends on the image only
        image_arctanh = _box_arctanh(image_rows)

        def fn_batch(ws, xi):
            xp = 0.5 * np.tanh(image_arctanh[xi] + ws)
            diff = xp - image_rows[xi]
            return lam * (_gaps(model.forward_batch(xp), label_rows[xi], -float(kappa))
                          + np.vecdot(diff, diff))

        def adversarial_rows(w):
            return 0.5 * np.tanh(image_arctanh + w)

        def distortion(w):
            diff = adversarial_rows(w) - image_rows
            tot = 0.0  # summed in image order: np.sum would pair the terms
            for sq in np.vecdot(diff, diff).tolist():
                tot += sq
            return tot / m

    def success_count(v):
        gaps = _gaps(model.forward_batch(adversarial_rows(v)), label_rows)
        return int(np.count_nonzero(gaps <= 0.0))

    obj = _objective(d, fn_batch, n_samples=m, name=f"attack-{mode}")
    meta = ProblemMetadata(extra={"lam": lam, "kappa": kappa, "mode": mode})
    tag = "attack-universal" if m > 1 else "attack-per-image"
    return ProblemSpec(obj, cset, meta, np.zeros(d), tag=tag,
                       distortion_fn=distortion, success_count_fn=success_count,
                       n_images=m)


VICTIM_SEED = 90210
VICTIM_INPUT_DIM = 16
VICTIM_HIDDEN = 12
VICTIM_CLASSES = 4
VICTIM_N_INPUTS = 10
VICTIM_MARGIN = (0.45, 1.20)  # confidence-gap band: hard enough that attack
                              # quality separates the optimizers


def generate_victim(seed=VICTIM_SEED):
    """Deterministically build the frozen victim model plus 10 feasible inputs
    it classifies as one common class with a moderate confidence gap.

    Returns (model, inputs list, labels list).
    """
    rng = RngStream(seed)
    w1 = rng.normal(VICTIM_HIDDEN * VICTIM_INPUT_DIM).reshape(
        VICTIM_HIDDEN, VICTIM_INPUT_DIM) / math.sqrt(VICTIM_INPUT_DIM)
    b1 = 0.1 * rng.normal(VICTIM_HIDDEN)
    w2 = rng.normal(VICTIM_CLASSES * VICTIM_HIDDEN).reshape(
        VICTIM_CLASSES, VICTIM_HIDDEN) / math.sqrt(VICTIM_HIDDEN)
    b2 = 0.1 * rng.normal(VICTIM_CLASSES)
    model = TinyMlp(w1, b1, w2, b2)

    by_class = {k: [] for k in range(VICTIM_CLASSES)}
    lo_gap, hi_gap = VICTIM_MARGIN
    for _ in range(200_000):
        cand = rng.uniform(VICTIM_INPUT_DIM) * 0.9 - 0.45
        logits = model.forward(cand)
        pred = int(np.argmax(logits))
        if lo_gap <= _gaps(logits[None], pred)[0] <= hi_gap:
            by_class[pred].append(cand)
            if len(by_class[pred]) == VICTIM_N_INPUTS:
                inputs = by_class[pred]
                return model, inputs, [pred] * VICTIM_N_INPUTS
    raise RuntimeError("victim input search exhausted its candidate budget")


def load_victim():
    """Load the pinned victim model and its 10 inputs shipped with the package."""
    with resources.files("zoopt").joinpath("data/victim.json").open("r") as fh:
        doc = json.load(fh)
    model = TinyMlp.from_json_dict(doc)
    inputs = [np.array(im, dtype=np.float64) for im in doc["inputs"]]
    return model, inputs, [int(t) for t in doc["labels"]]
