"""Correctness checks, computed apart from zoopt.

Each workload's outputs are checked against values the benchmark derives on
its own: problem data regenerated from the documented counter-based stream
(pure Python), losses recomputed with plain numpy, a projected-gradient
reference minimum, and a victim forward pass read straight from
``victim.json``.  Query counts are checked against the estimators' closed
forms.  A failed check raises :class:`CheckFailed`.
"""

import json
import math

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_TWO53 = float(1 << 53)

# the tanh change of variables keeps this clearance from the box boundary
TANH_MARGIN = 1e-6
BOX_TOL = 1e-12
# a success must leave the true class at most this far ahead of the runner-up;
# it absorbs rounding differences between two forward passes
GAP_TOL = 1e-9

CONSTRAINED_METHODS = ("zo-adamm", "zo-psgd", "zo-smd", "zo-nes")


class CheckFailed(AssertionError):
    """An output of the program disagrees with the benchmark's own reference."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


class SplitMix:
    """The k-th raw word is mix64(seed + k * golden), k = 1, 2, ...; doubles
    take the top 53 bits, Gaussians are Box-Muller (cosine branch) on word
    pairs.  Written from the stream's definition in plain Python integers."""

    def __init__(self, seed):
        self.key = int(seed) & _MASK
        self.counter = 0

    def words(self, n):
        out = []
        for k in range(self.counter + 1, self.counter + n + 1):
            z = (self.key + k * _GOLDEN) & _MASK
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
            out.append(z ^ (z >> 31))
        self.counter += n
        return out

    def uniform(self, n):
        return np.array([(w >> 11) / _TWO53 for w in self.words(n)])

    def normal(self, n):
        w = self.words(2 * n)
        return np.array([
            math.sqrt(-2.0 * math.log(((w[2 * i] >> 11) + 1.0) / _TWO53))
            * math.cos(2.0 * math.pi * ((w[2 * i + 1] >> 11) / _TWO53))
            for i in range(n)])


def estimator_cost(method, b, q, d):
    """Queries per iteration: b*(q+1) for the two-point average, 2*min(q, d)
    for coordinate differences (zo-scd), 2*q for antithetic pairs (zo-nes)."""
    if method == "zo-scd":
        return 2 * min(q, d)
    if method == "zo-nes":
        return 2 * q
    return b * (q + 1)


def check_accounting(label, total, iterations, cost, budget):
    require(total == iterations * cost,
            f"{label}: {total} counted queries != {iterations} iterations x "
            f"{cost} queries per iteration")
    require(0 <= budget - total < cost,
            f"{label}: {budget - total} of the {budget}-query budget unused, "
            f"at least one iteration's cost ({cost})")


def check_counted(label, counted, reported):
    require(counted == reported,
            f"{label}: the oracle counted {counted} queries, the run "
            f"reported {reported}")


# ---------------------------------------------------------------------------
# quadratic-adamm


def quadratic_reference(seed, d):
    """Minimizer of the unit-condition diagonal quadratic built from ``seed``."""
    return {"x_star": SplitMix(seed).uniform(d) * 2.0 - 1.0}


def check_quadratic(out, ref, spec):
    require(out["aborted"] is None, f"quadratic: run aborted: {out['aborted']}")
    r = np.asarray(out["final_x"]) - ref["x_star"]
    gap = 0.5 * float(r @ r)  # f* = 0
    require(gap <= spec["max_gap"],
            f"quadratic: final f - f* = {gap:.3e} > {spec['max_gap']:.0e}")
    require(abs(out["reported_loss"] - gap) <= 1e-9 * gap + 1e-15,
            f"quadratic: reported final loss {out['reported_loss']!r} != "
            f"recomputed {gap!r}")
    check_accounting("quadratic", out["total_queries"], out["iterations"],
                     out["cost"], out["budget"])
    check_counted("quadratic", out["counted"], out["total_queries"])


# ---------------------------------------------------------------------------
# logistic-ball


def logistic_loss(w, feats, labels):
    return float(np.mean(np.logaddexp(0.0, -labels * (feats @ w))))


def logistic_reference(seed, n, d, radius, iters=5000):
    """Regenerated data and the ball-constrained minimum, by projected
    gradient descent with step 1/L on the analytic loss."""
    rng = SplitMix(seed)
    feats = rng.normal(n * d).reshape(n, d)
    planted = rng.normal(d)
    labels = np.where(feats @ planted >= 0, 1.0, -1.0)
    step = 1.0 / (0.25 * float(np.linalg.eigvalsh(feats.T @ feats / n).max()))
    w = np.zeros(d)
    for _ in range(iters):
        z = labels * (feats @ w)
        w = w - step * (feats.T @ (-labels * 0.5 * (1.0 - np.tanh(0.5 * z)))) / n
        nrm = float(np.linalg.norm(w))
        if nrm > radius:
            w *= radius / nrm
    return {"features": feats, "labels": labels, "radius": radius,
            "min_loss": logistic_loss(w, feats, labels)}


def check_logistic(out, ref, spec):
    require(out["aborted"] is None, f"logistic: run aborted: {out['aborted']}")
    x = np.asarray(out["final_x"])
    nrm = float(np.linalg.norm(x))
    require(nrm <= ref["radius"] + BOX_TOL,
            f"logistic: final iterate norm {nrm!r} outside the ball of radius "
            f"{ref['radius']}")
    loss = logistic_loss(x, ref["features"], ref["labels"])
    gap = loss - ref["min_loss"]
    require(-1e-9 <= gap <= spec["max_gap"],
            f"logistic: final loss {loss:.6f} vs constrained minimum "
            f"{ref['min_loss']:.6f} (gap {gap:.2e}, allowed {spec['max_gap']:.0e})")
    require(abs(out["reported_loss"] - loss) <= 1e-9 * loss,
            f"logistic: reported final loss {out['reported_loss']!r} != "
            f"recomputed {loss!r}")
    require(out["regret_terms"] == out["iterations"],
            f"logistic: {out['regret_terms']} regret terms for "
            f"{out['iterations']} iterations")
    check_accounting("logistic", out["total_queries"], out["iterations"],
                     out["cost"], out["budget"])
    check_counted("logistic", out["counted"], out["total_queries"])


# ---------------------------------------------------------------------------
# attack-suite


def attack_reference(victim_path):
    """The pinned victim read from its JSON file, with its own forward pass."""
    with open(victim_path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    w1, b1, w2, b2 = (np.array(layer["data"], dtype=np.float64).reshape(layer["shape"])
                      for layer in doc["layers"])
    return {"w1": w1, "b1": b1, "w2": w2, "b2": b2,
            "inputs": [np.array(im, dtype=np.float64) for im in doc["inputs"]],
            "labels": [int(t) for t in doc["labels"]]}


def true_class_lead(ref, x, label):
    """Score of ``label`` minus the best other score; <= 0 means fooled."""
    z = ref["w2"] @ np.tanh(ref["w1"] @ x + ref["b1"]) + ref["b2"]
    return float(z[label] - np.max(np.delete(z, label)))


def adversarial_inputs(ref, run):
    """Perturbed inputs the run's final iterate produces, one per image."""
    images = range(len(ref["inputs"])) if run["image"] is None else [run["image"]]
    v = np.asarray(run["final_x"])
    out = []
    for i in images:
        x = ref["inputs"][i]
        if run["formulation"] == "constrained":
            out.append((i, x + v))
        else:
            xs = np.clip(x, -0.5 + TANH_MARGIN, 0.5 - TANH_MARGIN)
            out.append((i, 0.5 * np.tanh(np.arctanh(2.0 * xs) + v)))
    return out


def check_attack(out, ref, spec):
    runs = out["runs"]
    n_img = len(ref["inputs"])
    methods = spec["methods"]
    require(len(runs) == len(methods) * n_img + 1,
            f"attack: {len(runs)} runs, expected {len(methods) * n_img + 1}")
    adamm_fooled = 0
    for run in runs:
        label = (f"attack {run['method']} "
                 + ("universal" if run["image"] is None else f"image {run['image']}"))
        require(run["aborted"] is None, f"{label}: run aborted: {run['aborted']}")
        want = "constrained" if run["method"] in CONSTRAINED_METHODS else "unconstrained"
        require(run["formulation"] == want,
                f"{label}: {run['formulation']} formulation, expected {want}")
        cost = estimator_cost(run["method"], spec["b"], spec["q"], len(ref["inputs"][0]))
        check_accounting(label, run["total_queries"], run["iterations"], cost,
                         run["budget"])
        require(run["total_queries"] == run["result_queries"],
                f"{label}: envelope total {run['total_queries']} != run total "
                f"{run['result_queries']}")
        fooled = 0
        for i, adv in adversarial_inputs(ref, run):
            require(float(np.max(np.abs(adv))) <= 0.5 + BOX_TOL,
                    f"{label}: perturbed input {i} leaves [-0.5, 0.5]")
            lead = true_class_lead(ref, adv, ref["labels"][i])
            if lead <= GAP_TOL:
                fooled += 1
            elif run["reported_success"]:
                raise CheckFailed(f"{label}: reported a success, but the victim "
                                  f"still ranks class {ref['labels'][i]} first on "
                                  f"input {i} by {lead:.3e}")
        if run["image"] is None:
            require(fooled == run["images_fooled"],
                    f"{label}: fools {fooled} inputs, the run reported "
                    f"{run['images_fooled']}")
            require(fooled >= spec["min_universal_fooled"],
                    f"{label}: fools {fooled}/{n_img} inputs, need "
                    f"{spec['min_universal_fooled']}")
        elif run["method"] == "zo-adamm":
            adamm_fooled += fooled
    require(adamm_fooled >= spec["min_adamm_fooled"],
            f"attack zo-adamm per-image: fooled {adamm_fooled}/{n_img}, need "
            f"{spec['min_adamm_fooled']}")
    check_counted("attack", out["counted"],
                  sum(run["total_queries"] for run in runs))


# ---------------------------------------------------------------------------
# smoothing-probe


def check_smoothing(out, ref, spec):
    failed = [p for p in out["properties"] if not p["passed"]]
    require(not failed, "smoothing: failing properties: "
            + ", ".join(f"{p['name']} measured={p['measured']:.4g} "
                        f"bound={p['bound']:.4g}" for p in failed))
    require(len(out["properties"]) == 8,
            f"smoothing: {len(out['properties'])} properties, expected 8")
    # two problems, `points` points each; every point runs one value probe of
    # n_value queries and n_grad two-point estimates of 2 queries each
    probes = 2 * spec["points"]
    samples = spec["n_value"] + 2 * spec["n_grad"]
    require(out["counted"] == probes * samples,
            f"smoothing: {out['counted']} counted queries != {probes} probes x "
            f"{samples} samples")
