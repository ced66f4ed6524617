"""Black-box adversarial attacks on the pinned toy victim.

The victim is a frozen 16-input tanh network shipped with the package, with 10
inputs it classifies as one class.  An attacker who can only query prediction
scores minimizes the margin-based attack loss plus an l2 distortion penalty,
either over the perturbation directly (box-constrained) or through the tanh
change of variables (unconstrained).  M > 1 searches one perturbation that
fools all images at once.
"""

import numpy as np

from zoopt import load_victim, make_attack_problem, run_optimizer
from zoopt.metrics import first_success
from zoopt.optimizers import default_config

model, inputs, labels = load_victim()
print(f"victim: {model.input_dim}-d input, {model.n_classes} classes; "
      f"{len(inputs)} pinned inputs all labelled {labels[0]}")

print("\nper-image constrained attacks (budget 2200 queries each):")
for opt, alpha in (("zo-adamm", 0.025), ("zo-psgd", 0.05)):
    wins, dists = 0, []
    for i in range(10):
        problem = make_attack_problem(model, [inputs[i]], [labels[i]], lam=10.0)
        res = run_optimizer(problem, default_config(opt, alpha=alpha, seed=0,
                                                    b=1, q=10), 2200)
        fs = first_success(res.trace.records)
        if fs is not None:
            wins += 1
            dists.append(res.trace.records[-1].distortion)
    print(f"  {opt:9s} fooled {wins}/10, median final ||delta||^2 = "
          f"{np.median(dists):.4f}")

print("\nuniversal perturbation (one delta, all 10 images, 33000 queries):")
problem = make_attack_problem(model, inputs, labels, lam=10.0)
res = run_optimizer(problem, default_config("zo-adamm", alpha=0.02, seed=0,
                                            b=1, q=10), 33_000)
delta = res.final_x
print(f"  images fooled: {problem.success_count_fn(delta)}/10, "
      f"||delta||^2 = {float(np.dot(delta, delta)):.4f}")
pred = [int(np.argmax(model.forward(im + delta))) for im in inputs]
print(f"  adversarial predictions: {pred}  (true label {labels[0]})")
