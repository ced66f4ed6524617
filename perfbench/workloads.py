"""The four workloads.

Each workload has a set-up (problem construction, timed as part of
``setup_s``), a round (the timed call into zoopt), an untimed step that turns
the round's results into plain outputs, an independent reference computed
once per process, and a check of the outputs against that reference.  A
round repeats the same operations with the same seed, so every round of a
run does identical work.

zoopt functions are looked up on their modules at call time, so the traced
run's wrappers (see ``spans.py``) see every call.
"""

import csv
import json

from zoopt import cli, optimizers, problems, validate
from zoopt.oracle import StochasticObjective

import checks

ATTACK_METHODS = ("zo-adamm", "zo-psgd", "zo-smd", "zo-nes", "zo-sgd",
                  "zo-signsgd", "zo-scd")

# "full" is what the benchmark measures; "quick" is the untimed warm-up of
# every run and the size the benchmark's own tests use
SPECS = {
    "quadratic-adamm": {
        "full": {"d": 20, "budget": 100_000, "max_gap": 1e-3},
        "quick": {"d": 20, "budget": 10_000, "max_gap": 0.5},
    },
    "logistic-ball": {
        "full": {"n": 100, "d": 10, "radius": 0.5, "budget": 24_200, "max_gap": 1e-2},
        "quick": {"n": 100, "d": 10, "radius": 0.5, "budget": 2_420, "max_gap": 0.5},
    },
    "attack-suite": {
        "full": {"methods": ATTACK_METHODS, "m": 10, "budget": 2_200,
                 "universal_budget": 33_000, "b": 1, "q": 10,
                 "min_adamm_fooled": 8, "min_universal_fooled": 6},
        "quick": {"methods": ATTACK_METHODS, "m": 10, "budget": 220,
                  "universal_budget": 3_300, "b": 1, "q": 10,
                  "min_adamm_fooled": 0, "min_universal_fooled": 0},
    },
    "smoothing-probe": {
        "full": {"mu": 0.05, "n_value": 6_000, "n_grad": 2_000, "points": 2},
        "quick": {"mu": 0.05, "n_value": 600, "n_grad": 200, "points": 1},
    },
}


class ObjectiveRegistry:
    """Keeps every StochasticObjective built after install(), so a round's
    counted queries can be read from the oracles' own counters."""

    def __init__(self):
        self.objectives = []
        self._init = None

    def install(self):
        init = self._init = StochasticObjective.__init__
        registry = self.objectives

        def registering_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            registry.append(obj)
        StochasticObjective.__init__ = registering_init
        return self

    def uninstall(self):
        StochasticObjective.__init__ = self._init

    def total(self):
        return sum(obj.queries for obj in self.objectives)


class _OptimizerRun:
    """A round is one ``run_optimizer`` call on a problem built at set-up."""

    @staticmethod
    def run(state):
        return optimizers.run_optimizer(state["problem"], state["cfg"],
                                        state["budget"])

    @staticmethod
    def outputs(state, res, counted):
        cfg = state["cfg"]
        return {
            "final_x": res.final_x.copy(),
            "reported_loss": res.trace.records[-1].loss,
            "iterations": res.trace.records[-1].iter,
            "records": len(res.trace.records),
            "regret_terms": len(res.trace.sampled_losses),
            "total_queries": res.trace.total_queries,
            "counted": counted,
            "aborted": res.trace.aborted,
            "budget": state["budget"],
            "cost": checks.estimator_cost(cfg.algorithm, cfg.estimator.b,
                                          cfg.estimator.q, len(res.final_x)),
        }

    @staticmethod
    def figures(out):
        return {k: out[k] for k in ("counted", "iterations", "records",
                                    "regret_terms")}


class QuadraticAdamm(_OptimizerRun):
    name = "quadratic-adamm"
    check = staticmethod(checks.check_quadratic)

    @staticmethod
    def setup(seed, spec, root):
        return {"problem": problems.make_quadratic(spec["d"], condition=1.0, seed=seed),
                "cfg": optimizers.default_config("zo-adamm", seed=seed + 1),
                "budget": spec["budget"]}

    @staticmethod
    def reference(seed, spec, root):
        return checks.quadratic_reference(seed, spec["d"])


class LogisticBall(_OptimizerRun):
    name = "logistic-ball"
    check = staticmethod(checks.check_logistic)

    @staticmethod
    def setup(seed, spec, root):
        return {"problem": problems.make_logistic(spec["n"], spec["d"], seed=seed,
                                                  radius=spec["radius"]),
                "cfg": optimizers.default_config("zo-adamm", seed=seed + 1),
                "budget": spec["budget"]}

    @staticmethod
    def reference(seed, spec, root):
        return checks.logistic_reference(seed, spec["n"], spec["d"], spec["radius"])


def _read_run_files(outdir, name):
    """(last CSV iteration, envelope total queries, bytes) of one attack run."""
    csv_path = outdir / f"{name}.csv"
    json_path = outdir / f"{name}.json"
    with open(csv_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    with open(json_path, encoding="utf-8") as fh:
        envelope = json.load(fh)
    return (int(rows[-1][0]), envelope["summary"]["total_queries"],
            csv_path.stat().st_size + json_path.stat().st_size)


class AttackSuite:
    name = "attack-suite"
    check = staticmethod(checks.check_attack)

    @staticmethod
    def setup(seed, spec, root):
        problems.load_victim()
        return {"seed": seed, "spec": spec,
                "outdir": root / "perfbench" / "out" / "attack-suite"}

    @staticmethod
    def run(state):
        spec, seed, outdir = state["spec"], state["seed"], state["outdir"]
        # the summary omits final iterates; keep each job's result to check
        # them (one extra Python call per job, 71 per round)
        captured = []
        run_optimizer = cli.run_optimizer

        def capture(problem, cfg, budget, **kwargs):
            res = run_optimizer(problem, cfg, budget, **kwargs)
            captured.append((problem, cfg, res, budget))
            return res
        cli.run_optimizer = capture
        try:
            per_image = cli.run_attack_suite(
                "per-image", spec["m"], list(spec["methods"]), spec["budget"], seed,
                outdir / "per-image", workers=1)
            universal = cli.run_attack_suite(
                "universal", spec["m"], ["zo-adamm"], spec["universal_budget"], seed,
                outdir / "universal", workers=1)
        finally:
            cli.run_optimizer = run_optimizer
        return per_image, universal, captured

    @staticmethod
    def outputs(state, raw, counted):
        per_image, universal, captured = raw
        outdir = state["outdir"]
        rows = []
        for mode, summary in (("per-image", per_image), ("universal", universal)):
            for method, stats in summary["optimizers"].items():
                rows += [(mode, method, row) for row in stats["runs"]]
        # with one worker, jobs run in the order the summary lists them
        checks.require(len(rows) == len(captured),
                       f"attack: {len(rows)} summary rows for {len(captured)} runs")
        runs, written = [], 0
        for (mode, method, row), (problem, cfg, res, budget) in zip(rows, captured):
            checks.require(cfg.algorithm == method and cfg.seed == row["seed"]
                           and res.trace.records[-1].loss == row["final_loss"],
                           f"attack: summary row {method}/{row['image']} does not "
                           "match the run executed in its place")
            if mode == "per-image":
                name = f"{method}_img{row['image']:02d}_seed{row['seed']}"
            else:
                name = f"{method}_universal_seed{row['seed']}"
            iterations, total, size = _read_run_files(outdir / mode, name)
            written += size
            runs.append({
                "method": method, "image": row["image"], "seed": row["seed"],
                "formulation": problem.metadata.extra["mode"],
                "final_x": res.final_x.copy(),
                "reported_success": row["success"],
                "images_fooled": row["images_fooled"],
                "aborted": res.trace.aborted,
                "iterations": iterations, "total_queries": total,
                "result_queries": res.trace.total_queries, "budget": budget,
            })
        first_success = {m: s["median_first_success_queries"]
                         for m, s in per_image["optimizers"].items()}
        return {"runs": runs, "counted": counted, "bytes_written": written,
                "median_first_success_queries": first_success}

    @staticmethod
    def figures(out):
        return {k: out[k] for k in ("counted", "bytes_written",
                                    "median_first_success_queries")}

    @staticmethod
    def reference(seed, spec, root):
        return checks.attack_reference(root / "src" / "zoopt" / "data" / "victim.json")


class SmoothingProbe:
    name = "smoothing-probe"
    check = staticmethod(checks.check_smoothing)

    @staticmethod
    def setup(seed, spec, root):
        return {"seed": seed, "spec": spec}

    @staticmethod
    def run(state):
        spec = state["spec"]
        return validate.smoothing_suite(
            seed=state["seed"], mu=spec["mu"], n_value=spec["n_value"],
            n_grad=spec["n_grad"], points_per_problem=spec["points"])

    @staticmethod
    def outputs(state, results, counted):
        return {"properties": [{"name": r.name, "passed": bool(r.passed),
                                "measured": float(r.measured), "bound": float(r.bound)}
                               for r in results],
                "counted": counted}

    @staticmethod
    def figures(out):
        return {"counted": out["counted"], "properties": len(out["properties"])}

    @staticmethod
    def reference(seed, spec, root):
        return None


WORKLOADS = {w.name: w for w in (QuadraticAdamm, LogisticBall, AttackSuite,
                                 SmoothingProbe)}
