"""Command-line harness.

Subcommands: ``run <config>``, ``sweep <config>``, ``prop1``,
``validate <suite>``, ``attack ...``.  Configs are flat ``key = value`` text
with dotted section keys; unknown keys are hard errors.  Exit codes: 0 pass,
1 property/check failure, 2 configuration error, 3 numeric abort.
"""

import argparse
import math
import statistics
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .errors import ConfigError, NumericError
from .geometry import vi_violation
from .metrics import first_success, serialize_csv, write_envelope, write_json
from .estimators import EstimatorConfig, query_cost
from .optimizers import (METHODS, OptConfig, default_config, run_optimizer,
                         validate_config)
from .problems import (load_victim, make_attack_problem, make_counterexample_lp,
                       make_logistic, make_nonconvex, make_quadratic)
from .validate import SUITES, run_suites

_BOOL = {"true": True, "false": False}

SCHEMA = {
    "problem.kind": str,
    "problem.d": int,
    "problem.condition": float,
    "problem.seed": int,
    "problem.samples": int,       # quadratic: 0 means deterministic
    "problem.noise": float,
    "problem.n": int,             # logistic sample count
    "problem.radius": float,
    "problem.eps": float,
    "problem.omega": float,
    "problem.box": float,         # nonconvex box halfwidth, 0 means unconstrained
    "problem.mode": str,          # attack formulation
    "problem.m": int,
    "problem.image": int,
    "problem.lambda": float,
    "problem.kappa": float,
    # optimizer.<field> for every field of OptConfig and EstimatorConfig but
    # the nested estimator and the seed, which come from run.base_seed
    **{f"optimizer.{f.name}": f.type
       for cls in (OptConfig, EstimatorConfig) for f in fields(cls)
       if f.name not in ("estimator", "seed")},
    "run.query_budget": int,
    "run.max_iters": int,         # 0 means unlimited (budget-bound)
    "run.repeat": int,
    "run.base_seed": int,
    "run.outdir": str,
    "run.stride": int,            # 0 means auto
    "run.record_measure": str,
    "run.tag": str,
    "sweep.param": str,
    "sweep.grid": str,
    "sweep.param2": str,
    "sweep.grid2": str,
}

DEFAULTS = {
    "problem.d": 20, "problem.condition": 1.0, "problem.seed": 0,
    "problem.samples": 0, "problem.noise": 1.0, "problem.n": 100,
    "problem.radius": 5.0, "problem.eps": 0.1, "problem.omega": 3.0,
    "problem.box": 0.0, "problem.mode": "constrained", "problem.m": 1,
    "problem.image": 0, "problem.lambda": 10.0, "problem.kappa": 0.0,
    "run.max_iters": 0, "run.repeat": 1, "run.base_seed": 0,
    "run.stride": 0, "run.record_measure": "auto", "run.tag": "run",
    "sweep.param": "", "sweep.grid": "", "sweep.param2": "", "sweep.grid2": "",
}

# lowest accepted value of the keys with a lower bound that no constructor or
# validate_config checks; 0 keeps its documented meaning where it has one
MINIMUM = {"problem.samples": 0, "problem.box": 0.0, "problem.m": 1,
           "run.repeat": 1, "run.stride": 0}


def _coerce(key, raw):
    typ = SCHEMA[key]
    try:
        value = _BOOL[raw.lower()] if typ is bool else typ(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"{key}: cannot parse {raw!r} as {typ.__name__}")
    if typ is float and not math.isfinite(value):
        raise ConfigError(f"{key}: must be finite, got {raw!r}")
    return value


def parse_config_file(path):
    """Flat `key = value` config; '#' starts a comment; unknown keys are errors."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    values = {}
    for lineno, line in enumerate(p.read_text(encoding="utf-8").splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in SCHEMA:
            raise ConfigError(f"{path}:{lineno}: unknown config key: {key}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate config key: {key}")
        values[key] = _coerce(key, raw)
    return values


def build_problem(s):
    """The problem of resolved settings (``DEFAULTS`` overlaid by the file)."""
    try:
        return _make_problem(s)
    except ConfigError:
        raise
    except ValueError as err:
        # the problem constructors reject out-of-range values with ValueError
        raise ConfigError(f"problem.kind = {s['problem.kind']}: {err}") from err


def _make_problem(s):
    kind = s["problem.kind"]
    if kind == "quadratic":
        samples = s["problem.samples"]
        return make_quadratic(s["problem.d"], s["problem.condition"],
                              s["problem.seed"],
                              n_samples=samples if samples > 0 else None,
                              noise=s["problem.noise"])
    if kind == "logistic":
        return make_logistic(s["problem.n"], s["problem.d"],
                             s["problem.seed"], s["problem.radius"])
    if kind == "nonconvex":
        box = s["problem.box"]
        return make_nonconvex(s["problem.d"], s["problem.seed"],
                              s["problem.eps"], s["problem.omega"],
                              box_halfwidth=box if box > 0 else None)
    if kind == "counterexample":
        return make_counterexample_lp()
    if kind == "attack":
        model, inputs, labels = load_victim()
        first, m = s["problem.image"], s["problem.m"]
        if not 0 <= first < len(inputs) or first + m > len(inputs):
            raise ConfigError("problem.image/problem.m: pinned input range "
                              f"exceeds the {len(inputs)} available inputs")
        return make_attack_problem(model, inputs[first:first + m],
                                   labels[first:first + m],
                                   lam=s["problem.lambda"],
                                   kappa=s["problem.kappa"],
                                   mode=s["problem.mode"])
    raise ConfigError(f"problem.kind: unknown problem {kind!r}")


def build_optimizer_config(values, seed):
    overrides = {key.split(".", 1)[1]: val for key, val in values.items()
                 if key.startswith("optimizer.")}
    return default_config(overrides.pop("algorithm", "zo-adamm"), seed=seed,
                          **overrides)


def _check_point(settings):
    """Raise ConfigError unless the resolved settings can run."""
    for key, lowest in MINIMUM.items():
        if not settings[key] >= lowest:
            raise ConfigError(f"{key}: must be >= {lowest}")
    problem = build_problem(settings)
    validate_config(build_optimizer_config(settings, settings["run.base_seed"]),
                    problem, settings["run.query_budget"],
                    settings["run.max_iters"] or None,
                    settings["run.record_measure"])


def _plan(config_path, sweep):
    """Parse a run or sweep config into its settings, output directory (made
    once every point checks out) and one (values, settings, seed, label) job
    per grid point and repeat; without ``sweep`` the file is the one point."""
    values = parse_config_file(config_path)
    for key in ("problem.kind", "run.query_budget", "run.outdir"):
        if key not in values:
            raise ConfigError(f"missing required config key: {key}")
    base = {**DEFAULTS, **values}
    # the tag starts every output file name, so it must stay one component
    tag = base["run.tag"]
    if tag in ("", ".", "..") or any(c in tag for c in "/\\\0"):
        raise ConfigError(f"run.tag: {tag!r} is not a plain file name")
    points = [(values, tag)]
    for param_key, grid_key in ((("sweep.param", "sweep.grid"),
                                 ("sweep.param2", "sweep.grid2")) if sweep else ()):
        param = base[param_key]
        if not param:
            continue
        # the plan's own keys (job count, seeds, file names, grid) stay fixed
        if param not in SCHEMA or param.startswith("sweep.") or param in (
                "run.repeat", "run.base_seed", "run.tag", "run.outdir"):
            raise ConfigError(f"{param_key}: {param!r} is not a key a sweep "
                              "can vary")
        grid = [v.strip() for v in base[grid_key].split(",") if v.strip()]
        if not grid:
            raise ConfigError(f"{grid_key}: empty grid for swept key {param!r}")
        points = [({**combo, param: _coerce(param, raw)},
                   f"{label}_{param.split('.')[-1]}{raw}")
                  for combo, label in points for raw in grid]
    jobs = []
    for combo, label in points:
        settings = {**DEFAULTS, **combo}
        _check_point(settings)
        jobs += [(combo, settings, base["run.base_seed"] + r, label)
                 for r in range(base["run.repeat"])]
    outdir = Path(base["run.outdir"])
    outdir.mkdir(parents=True, exist_ok=True)
    return base, outdir, jobs


def _write_run(result, outdir, name):
    csv_path = outdir / f"{name}.csv"
    serialize_csv(result.trace, csv_path)
    write_envelope(result, csv_path.name, outdir / f"{name}.json")


def _execute_one(values, settings, seed, outdir, tag):
    result = run_optimizer(build_problem(settings),
                           build_optimizer_config(settings, seed),
                           settings["run.query_budget"],
                           max_iters=settings["run.max_iters"] or None,
                           stride=settings["run.stride"] or None,
                           record_measure=settings["run.record_measure"])
    # echo the file config alongside the resolved optimizer so the envelope
    # suffices for exact re-execution
    result.config = {"file": {k: values[k] for k in sorted(values)},
                     "optimizer": result.config}
    _write_run(result, outdir, f"{tag}_seed{seed}")
    return result


def cmd_run(config_path):
    _, outdir, jobs = _plan(config_path, sweep=False)
    exit_code = 0
    for combo, settings, seed, tag in jobs:
        result = _execute_one(combo, settings, seed, outdir, tag)
        status = "aborted" if result.trace.aborted else "ok"
        print(f"{tag} seed={seed}: {status}, "
              f"final_loss={result.trace.records[-1].loss:.6g}, "
              f"queries={result.trace.total_queries}, "
              f"seconds={result.seconds:.3f}")
        if result.trace.aborted:
            print(f"  numeric abort: {result.trace.aborted}", file=sys.stderr)
            exit_code = 3
    return exit_code


def cmd_sweep(config_path):
    base, outdir, jobs = _plan(config_path, sweep=True)
    summary = []
    for combo, settings, seed, label in jobs:
        res = _execute_one(combo, settings, seed, outdir, label)
        summary.append({"label": label, "seed": seed,
                        "final_loss": res.trace.records[-1].loss,
                        "total_queries": res.trace.total_queries,
                        "aborted": res.trace.aborted})
    write_json(summary, outdir / f"{base['run.tag']}_sweep_summary.json")
    print(f"sweep complete: {len(jobs)} runs -> {outdir}")
    return 3 if any(row["aborted"] for row in summary) else 0


def cmd_prop1():
    """Reproduce the projection counterexample: the Euclidean-projection variant
    pins at [0.5, 0.5] while the weighted variant makes strict progress."""
    problem = make_counterexample_lp()
    shared = dict(beta1=0.0, beta2=0.0, use_vhat_max=False, alpha=0.1,
                  alpha_schedule="inverse-sqrt", kind="analytic", seed=0)
    euclid = default_config("zo-adamm", euclidean_projection_override=True,
                            **shared)
    weighted = default_config("zo-adamm", **shared)
    res_e = run_optimizer(problem, euclid, 0, max_iters=1000,
                          keep_iterates=True, record_measure="off")
    res_m = run_optimizer(problem, weighted, 0, max_iters=1000,
                          keep_iterates=True, record_measure="off")

    fixed = all(np.array_equal(xt, problem.x0) for xt in res_e.trace.iterates)
    witness = vi_violation(problem.metadata.gradient(problem.x0), problem.x0,
                           np.array([0.6, 0.4]))
    witness_ok = abs(witness - (-0.1)) <= 1e-12

    losses = [problem.objective.peek(xt, 0) for xt in res_m.trace.iterates]
    x1_path = [float(xt[0]) for xt in res_m.trace.iterates]
    feasible = all(problem.constraint.member(xt, tol=1e-12)
                   for xt in res_m.trace.iterates)
    decreasing = all(b < a for a, b in zip(losses, losses[1:]))
    increasing = all(b > a for a, b in zip(x1_path, x1_path[1:]))
    weighted_ok = feasible and decreasing and increasing

    print(f"euclidean variant:  final iterate = {res_e.final_x}")
    print(f"weighted variant:   final iterate = {res_m.final_x}")
    print(f"VI witness <grad, [0.6,0.4]-[0.5,0.5]> = {witness!r}")
    print(f"{'PASS' if fixed and witness_ok else 'FAIL'}  euclidean projection "
          f"fixed at [0.5, 0.5] for 1000 iterations while the VI fails")
    print(f"{'PASS' if weighted_ok else 'FAIL'}  weighted projection leaves the "
          f"fixed point, stays feasible, and strictly decreases the objective")
    return 0 if (fixed and witness_ok and weighted_ok) else 1


def cmd_validate(suite, seed=0):
    names = list(SUITES) if suite == "all" else [suite]
    for name in names:
        if name not in SUITES:
            print(f"unknown validation suite: {name} "
                  f"(choose from {', '.join(SUITES)}, all)", file=sys.stderr)
            return 2
    results = run_suites(names, seed=seed)
    for r in results:
        print(r.line())
    failures = [r for r in results if not r.passed]
    if failures:
        print(f"first failing property: {failures[0].name}", file=sys.stderr)
        return 1
    return 0


def _attack_formulation(opt, requested):
    if requested != "auto":
        return requested
    return "constrained" if METHODS[opt].projected else "unconstrained"


def _attack_config(opt, seed):
    return default_config(opt, alpha=METHODS[opt].attack_alpha, seed=seed,
                          b=1, q=10)


def run_attack_suite(mode, m, opts, budget, seed, outdir, formulation="auto",
                     repeat=1, workers=1):
    """Run the pinned-victim attack protocol one job after another; returns the
    summary dict.  ``workers`` must be 1: the keyword remains for callers
    written when the jobs ran on a thread pool."""
    model, inputs, labels = load_victim()
    if mode not in ("per-image", "universal"):
        raise ConfigError(f"attack mode must be per-image or universal, got {mode}")
    if not 1 <= m <= len(inputs):
        raise ConfigError(f"--m must be in [1, {len(inputs)}]")
    if repeat < 1:
        raise ConfigError("--repeat must be >= 1")
    if workers != 1:
        raise ConfigError(f"workers: jobs run serially, got {workers}")
    targets = ([(i, slice(i, i + 1), f"img{i:02d}") for i in range(m)]
               if mode == "per-image" else [(None, slice(0, m), "universal")])
    # each method's first job is built and checked here; its other jobs
    # share the dimension and the kind of constraint
    first = {}
    for opt in opts:
        if opt not in METHODS:
            raise ConfigError(f"--opt: unknown optimizer {opt!r}")
        form = _attack_formulation(opt, formulation)
        if form == "constrained" and not METHODS[opt].projected:
            raise ConfigError(f"--opt/--formulation: {opt} handles the "
                              "unconstrained formulation only")
        span = targets[0][1]
        problem = make_attack_problem(model, inputs[span], labels[span],
                                      mode=form)
        cfg = _attack_config(opt, seed)
        cost = query_cost(cfg.estimator, problem.objective.dim)
        if budget < cost:
            raise ConfigError(f"--budget: {budget} is below one {opt} "
                              f"iteration's cost {cost}")
        validate_config(cfg, problem, budget)
        first[opt] = problem
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    summary = {"mode": mode, "m": m, "budget": budget, "seeds":
               list(range(seed, seed + repeat)), "optimizers": {}}
    for opt in opts:
        form = _attack_formulation(opt, formulation)
        rows = []
        for run_seed in range(seed, seed + repeat):
            for image, span, label in targets:
                problem = first.pop(opt, None) or make_attack_problem(
                    model, inputs[span], labels[span], mode=form)
                res = run_optimizer(problem, _attack_config(opt, run_seed), budget)
                _write_run(res, outdir, f"{opt}_{label}_seed{run_seed}")
                fs = first_success(res.trace.records)
                final = res.trace.records[-1]
                rows.append({
                    "seed": run_seed, "image": image,
                    "success": bool(final.success),
                    "ever_success": fs is not None,
                    "first_success_queries": None if fs is None else fs[1],
                    "final_distortion": final.distortion,
                    "final_loss": final.loss,
                    "images_fooled": problem.success_count_fn(res.final_x),
                })
        succ = [r for r in rows if r["ever_success"]]
        summary["optimizers"][opt] = {
            "runs": rows,
            "success_rate": len(succ) / len(rows),
            "median_first_success_queries": statistics.median(
                [r["first_success_queries"] for r in succ]) if succ else None,
            "median_final_distortion_successful": statistics.median(
                [r["final_distortion"] for r in succ]) if succ else None,
        }
    return summary


def _attack_text_table(summary):
    lines = [f"{'optimizer':<12} {'succ rate':>9} {'med 1st-succ q':>15} "
             f"{'med final dist':>15}"]
    for opt, stats in summary["optimizers"].items():
        q = stats["median_first_success_queries"]
        d = stats["median_final_distortion_successful"]
        lines.append(f"{opt:<12} {stats['success_rate']:>9.2f} "
                     f"{'-' if q is None else q:>15} "
                     f"{'-' if d is None else format(d, '.4f'):>15}")
    return "\n".join(lines) + "\n"


def cmd_attack(args):
    opts = [o.strip() for o in args.opt.split(",") if o.strip()]
    summary = run_attack_suite(args.mode, args.m, opts, args.budget, args.seed,
                               args.out, formulation=args.formulation,
                               repeat=args.repeat)
    outdir = Path(args.out)
    write_json(summary, outdir / "attack_summary.json")
    table = _attack_text_table(summary)
    (outdir / "attack_summary.txt").write_text(table, encoding="utf-8")
    print(table, end="")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="zoopt",
                                     description="zeroth-order optimization "
                                                 "benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute runs from a config file")
    p_run.add_argument("config")
    p_sweep = sub.add_parser("sweep", help="execute a parameter sweep")
    p_sweep.add_argument("config")
    sub.add_parser("prop1", help="reproduce the projection counterexample")
    p_val = sub.add_parser("validate", help="run property suites")
    p_val.add_argument("suite")
    p_val.add_argument("--seed", type=int, default=0)
    p_att = sub.add_parser("attack", help="run the pinned-victim attack protocol")
    p_att.add_argument("--mode", choices=("per-image", "universal"),
                       default="per-image")
    p_att.add_argument("--m", type=int, default=10)
    p_att.add_argument("--opt", default="zo-adamm,zo-psgd")
    p_att.add_argument("--budget", type=int, default=11000)
    p_att.add_argument("--seed", type=int, default=0)
    p_att.add_argument("--out", required=True)
    p_att.add_argument("--formulation", choices=("auto", "constrained",
                                                 "unconstrained"), default="auto")
    p_att.add_argument("--repeat", type=int, default=1)
    args = parser.parse_args(argv)

    try:
        if args.command == "run":
            return cmd_run(args.config)
        if args.command == "sweep":
            return cmd_sweep(args.config)
        if args.command == "prop1":
            return cmd_prop1()
        if args.command == "validate":
            return cmd_validate(args.suite, seed=args.seed)
        if args.command == "attack":
            return cmd_attack(args)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except NumericError as err:
        print(f"numeric error: {err}", file=sys.stderr)
        return 3
    raise AssertionError("unreachable")


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
