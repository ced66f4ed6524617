import json
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from zoopt.cli import (DEFAULTS, SCHEMA, build_optimizer_config, main,
                       parse_config_file, run_attack_suite)
from zoopt.errors import ConfigError
from zoopt.estimators import EstimatorConfig
from zoopt.optimizers import METHODS, OptConfig

QUAD_CFG = """
problem.kind = quadratic
problem.d = 5
problem.seed = 3
optimizer.algorithm = zo-adamm
optimizer.b = 1
optimizer.q = 2
run.query_budget = 300
run.repeat = 2
run.base_seed = 11
run.tag = quick
"""


def write_cfg(tmp_path, body, outdir_name="out"):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(body + f"\nrun.outdir = {tmp_path / outdir_name}\n",
                   encoding="utf-8")
    return cfg


def test_missing_config_file(capsys):
    assert main(["run", "/no/such/file.cfg"]) == 2
    assert "/no/such/file.cfg" in capsys.readouterr().err


def test_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    for key in ("problem.dd", "run.workers"):
        cfg.write_text(f"problem.kind = quadratic\n{key} = 4\n")
        assert main(["run", str(cfg)]) == 2
        assert f"unknown config key: {key}" in capsys.readouterr().err


def test_duplicate_key_rejected(tmp_path):
    cfg = tmp_path / "dup.cfg"
    cfg.write_text("problem.d = 4\nproblem.d = 5\n")
    with pytest.raises(ConfigError):
        parse_config_file(cfg)


def test_budget_below_iteration_cost(tmp_path, capsys):
    cfg = write_cfg(tmp_path, QUAD_CFG.replace("run.query_budget = 300",
                                               "run.query_budget = 2"))
    assert main(["run", str(cfg)]) == 2
    assert "query_budget" in capsys.readouterr().err


def test_run_repeat_and_reexecution_identical(tmp_path):
    cfg = write_cfg(tmp_path, QUAD_CFG)
    assert main(["run", str(cfg)]) == 0
    outdir = tmp_path / "out"
    first = {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}
    assert set(first) == {"quick_seed11.csv", "quick_seed11.json",
                          "quick_seed12.csv", "quick_seed12.json"}
    assert first["quick_seed11.csv"] != first["quick_seed12.csv"]
    assert main(["run", str(cfg)]) == 0
    second = {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}
    assert first == second


def test_envelope_contains_config_echo(tmp_path):
    cfg = write_cfg(tmp_path, QUAD_CFG)
    main(["run", str(cfg)])
    doc = json.loads((tmp_path / "out" / "quick_seed11.json").read_text())
    assert doc["config"]["optimizer"]["algorithm"] == "zo-adamm"
    assert doc["config"]["optimizer"]["seed"] == 11
    assert doc["config"]["file"]["problem.kind"] == "quadratic"
    assert doc["config"]["file"]["run.query_budget"] == 300
    assert doc["summary"]["total_queries"] == 300
    # every field of both configs, with no hand-kept list behind it
    names = {f.name for cls in (OptConfig, EstimatorConfig) for f in fields(cls)}
    assert set(doc["config"]["optimizer"]) == (
        names - {"estimator", "kind"} | {"estimator_kind", "gamma"})


def test_prop1_passes(capsys):
    assert main(["prop1"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 2
    assert "-0.09999999999999" in out


def test_validate_geometry(capsys):
    assert main(["validate", "geometry"]) == 0
    out = capsys.readouterr().out
    assert "geometry.band_weighted_vs_oracle" in out
    assert "FAIL" not in out


def test_validate_unknown_suite(capsys):
    assert main(["validate", "nonsense"]) == 2
    assert "nonsense" in capsys.readouterr().err


def test_sweep(tmp_path):
    body = QUAD_CFG + "\nsweep.param = optimizer.alpha\nsweep.grid = 0.05,0.1\n"
    body = body.replace("run.repeat = 2", "run.repeat = 1")
    cfg = write_cfg(tmp_path, body, "sweepout")
    assert main(["sweep", str(cfg)]) == 0
    outdir = tmp_path / "sweepout"
    names = sorted(p.name for p in outdir.iterdir())
    assert "quick_alpha0.05_seed11.csv" in names
    assert "quick_alpha0.1_seed11.csv" in names
    assert "quick_sweep_summary.json" in names


def test_attack_smoke_and_determinism(tmp_path):
    out1, out2 = tmp_path / "a1", tmp_path / "a2"
    args = ["attack", "--mode", "per-image", "--m", "2", "--opt", "zo-adamm",
            "--budget", "440", "--seed", "5"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    s1 = (out1 / "attack_summary.json").read_bytes()
    s2 = (out2 / "attack_summary.json").read_bytes()
    assert s1 == s2
    assert (out1 / "zo-adamm_img00_seed5.csv").exists()
    assert (out1 / "attack_summary.txt").exists()
    doc = json.loads(s1)
    assert "zo-adamm" in doc["optimizers"]
    runs = doc["optimizers"]["zo-adamm"]["runs"]
    assert len(runs) == 2
    # pinned inputs are correctly classified, so the first record cannot be a
    # success and distortion starts at zero
    for name in ("zo-adamm_img00_seed5.csv", "zo-adamm_img01_seed5.csv"):
        first_row = (out1 / name).read_text().splitlines()[1].split(",")
        assert first_row[0] == "0" and first_row[5] == "0.0"
        assert first_row[6] == "false"


def test_attack_unknown_optimizer(tmp_path, capsys):
    code = main(["attack", "--opt", "zo-bogus", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "zo-bogus" in capsys.readouterr().err


def test_numeric_abort_exits_3_with_partial_outputs(tmp_path, capsys):
    # a catastrophic step size overflows the iterate within two iterations
    body = """
problem.kind = quadratic
problem.d = 4
optimizer.algorithm = zo-adamm
optimizer.alpha = 1e160
optimizer.alpha_schedule = constant
optimizer.b = 1
optimizer.q = 1
run.query_budget = 100
run.tag = blow
"""
    cfg = write_cfg(tmp_path, body, "blowout")
    assert main(["run", str(cfg)]) == 3
    csv_path = tmp_path / "blowout" / "blow_seed0.csv"
    assert csv_path.exists()
    assert len(csv_path.read_text().splitlines()) >= 2  # header + partial rows
    doc = json.loads((tmp_path / "blowout" / "blow_seed0.json").read_text())
    assert doc["summary"]["aborted"]


def test_zero_second_moment_exits_3_with_partial_outputs(tmp_path, capsys):
    body = """
problem.kind = logistic
optimizer.kind = coordinate
optimizer.q = 2
optimizer.beta2 = 0
optimizer.use_vhat_max = false
run.query_budget = 200
run.tag = flat
"""
    assert main(["run", str(write_cfg(tmp_path, body))]) == 3
    assert "positive metric" in capsys.readouterr().err
    rows = (tmp_path / "out" / "flat_seed0.csv").read_text().splitlines()
    assert len(rows) == 2  # header and the record before the first step
    doc = json.loads((tmp_path / "out" / "flat_seed0.json").read_text())
    assert "positive metric" in doc["summary"]["aborted"]


def test_attack_checks_every_budget_before_writing(tmp_path, capsys):
    # one zo-adamm iteration costs 11 queries and one zo-scd iteration 20
    out = tmp_path / "att"
    assert main(["attack", "--m", "1", "--opt", "zo-adamm,zo-scd",
                 "--budget", "15", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--budget" in err and "zo-scd" in err
    assert not out.exists()


def test_attack_names_its_flags_for_an_unprojected_method(tmp_path, capsys):
    out = tmp_path / "att"
    assert main(["attack", "--m", "1", "--opt", "zo-sgd", "--formulation",
                 "constrained", "--budget", "100", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--opt" in err and "--formulation" in err and "zo-sgd" in err
    assert "optimizer." not in err
    assert not out.exists()


def test_zero_vhat0_runs_without_a_weighted_projection(tmp_path):
    cfg = write_cfg(tmp_path, QUAD_CFG + "optimizer.vhat0 = 0\n")
    assert main(["run", str(cfg)]) == 0


def test_run_tag_stays_inside_the_output_directory_property(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    body = QUAD_CFG.replace("run.repeat = 2", "run.repeat = 1")
    # deeper than a ten-character tag can climb, so every escape lands
    # inside the example's own directory
    nest = Path(*"abcdef")

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(tag=st.text(st.sampled_from("ab._-/\\\0 #"), max_size=10)
                      | st.text(max_size=10))
    def check(tag):
        root = Path(tempfile.mkdtemp(dir=tmp_path))
        (root / nest).mkdir(parents=True)
        out = root / nest / "out"
        cfg = root / "run.cfg"
        cfg.write_text(body.replace("run.tag = quick", f"run.tag = {tag}")
                       + f"\nrun.outdir = {out}\n", encoding="utf-8")
        before = set(root.rglob("*"))
        code = main(["run", str(cfg)])
        written = set(root.rglob("*")) - before
        if code == 0:
            assert out in written
            assert all(p == out or (p.parent == out and p.is_file())
                       for p in written)
            assert any(p.suffix == ".csv" for p in written)
        else:
            assert code == 2 and not written

    check()


def test_run_tag_longer_than_a_file_name_is_a_config_error(tmp_path, capsys):
    # the longest name a run writes is "{tag}_seed11.json": 12 bytes past the tag
    cfg = write_cfg(tmp_path, QUAD_CFG.replace("run.tag = quick",
                                               f"run.tag = {'t' * 300}"))
    assert main(["run", str(cfg)]) == 2
    assert "run.tag" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # 243 bytes of tag (two-byte characters count twice) make a 255-byte name
    tag = "\u00e9" * 100 + "a" * 43
    cfg = write_cfg(tmp_path, QUAD_CFG.replace("run.tag = quick", f"run.tag = {tag}"))
    assert main(["run", str(cfg)]) == 0
    assert (tmp_path / "out" / f"{tag}_seed11.json").is_file()
    cfg = write_cfg(tmp_path, QUAD_CFG.replace("run.tag = quick",
                                               f"run.tag = {tag}a"), "out2")
    assert main(["run", str(cfg)]) == 2
    assert not (tmp_path / "out2").exists()


def test_sweep_label_longer_than_a_file_name_is_a_config_error(tmp_path, capsys):
    # the tag alone fits; the swept value added to it does not
    body = QUAD_CFG.replace("run.tag = quick", f"run.tag = {'t' * 230}")
    cfg = write_cfg(tmp_path, body + "\nsweep.param = optimizer.alpha\n"
                    "sweep.grid = 0.1,0.0500000001\n", "sweepout")
    assert main(["sweep", str(cfg)]) == 2
    assert "run.tag" in capsys.readouterr().err
    assert not (tmp_path / "sweepout").exists()


@pytest.mark.parametrize("sweep, key, why", [
    ("sweep.param = problem.mode\nsweep.grid = a/b, c", "sweep.grid",
     "plain file name"),
    ("sweep.param = problem.mode\nsweep.grid = c, a\\b", "sweep.grid",
     "plain file name"),
    ("sweep.param = optimizer.alpha\nsweep.grid = 0.1, 0.1", "sweep.grid",
     "repeated value"),
    ("sweep.param = optimizer.alpha\nsweep.grid = 0.1, 0.2\n"
     "sweep.param2 = problem.mode\nsweep.grid2 = a, x/y", "sweep.grid2",
     "plain file name"),
    ("sweep.param = optimizer.alpha\nsweep.grid = 0.1, 0.2\n"
     "sweep.param2 = run.stride\nsweep.grid2 = 3, 4, 3", "sweep.grid2",
     "repeated value"),
], ids=["slash", "backslash", "repeat", "slash-in-grid2", "repeat-in-grid2"])
def test_sweep_labels_must_be_distinct_plain_file_names(tmp_path, capsys,
                                                        sweep, key, why):
    # each label names one run's file pair: a path separator would point
    # outside run.outdir, and a repeated label would overwrite a run's files
    cfg = write_cfg(tmp_path, QUAD_CFG + sweep + "\n", "sweepout")
    assert main(["sweep", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and key in err and why in err
    assert not (tmp_path / "sweepout").exists()


def test_sweep_points_match_single_runs(tmp_path):
    body = QUAD_CFG.replace("run.repeat = 2", "run.repeat = 1")
    sweep = write_cfg(tmp_path, body + """
sweep.param = optimizer.alpha
sweep.grid = 0.05,0.2
sweep.param2 = run.stride
sweep.grid2 = 0,7
""", "sweep")
    assert main(["sweep", str(sweep)]) == 0
    for alpha in ("0.05", "0.2"):
        for stride in ("0", "7"):
            single = write_cfg(tmp_path, body + f"optimizer.alpha = {alpha}\n"
                               f"run.stride = {stride}\n", "single")
            assert main(["run", str(single)]) == 0
            swept = tmp_path / "sweep" / f"quick_alpha{alpha}_stride{stride}_seed11"
            alone = tmp_path / "single" / "quick_seed11"
            assert (Path(f"{swept}.csv").read_bytes()
                    == Path(f"{alone}.csv").read_bytes())
            doc, ref = (json.loads(Path(f"{p}.json").read_text())
                        for p in (swept, alone))
            assert doc["config"]["optimizer"] == ref["config"]["optimizer"]
            assert doc["summary"] == ref["summary"]


def test_attack_suite_rejects_workers_other_than_1(tmp_path):
    out = tmp_path / "att"
    with pytest.raises(ConfigError, match="workers"):
        run_attack_suite("per-image", 1, ["zo-adamm"], 22, 0, out, workers=2)
    assert not out.exists()


# each invalid setting, and the key its error message must name
INVALID = {
    "optimizer.alpha = nan": "optimizer.alpha",
    "optimizer.alpha = inf": "optimizer.alpha",
    "optimizer.mu = nan\noptimizer.mu_schedule = constant": "optimizer.mu",
    "optimizer.q = 0": "optimizer.q",
    "run.repeat = 0": "run.repeat",
    "run.max_iters = -5": "run.max_iters",
    "problem.d = 0": "problem.kind",
    "problem.kind = logistic\nproblem.radius = 0": "problem.kind",
    "optimizer.b = 0": "optimizer.b",
    "optimizer.mu = -1\noptimizer.mu_schedule = constant": "optimizer.mu",
    "optimizer.kind = bogus": "optimizer.kind",
    "optimizer.directions = bogus": "optimizer.directions",
    "problem.kind = attack\noptimizer.kind = analytic": "optimizer.kind",
    "optimizer.alpha_schedule = bogus": "optimizer.alpha_schedule",
    "run.stride = -4": "run.stride",
    "problem.samples = -3": "problem.samples",
    "problem.kind = nonconvex\nproblem.box = -0.5": "problem.box",
    "problem.kind = attack\nproblem.m = -1": "problem.m",
    "problem.kind = attack\nproblem.m = 0": "problem.m",
    "problem.kind = logistic\nproblem.radius = nan": "problem.radius",
    "problem.condition = inf": "problem.condition",
    "problem.condition = nan": "problem.condition",
    "problem.kind = nonconvex\nproblem.eps = nan": "problem.eps",
    "problem.kind = attack\nproblem.kappa = nan": "problem.kappa",
    "optimizer.v0 = nan": "optimizer.v0",
    "optimizer.v0 = -1\noptimizer.use_vhat_max = false": "optimizer.v0",
    "optimizer.mu_schedule = bogus": "optimizer.mu_schedule",
    "optimizer.alpha = -1": "optimizer.alpha",
    "run.record_measure = bogus": "run.record_measure",
    "problem.kind = attack\nrun.record_measure = approx": "run.record_measure",
    "problem.kind = logistic\noptimizer.kind = coordinate\n"
    "optimizer.v0 = 0\noptimizer.use_vhat_max = false": "optimizer.v0",
    "problem.kind = logistic\noptimizer.vhat0 = 0": "optimizer.vhat0",
    "run.tag = ../escape": "run.tag",
    "run.tag = sub/x": "run.tag",
}


@pytest.mark.parametrize("line", list(INVALID))
def test_non_finite_or_invalid_settings_exit_2(tmp_path, capsys, line):
    # the line's keys replace those of QUAD_CFG
    keys = {row.split("=")[0].strip() for row in line.splitlines()}
    kept = [row for row in QUAD_CFG.splitlines()
            if row.split("=")[0].strip() not in keys]
    cfg = write_cfg(tmp_path, "\n".join(kept + [line]) + "\n")
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "duplicate" not in err
    assert INVALID[line] in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("param", ["run.repeat", "run.base_seed", "run.tag",
                                   "run.outdir", "sweep.grid2"])
def test_sweeping_a_plan_key_exits_2(tmp_path, capsys, param):
    cfg = write_cfg(tmp_path, QUAD_CFG + f"sweep.param = {param}\n"
                    "sweep.grid = 3,5\n")
    assert main(["sweep", str(cfg)]) == 2
    assert param in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("param, grid", [("optimizer.alpha", "0.1,-1"),
                                         ("problem.d", "4,0")])
def test_sweep_checks_every_point_before_writing(tmp_path, capsys, param, grid):
    cfg = write_cfg(tmp_path, QUAD_CFG + f"sweep.param = {param}\n"
                    f"sweep.grid = {grid}\n")
    assert main(["sweep", str(cfg)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("opt", [",", " , ", "zo-adamm,zo-adamm",
                                 "zo-adamm,zo-psgd,zo-adamm"])
def test_attack_opt_list_must_name_distinct_optimizers(tmp_path, capsys, opt):
    out = tmp_path / "att"
    assert main(["attack", "--m", "1", "--opt", opt, "--budget", "22",
                 "--out", str(out)]) == 2
    assert "--opt: name each optimizer once" in capsys.readouterr().err
    assert not out.exists()


def test_attack_repeat_0_exits_2(tmp_path, capsys):
    out = tmp_path / "att"
    assert main(["attack", "--m", "1", "--opt", "zo-adamm", "--budget", "22",
                 "--repeat", "0", "--out", str(out)]) == 2
    assert "--repeat" in capsys.readouterr().err
    assert not out.exists()


def test_every_optimizer_key_lands_on_the_resolved_config(tmp_path):
    defaults = {**vars(EstimatorConfig()), **vars(OptConfig())}
    text = {"algorithm": "zo-psgd", "alpha_schedule": "constant",
            "mu_schedule": "inverse-dt", "kind": "coordinate",
            "directions": "gaussian"}
    want = {}
    for i, key in enumerate(k for k in SCHEMA if k.startswith("optimizer.")):
        name, typ = key.split(".", 1)[1], SCHEMA[key]
        if typ is str:
            want[name] = text[name]
        elif typ is bool:
            want[name] = not defaults[name]
        else:
            want[name] = typ(defaults[name]) + typ(i + 1)
        assert want[name] != defaults[name]
    assert set(want) == {f.name for cls in (OptConfig, EstimatorConfig)
                         for f in fields(cls)} - {"estimator", "seed"}
    path = tmp_path / "all.cfg"
    path.write_text("".join(
        f"optimizer.{name} = {str(v).lower() if isinstance(v, bool) else v}\n"
        for name, v in want.items()))
    cfg = build_optimizer_config(parse_config_file(path), seed=5)
    est_names = {f.name for f in fields(EstimatorConfig)}
    for name, value in want.items():
        owner = cfg.estimator if name in est_names else cfg
        assert getattr(owner, name) == value, name
    assert cfg.use_vhat_max is False and cfg.seed == 5


# the config of a quadratic whose sampled noise overflows every value at x0
NOT_FINITE_AT_X0 = {"problem.kind": "quadratic", "problem.d": 3,
                    "problem.samples": 3, "problem.noise": 1e308,
                    "run.query_budget": 100}


def _config_text(values):
    return "".join(f"{key} = {str(v).lower() if isinstance(v, bool) else v}\n"
                   for key, v in values.items())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_objective_not_finite_at_the_start_point_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, _config_text(NOT_FINITE_AT_X0))
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "'quadratic'" in err and "start point" in err
    assert not (tmp_path / "out").exists()


# every value a whole-config example draws from: each problem kind, method
# and choice-valued key with one unknown value, a few small sizes, and floats
# from each class of magnitude
CHOICES = {
    "problem.kind": ["quadratic", "logistic", "nonconvex", "counterexample",
                     "attack", "bogus"],
    "problem.mode": ["constrained", "unconstrained", "bogus"],
    "optimizer.algorithm": [*METHODS, "zo-bogus"],
    "optimizer.alpha_schedule": ["constant", "inverse-sqrt", "bogus"],
    "optimizer.mu_schedule": ["constant", "inverse-sqrt-Td", "inverse-dt",
                              "bogus"],
    "optimizer.kind": ["uniform-two-point", "coordinate", "nes-antithetic",
                       "analytic", "bogus"],
    "optimizer.directions": ["sphere", "gaussian", "bogus"],
    "run.record_measure": ["auto", "approx", "off", "bogus"],
}
LARGEST = {"problem.d": 5, "problem.n": 8, "problem.samples": 4, "problem.m": 2,
           "problem.image": 9, "optimizer.b": 3, "optimizer.q": 4,
           "run.query_budget": 300, "run.max_iters": 40, "run.repeat": 2,
           "run.stride": 4}
FLOATS = [-1.0, 0.0, 1e-320, 0.3, 2.0, 1e308]


def test_whole_config_writes_only_its_outputs_property(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    # run.tag and run.outdir have their own tests; sweep.* do not reach a run
    drawn = [k for k in SCHEMA if k not in ("run.tag", "run.outdir")
             and not k.startswith("sweep.")]
    assert {k for k in drawn if SCHEMA[k] is str} == set(CHOICES)

    def value(key):
        typ = SCHEMA[key]
        if typ is str:
            return st.sampled_from(CHOICES[key])
        if typ is bool:
            return st.booleans()
        if typ is float:
            return st.sampled_from(FLOATS)
        return st.integers(-1, LARGEST.get(key, 3))

    required = ["problem.kind", "run.query_budget"]
    optional = [k for k in drawn if k not in required]

    # a few optional keys at a time, so that some configs pass every check
    @st.composite
    def configs(draw):
        keys = draw(st.lists(st.sampled_from(optional), max_size=6, unique=True))
        return {k: draw(value(k)) for k in required + keys}

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(configs())
    @hypothesis.example(NOT_FINITE_AT_X0)
    def check(values):
        root = Path(tempfile.mkdtemp(dir=tmp_path))
        out = root / "out"
        cfg = root / "run.cfg"
        cfg.write_text(_config_text({**values, "run.tag": "t",
                                     "run.outdir": out}), encoding="utf-8")
        code = main(["run", str(cfg)])
        written = set(root.rglob("*")) - {cfg}
        assert code in (0, 2, 3)
        if code == 2:
            assert not written
            return
        settings = {**DEFAULTS, **values}
        seeds = range(settings["run.base_seed"],
                      settings["run.base_seed"] + settings["run.repeat"])
        files = {out / f"t_seed{k}.{ext}" for k in seeds for ext in ("csv", "json")}
        assert written == files | {out}
        # each run, an aborted one too, keeps its iteration-0 record
        for k in seeds:
            assert len((out / f"t_seed{k}.csv").read_text().splitlines()) >= 2

    with np.errstate(all="ignore"):
        check()
