"""Tests of the benchmark itself: every workload end to end at the quick size,
and each correctness check fed a corrupted output.

    python3 -m pytest perfbench -q
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402
from zoopt.numkit import RngStream  # noqa: E402

SEED = 5
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_benchmark(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in BENCHMARK["workloads"]])
def test_quick_run_end_to_end(name, trace):
    proc = run_benchmark(["--workload", name, "--seed", str(SEED), "--seconds",
                          "0.2", "--trace", str(trace), "--quick"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_benchmark(["--workload", "quadratic-adamm", "--seed", "1",
                          "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_reference_stream_matches_rng_definition():
    ours, theirs = checks.SplitMix(123), RngStream(123)
    assert ours.words(7) == [int(w) for w in theirs.raw(7)]
    np.testing.assert_allclose(ours.normal(50), theirs.normal(50), rtol=1e-13,
                               atol=1e-15)


@pytest.fixture(scope="module")
def quick():
    """Genuine quick-size outputs and references of every workload."""
    registry = workloads.ObjectiveRegistry().install()
    try:
        found = {}
        for name, wl in workloads.WORKLOADS.items():
            spec = workloads.SPECS[name]["quick"]
            state = wl.setup(SEED, spec, ROOT)
            before = registry.total()
            raw = wl.run(state)
            out = wl.outputs(state, raw, registry.total() - before)
            found[name] = (out, wl.reference(SEED, spec, ROOT), spec)
        yield found
    finally:
        registry.uninstall()


def check(quick, name, mutate=None, **spec_overrides):
    out, ref, spec = quick[name]
    out = copy.deepcopy(out)
    if mutate is not None:
        mutate(out)
    workloads.WORKLOADS[name].check(out, ref, dict(spec, **spec_overrides))


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_genuine_outputs_pass(quick, name):
    check(quick, name)


def _per_image_run(out, method="zo-adamm"):
    return next(r for r in out["runs"] if r["method"] == method and r["image"] is not None)


def test_attack_rejects_success_still_classified_correctly(quick):
    def fake_success(out):
        run = _per_image_run(out)
        run["final_x"] = np.zeros_like(run["final_x"])  # the unperturbed input
        run["reported_success"] = True
    with pytest.raises(CheckFailed, match="reported a success"):
        check(quick, "attack-suite", fake_success)


def test_attack_rejects_input_outside_box(quick):
    def push_out(out):
        _per_image_run(out, "zo-psgd")["final_x"][0] = 1.5
    with pytest.raises(CheckFailed, match=r"leaves \[-0.5, 0.5\]"):
        check(quick, "attack-suite", push_out)


def test_attack_rejects_universal_count_mismatch(quick):
    def miscount(out):
        out["runs"][-1]["images_fooled"] += 1
    with pytest.raises(CheckFailed, match="the run reported"):
        check(quick, "attack-suite", miscount)


def test_attack_enforces_fooled_minimums(quick):
    with pytest.raises(CheckFailed, match="per-image: fooled"):
        check(quick, "attack-suite", min_adamm_fooled=11)
    with pytest.raises(CheckFailed, match="need 11"):
        check(quick, "attack-suite", min_universal_fooled=11)


def test_logistic_rejects_iterate_outside_ball(quick):
    def leave_ball(out):
        x = out["final_x"]
        out["final_x"] = x * (1.01 * quick["logistic-ball"][1]["radius"]
                              / np.linalg.norm(x))
    with pytest.raises(CheckFailed, match="outside the ball"):
        check(quick, "logistic-ball", leave_ball)


def test_logistic_rejects_loss_far_from_minimum(quick):
    with pytest.raises(CheckFailed, match="constrained minimum"):
        check(quick, "logistic-ball", max_gap=1e-12)


def test_quadratic_rejects_large_gap(quick):
    def move(out):
        out["final_x"] = quick["quadratic-adamm"][1]["x_star"] + 0.1
    with pytest.raises(CheckFailed, match=r"f - f\*"):
        check(quick, "quadratic-adamm", move, max_gap=1e-3)


def test_quadratic_rejects_misreported_loss(quick):
    def misreport(out):
        out["reported_loss"] *= 1.0 + 1e-6
    with pytest.raises(CheckFailed, match="reported final loss"):
        check(quick, "quadratic-adamm", misreport)


def test_smoothing_rejects_failed_property(quick):
    def fail_one(out):
        out["properties"][0]["passed"] = False
    with pytest.raises(CheckFailed, match="failing properties"):
        check(quick, "smoothing-probe", fail_one)


def _off_by_one(name):
    def mutate(out):
        if name == "attack-suite":
            out["runs"][0]["total_queries"] += 1
        elif name == "smoothing-probe":
            out["counted"] += 1
        else:
            out["total_queries"] += 1
    return mutate


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_query_count_off_by_one(quick, name):
    with pytest.raises(CheckFailed, match="queries"):
        check(quick, name, _off_by_one(name))


def test_unused_budget_of_a_whole_iteration(quick):
    def stop_early(out):
        out["iterations"] -= 1
        out["total_queries"] -= out["cost"]
        out["counted"] -= out["cost"]
    with pytest.raises(CheckFailed, match="budget unused"):
        check(quick, "quadratic-adamm", stop_early)
