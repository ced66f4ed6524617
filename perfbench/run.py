"""zoopt benchmark: query throughput end to end, and per module when traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload quadratic-adamm --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py                  # every workload, one process

Each run builds its workload from ``--seed`` (timed as ``setup_s``, from the
process's start), runs untimed warm-up rounds at the quick size, then repeats
the workload's round until ``--seconds`` of rounds have been measured, and
checks every round's outputs against the benchmark's own references.  With
``--trace 1`` half the time runs untraced and half with the span wrappers of
``spans.py`` installed, and the per-module metrics are printed instead of the
end-to-end ones.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; ``attempted`` counts the
oracle queries of the measured rounds.  A failed check prints that line with
``"correct": false`` and exits with code 1.
"""

import os
import time


def seconds_since_process_start():
    """Wall time from the process's start to now (10 ms resolution), or 0.0
    where /proc is not available."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        with open("/proc/uptime", encoding="ascii") as fh:
            uptime = float(fh.read().split()[0])
    except OSError:
        return 0.0
    return max(0.0, uptime - int(fields[19]) / os.sysconf("SC_CLK_TCK"))


_T0 = time.perf_counter()
_SINCE_START = seconds_since_process_start()

# pinned before numpy loads: one thread for BLAS (never more than nproc), and
# the attack fan-out on one worker whatever the caller's environment
os.environ.pop("ZOOPT_THREADS", None)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("quadratic-adamm", "logistic-ball", "attack-suite",
                  "smoothing-probe")
# untimed quick-size rounds before the measured ones, so that imports done on
# first use, numpy's caches and the allocator are warm when timing starts
WARM_UP_S = 1.0
END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "queries_per_s": "1/s",
                    "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measured round time per run (at least one round)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="measure the small warm-up size instead")
    return parser.parse_args(argv)


def machine():
    import numpy
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__}


def measure_rounds(wl, state, ref, spec, seconds, registry, tracer=None):
    """Repeat the workload's round until ``seconds`` of rounds are measured
    (at least one), checking each round's outputs.  Returns the round times,
    the counted queries per round, the per-round layer metrics when traced,
    and the last round's outputs."""
    from spans import layer_metrics
    times, counted, layers = [], [], []
    while not times or sum(times) < seconds:
        gc.collect()
        if tracer is not None:
            tracer.reset()
        q0 = registry.total()
        t0 = time.perf_counter()
        raw = wl.run(state)
        dt = time.perf_counter() - t0
        if tracer is not None:
            layers.append(layer_metrics(*tracer.snapshot()))
        out = wl.outputs(state, raw, registry.total() - q0)
        wl.check(out, ref, spec)
        times.append(dt)
        counted.append(out["counted"])
    return times, counted, layers, out


def median_layers(per_round, count_names):
    """Medians of the per-round layer metrics; counts must repeat exactly."""
    from checks import require
    merged = {}
    for name in per_round[0]:
        values = [r[name] for r in per_round]
        if name in count_names:
            require(len(set(values)) == 1,
                    f"trace: count {name} differs between rounds: {values}")
            merged[name] = values[0]
        else:
            merged[name] = statistics.median(values)
    return merged


def run_workload(name, seed, seconds, trace, quick, registry, setup_base):
    import workloads
    from spans import COUNT_METRICS, Instrumentation, Tracer
    wl = workloads.WORKLOADS[name]
    quick_spec = workloads.SPECS[name]["quick"]
    spec = quick_spec if quick else workloads.SPECS[name]["full"]

    t0 = time.perf_counter()
    state = wl.setup(seed, spec, ROOT)
    setup_s = setup_base + (time.perf_counter() - t0)

    ref = wl.reference(seed, spec, ROOT)
    quick_ref = ref if quick else wl.reference(seed, quick_spec, ROOT)
    measure_rounds(wl, wl.setup(seed, quick_spec, ROOT), quick_ref, quick_spec,
                   WARM_UP_S, registry)

    share = seconds / 2 if trace else seconds
    times, counted, _, out = measure_rounds(wl, state, ref, spec, share, registry)
    info = {"rounds": len(times), "round_s": times}
    end_to_end = {
        "setup_s": setup_s,
        "run_s": statistics.median(times),
        "queries_per_s": statistics.median(c / t for c, t in zip(counted, times)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    layers = None
    if trace:
        tracer = Tracer()
        instr = Instrumentation(tracer).install()
        try:
            # rebuilt so the objective the problem hands to the oracle is traced
            traced_times, traced_counted, per_round, out = measure_rounds(
                wl, wl.setup(seed, spec, ROOT), ref, spec, share, registry, tracer)
        finally:
            instr.uninstall()
        counted += traced_counted
        layers = median_layers(per_round, COUNT_METRICS)
        layers["trace.overhead_s"] = (statistics.median(traced_times)
                                      - end_to_end["run_s"])
        info["traced_rounds"] = len(traced_times)
        write_trace_dump(name, seed, tracer)
    info["figures"] = wl.figures(out)
    return end_to_end, layers, info, sum(counted)


def write_trace_dump(name, seed, tracer):
    """Span table of the last traced round, to perfbench/out/trace-<name>.json."""
    table, counts = tracer.snapshot()
    dump = ROOT / "perfbench" / "out" / f"trace-{name}.json"
    dump.parent.mkdir(parents=True, exist_ok=True)
    dump.write_text(json.dumps({
        "workload": name, "seed": seed,
        "spans": [{"name": n, "parent": p, "calls": r[0], "total_s": r[1],
                   "self_s": r[2]}
                  for (n, p), r in sorted(table.items(), key=lambda kv: -kv[1][1])],
        "counts": counts}, indent=1) + "\n", encoding="utf-8")


def print_workload(name, seed, end_to_end, layers, info):
    print(f"workload {name} seed={seed}: {info['rounds']} measured rounds"
          + (f", {info['traced_rounds']} traced rounds" if layers else ""))
    for key, value in end_to_end.items():
        note = f"  (median of {info['rounds']} rounds)" if key in ("run_s",
                                                                  "queries_per_s") else ""
        print(f"  {key:<42} {value:>14.6g} {END_TO_END_UNITS[key]}{note}")
    if layers:
        from spans import COUNT_METRICS, LAYER_UNITS
        for key, value in layers.items():
            note = "" if key in COUNT_METRICS else f"  (median of {info['traced_rounds']})"
            shown = f"{value:>14}" if key in COUNT_METRICS else f"{value:>14.6g}"
            print(f"  {key:<42} {shown} {LAYER_UNITS[key]}{note}")
    print("  measured rounds (s): " + " ".join(f"{t:.3f}" for t in info["round_s"]))
    print(f"  counts per round: {json.dumps(info['figures'], sort_keys=True)}")


def metric_block(values, units):
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "zoopt" / "__init__.py").is_file():
        print(f"perfbench: no zoopt sources under {src}; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    import zoopt
    if Path(zoopt.__file__).resolve().parent != (src / "zoopt").resolve():
        print(f"perfbench: imported zoopt from {zoopt.__file__}, not {src}",
              file=sys.stderr)
        return 2
    from checks import CheckFailed
    from spans import LAYER_UNITS
    from workloads import ObjectiveRegistry

    info = machine()
    print(f"machine: nproc={info['nproc']} python={info['python']} "
          f"numpy={info['numpy']}")
    registry = ObjectiveRegistry().install()
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    metrics, attempted, correct = {}, 0, True
    setup_base = _SINCE_START + (time.perf_counter() - _T0)
    for name in names:
        try:
            end_to_end, layers, info, counted = run_workload(
                name, args.seed, args.seconds, args.trace, args.quick, registry,
                setup_base)
        except CheckFailed as err:
            print(f"CHECK FAILED [{name}]: {err}", file=sys.stderr)
            correct = False
            break
        attempted += counted
        print_workload(name, args.seed, end_to_end, layers, info)
        block = (metric_block(layers, LAYER_UNITS) if args.trace
                 else metric_block(end_to_end, END_TO_END_UNITS))
        if len(names) > 1:
            block = {f"{name}.{k}": v for k, v in block.items()}
        metrics.update(block)
        # later workloads in the same process reuse the warm interpreter
        setup_base = 0.0
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": 0, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
