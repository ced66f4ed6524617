"""Span tracer for the traced benchmark run.

The benchmark wraps zoopt functions from its own files: each wrapper times
the call as a span, names its parent span, and adds the duration to a table
keyed by ``(span name, parent name)``.  A span's self time is its duration
minus the time of the spans it caused.  Spans are recorded on whichever
thread makes the call, because ``run_attack_suite`` runs its jobs on a pool
thread even with one worker: a span opened with ``adopt=True`` becomes the
parent of spans that start on a thread with an empty stack, so the pool's
jobs count as its children and not as its self time.
"""

import os
import threading
import time
import types

import numpy as np

import zoopt
from zoopt import cli, estimators, geometry, metrics, numkit, optimizers, oracle
from zoopt import problems, smoothing, validate

ZOOPT_MODULES = (zoopt, cli, estimators, geometry, metrics, numkit, optimizers,
                 oracle, problems, smoothing, validate)


class Tracer:
    """Per-thread span stacks merged into one table on request."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []       # per-thread state of every thread that traced
        self._adopter = None     # open frame adopting spans from other threads

    def _state(self):
        st = getattr(self._local, "st", None)
        if st is None:
            st = types.SimpleNamespace(stack=[], table={}, counts={})
            self._local.st = st
            with self._lock:
                self._threads.append(st)
        return st

    def wrap(self, name, fn, after=None, adopt=False):
        """Return ``fn`` timed as span ``name``.

        ``after(counts, args, kwargs, result)`` runs after the span closes and
        may add to the per-thread ``counts`` dict.
        """
        perf = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            st = tracer._state()
            stack = st.stack
            if stack:
                parent, adopted = stack[-1], False
            else:
                parent = tracer._adopter
                adopted = parent is not None
            frame = [name, 0.0]
            stack.append(frame)
            if adopt:
                prev, tracer._adopter = tracer._adopter, frame
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                if adopt:
                    tracer._adopter = prev
                if adopted:
                    with tracer._lock:
                        parent[1] += dt
                elif parent is not None:
                    parent[1] += dt
                key = (name, parent[0] if parent is not None else None)
                row = st.table.get(key)
                if row is None:
                    row = st.table[key] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += dt
                row[2] += dt - frame[1]
            if after is not None:
                after(st.counts, args, kwargs, result)
            return result

        return traced

    def reset(self):
        with self._lock:
            for st in self._threads:
                st.table.clear()
                st.counts.clear()

    def snapshot(self):
        """Merged ``({(name, parent): [calls, total_s, self_s]}, counts)``."""
        table, counts = {}, {}
        with self._lock:
            for st in self._threads:
                for key, row in st.table.items():
                    acc = table.setdefault(key, [0, 0.0, 0.0])
                    for i in range(3):
                        acc[i] += row[i]
                for key, n in st.counts.items():
                    counts[key] = counts.get(key, 0) + n
        return table, counts


def _bump(counts, key, n=1):
    counts[key] = counts.get(key, 0) + n


def _count_raw_words(counts, args, kwargs, result):
    _bump(counts, "numkit.raw_words", len(result))


def _count_active(counts, args, kwargs, result):
    # the projection changes its input exactly when the input is outside the set
    if not np.array_equal(result, args[1]):
        _bump(counts, "geometry.project_metric.active_calls")


def _count_bytes(counts, args, kwargs, result):
    _bump(counts, "metrics.bytes_written", os.path.getsize(args[-1]))


def _count_samples(counts, args, kwargs, result):
    _bump(counts, "smoothing.samples", args[3].n_samples)


def _count_run(counts, args, kwargs, result):
    _bump(counts, "optimizers.iterations", result.trace.records[-1].iter)
    _bump(counts, "optimizers.records", len(result.trace.records))


class Instrumentation:
    """Installs the tracer's wrappers into the zoopt modules and removes them."""

    def __init__(self, tracer):
        self.tracer = tracer
        self._undo = []

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _everywhere(self, original, replacement):
        # functions are imported by name into several modules; patch each copy
        for mod in ZOOPT_MODULES:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, replacement)

    def _function(self, name, fn, **kw):
        self._everywhere(fn, self.tracer.wrap(name, fn, **kw))

    def _method(self, name, cls, attr, **kw):
        self._set(cls, attr, self.tracer.wrap(name, vars(cls)[attr], **kw))

    def install(self):
        t = self.tracer
        rng = numkit.RngStream
        self._method("numkit.raw", rng, "raw", after=_count_raw_words)
        self._method("numkit.uniform", rng, "uniform")
        self._method("numkit.normal", rng, "normal")
        self._method("numkit.integers", rng, "integers")
        self._method("numkit.choice", rng, "choice_without_replacement")
        self._function("numkit.sample_unit_sphere", numkit.sample_unit_sphere)
        self._function("numkit.sample_unit_ball", numkit.sample_unit_ball)

        obj = oracle.StochasticObjective
        self._method("oracle.evaluate", obj, "evaluate")
        self._method("oracle.peek", obj, "peek")
        self._method("oracle.full_loss", obj, "full_loss")
        self._method("oracle.sample_minibatch", obj, "sample_minibatch")
        init = obj.__init__

        def traced_init(self_, dim, fn, *args, **kwargs):
            init(self_, dim, t.wrap("problems.objective", fn), *args, **kwargs)
        self._set(obj, "__init__", traced_init)

        self._method("problems.forward", problems.TinyMlp, "forward")
        self._function("problems.cw_loss", problems.cw_loss)
        self._function("problems.tanh_reparam", problems.tanh_reparam)
        make_attack = problems.make_attack_problem

        def traced_make_attack(*args, **kwargs):
            spec = make_attack(*args, **kwargs)
            spec.distortion_fn = t.wrap("problems.distortion", spec.distortion_fn)
            spec.success_count_fn = t.wrap("problems.success_count",
                                           spec.success_count_fn)
            return spec
        self._everywhere(make_attack, traced_make_attack)
        # np.delete is reached through the module's ``np`` name; give the
        # problems module a copy of the numpy namespace with it traced
        shadow = types.ModuleType("numpy")
        shadow.__dict__.update(vars(np))
        shadow.delete = t.wrap("problems.np_delete", np.delete)
        self._set(problems, "np", shadow)

        self._function("estimators.two_point", estimators.two_point_uniform)
        self._function("estimators.averaged", estimators.averaged_with_indices)
        self._function("estimators.coordinate", estimators.coordinate_estimate)
        self._function("estimators.nes_antithetic",
                       estimators.nes_antithetic_estimate)

        for cls in (geometry.Unconstrained, geometry.Box, geometry.SymmetricBand,
                    geometry.L2Ball):
            self._method("geometry.project", cls, "project")
            self._method("geometry.project_metric", cls, "project_metric",
                         after=_count_active)
        self._function("geometry.mahalanobis_measure", geometry.mahalanobis_measure)

        self._function("optimizers.run_optimizer", optimizers.run_optimizer,
                       after=_count_run)
        for step in (optimizers.zo_adamm_step, optimizers.zo_sgd_step,
                     optimizers.zo_signsgd_step, optimizers.zo_smd_step,
                     optimizers.zo_scd_step):
            self._function("optimizers.step", step)

        self._function("metrics.serialize", metrics.serialize_csv,
                       after=_count_bytes)
        self._function("metrics.serialize", metrics.write_envelope,
                       after=_count_bytes)

        self._function("smoothing.probe", smoothing.smooth_value_mc,
                       after=_count_samples)
        self._function("validate.smoothing_suite", validate.smoothing_suite)
        self._function("cli.run_attack_suite", cli.run_attack_suite, adopt=True)
        return self

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


# per_layer metric names and units, in the order BENCHMARK.json lists them
LAYER_UNITS = {
    "numkit.normal.calls": "count",
    "numkit.raw_words": "count",
    "numkit.sample_unit_sphere.us_per_call": "us",
    "numkit.sample_unit_ball.us_per_call": "us",
    "numkit.self_s": "s",
    "oracle.evaluate.calls": "count",
    "oracle.peek.calls": "count",
    "oracle.uncounted_per_counted": "ratio",
    "oracle.evaluate.us_per_call": "us",
    "oracle.overhead_us_per_call": "us",
    "problems.objective.us_per_call": "us",
    "problems.forward.calls": "count",
    "problems.forward.us_per_call": "us",
    "problems.cw_loss.us_per_call": "us",
    "problems.cw_loss.np_delete_share": "ratio",
    "problems.tanh_reparam.us_per_call": "us",
    "estimators.averaged.calls": "count",
    "estimators.averaged.self_us_per_call": "us",
    "estimators.two_point.calls": "count",
    "estimators.two_point.self_us_per_call": "us",
    "estimators.coordinate.calls": "count",
    "estimators.coordinate.self_us_per_call": "us",
    "estimators.nes_antithetic.calls": "count",
    "estimators.nes_antithetic.self_us_per_call": "us",
    "geometry.project_metric.calls": "count",
    "geometry.project_metric.active_calls": "count",
    "geometry.project_metric.us_per_call": "us",
    "geometry.project_metric.s": "s",
    "geometry.project.us_per_call": "us",
    "geometry.mahalanobis_measure.us_per_call": "us",
    "optimizers.iterations": "count",
    "optimizers.records": "count",
    "optimizers.step.us_per_call": "us",
    "optimizers.record_s": "s",
    "optimizers.loop_self_s": "s",
    "metrics.serialize_s": "s",
    "metrics.bytes_written": "B",
    "smoothing.probe_s": "s",
    "smoothing.samples": "count",
    "validate.self_s": "s",
    "cli.run_attack_suite.self_s": "s",
    "cli.jobs": "count",
    "trace.overhead_s": "s",
}

COUNT_METRICS = tuple(k for k, unit in LAYER_UNITS.items() if unit in ("count", "B"))

# metric-side calls that run_optimizer makes to write a trace record
_RECORD_SPANS = ("oracle.full_loss", "geometry.mahalanobis_measure",
                 "problems.distortion", "problems.success_count")


def layer_metrics(table, counts):
    """Per-layer metrics of one traced round, except ``trace.overhead_s``."""

    def agg(name, parent=None):
        rows = [row for (n, p), row in table.items()
                if n == name and (parent is None or p == parent)]
        calls = sum(r[0] for r in rows)
        total = sum(r[1] for r in rows)
        self_s = sum(r[2] for r in rows)
        return calls, total, self_s

    def per_call(seconds, calls):
        return 1e6 * seconds / calls if calls else 0.0

    out = {}
    numkit_self = sum(row[2] for (n, _), row in table.items()
                      if n.startswith("numkit."))
    out["numkit.normal.calls"] = agg("numkit.normal")[0]
    out["numkit.raw_words"] = counts.get("numkit.raw_words", 0)
    c, tot, _ = agg("numkit.sample_unit_sphere")
    out["numkit.sample_unit_sphere.us_per_call"] = per_call(tot, c)
    c, tot, _ = agg("numkit.sample_unit_ball")
    out["numkit.sample_unit_ball.us_per_call"] = per_call(tot, c)
    out["numkit.self_s"] = numkit_self

    ev_calls, ev_total, ev_self = agg("oracle.evaluate")
    pk_calls, _, pk_self = agg("oracle.peek")
    out["oracle.evaluate.calls"] = ev_calls
    out["oracle.peek.calls"] = pk_calls
    out["oracle.uncounted_per_counted"] = pk_calls / ev_calls if ev_calls else 0.0
    out["oracle.evaluate.us_per_call"] = per_call(ev_total, ev_calls)
    out["oracle.overhead_us_per_call"] = per_call(ev_self + pk_self,
                                                  ev_calls + pk_calls)

    c, tot, _ = agg("problems.objective")
    out["problems.objective.us_per_call"] = per_call(tot, c)
    c, tot, _ = agg("problems.forward")
    out["problems.forward.calls"] = c
    out["problems.forward.us_per_call"] = per_call(tot, c)
    cw_calls, cw_total, _ = agg("problems.cw_loss")
    out["problems.cw_loss.us_per_call"] = per_call(cw_total, cw_calls)
    delete_in_cw = agg("problems.np_delete", parent="problems.cw_loss")[1]
    out["problems.cw_loss.np_delete_share"] = delete_in_cw / cw_total if cw_total else 0.0
    c, tot, _ = agg("problems.tanh_reparam")
    out["problems.tanh_reparam.us_per_call"] = per_call(tot, c)

    for kind in ("averaged", "two_point", "coordinate", "nes_antithetic"):
        c, _, self_s = agg(f"estimators.{kind}")
        out[f"estimators.{kind}.calls"] = c
        out[f"estimators.{kind}.self_us_per_call"] = per_call(self_s, c)

    c, tot, _ = agg("geometry.project_metric")
    out["geometry.project_metric.calls"] = c
    out["geometry.project_metric.active_calls"] = counts.get(
        "geometry.project_metric.active_calls", 0)
    out["geometry.project_metric.us_per_call"] = per_call(tot, c)
    out["geometry.project_metric.s"] = tot
    c, tot, _ = agg("geometry.project")
    out["geometry.project.us_per_call"] = per_call(tot, c)
    c, tot, _ = agg("geometry.mahalanobis_measure")
    out["geometry.mahalanobis_measure.us_per_call"] = per_call(tot, c)

    out["optimizers.iterations"] = counts.get("optimizers.iterations", 0)
    out["optimizers.records"] = counts.get("optimizers.records", 0)
    c, tot, _ = agg("optimizers.step")
    out["optimizers.step.us_per_call"] = per_call(tot, c)
    out["optimizers.record_s"] = sum(
        agg(name, parent="optimizers.run_optimizer")[1] for name in _RECORD_SPANS)
    out["optimizers.loop_self_s"] = agg("optimizers.run_optimizer")[2]

    out["metrics.serialize_s"] = agg("metrics.serialize")[1]
    out["metrics.bytes_written"] = counts.get("metrics.bytes_written", 0)
    out["smoothing.probe_s"] = agg("smoothing.probe")[1]
    out["smoothing.samples"] = counts.get("smoothing.samples", 0)
    out["validate.self_s"] = agg("validate.smoothing_suite")[2]
    out["cli.run_attack_suite.self_s"] = agg("cli.run_attack_suite")[2]
    out["cli.jobs"] = agg("optimizers.run_optimizer", parent="cli.run_attack_suite")[0]
    return out
