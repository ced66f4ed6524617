"""Per-iteration trace records, convergence metrics, and serialization.

CSV rows carry full-precision decimal floats (shortest round-trip form), so
parse(serialize(r)) reproduces every field bit-for-bit.  The JSON envelope
echoes the resolved configuration for exact re-execution and is byte-stable
across reruns: wall-clock timing stays on the in-memory result only.
"""

import json
from dataclasses import dataclass, field
from typing import List, Optional

CSV_HEADER = "iter,queries,loss,measure_m,grad_norm_sq,distortion,success"


@dataclass
class TraceRecord:
    iter: int
    queries: int
    loss: float
    measure_m: Optional[float] = None
    grad_norm_sq: Optional[float] = None
    distortion: Optional[float] = None
    success: Optional[bool] = None


@dataclass
class Trace:
    records: List[TraceRecord] = field(default_factory=list)
    total_queries: int = 0
    aborted: Optional[str] = None
    # regret bookkeeping (only filled when the problem carries a comparator)
    sampled_losses: List[float] = field(default_factory=list)
    comparator_losses: List[float] = field(default_factory=list)
    iterates: Optional[list] = None


@dataclass
class RunResult:
    trace: Trace
    final_x: object
    random_iter: int            # uniformly drawn iterate index in [1, T]
    config: dict
    seconds: float
    measure_approx: bool = False

    def summary(self):
        rec = self.trace.records[-1] if self.trace.records else None
        fs = first_success(self.trace.records)
        return {
            "final_loss": rec.loss if rec else None,
            "first_success": None if fs is None else
                {"iter": fs[0], "queries": fs[1], "distortion": fs[2]},
            "total_queries": self.trace.total_queries,
            "random_iter": self.random_iter,
            "aborted": self.trace.aborted,
        }


def average_regret(trace_values, comparator_values):
    """(1/T) * sum_t [f_t(x_t) - f_t(x*)] over aligned per-iteration values."""
    if len(trace_values) != len(comparator_values):
        raise ValueError("trace and comparator value lists differ in length")
    if not trace_values:
        raise ValueError("need at least one iteration")
    total = 0.0
    for v, c in zip(trace_values, comparator_values):
        total += v - c
    return total / len(trace_values)


def first_success(records):
    """(iter, queries, distortion) of the earliest success record, or None."""
    for rec in records:
        if rec.success:
            return rec.iter, rec.queries, rec.distortion
    return None


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def serialize_csv(trace, path):
    """Write the trace as CSV (UTF-8, LF), one row per record."""
    lines = [CSV_HEADER]
    for r in trace.records:
        lines.append(",".join([
            str(r.iter), str(r.queries), _cell(float(r.loss)),
            _cell(r.measure_m), _cell(r.grad_norm_sq),
            _cell(r.distortion), _cell(r.success),
        ]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def parse_csv(path):
    """Read back a trace CSV into TraceRecord rows (exact float round trip)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"unrecognized trace CSV header in {path}")
    records = []
    for line in lines[1:]:
        it, q, loss, mm, gn, dist, succ = line.split(",")
        records.append(TraceRecord(
            iter=int(it), queries=int(q), loss=float(loss),
            measure_m=float(mm) if mm else None,
            grad_norm_sq=float(gn) if gn else None,
            distortion=float(dist) if dist else None,
            success=None if succ == "" else succ == "true",
        ))
    return records


def write_envelope(result, csv_path, path):
    """JSON result envelope: {config, summary, csv_path}.

    Deliberately excludes wall-clock timing so identical (config, seed) reruns
    produce byte-identical files; timing lives on the RunResult object.
    """
    summary = result.summary()
    if result.measure_approx:
        summary["measure_approx"] = True
    write_json({"config": result.config, "summary": summary,
                "csv_path": str(csv_path)}, path)


def write_json(doc, path):
    """Write ``doc`` as JSON (UTF-8, LF) with sorted keys, indent 1 and a
    final newline, so equal documents give equal bytes."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
