import json
import math
import struct
from dataclasses import astuple

import numpy as np
import pytest

from zoopt.metrics import (RunResult, Trace, TraceRecord, average_regret,
                           first_success, parse_csv, serialize_csv,
                           write_envelope)


def test_average_regret_examples():
    assert average_regret([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0
    assert average_regret([2.5] * 7, [1.5] * 7) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        average_regret([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        average_regret([], [])


def test_average_regret_matches_fsum_oracle():
    rng = np.random.default_rng(0)
    vals = list(rng.normal(size=500))
    comp = list(rng.normal(size=500))
    oracle = math.fsum(v - c for v, c in zip(vals, comp)) / 500
    assert average_regret(vals, comp) == pytest.approx(oracle, abs=1e-12)


def test_first_success():
    recs = [TraceRecord(i, 10 * i, 1.0, success=False) for i in range(5)]
    assert first_success(recs) is None
    recs[3].success = True
    recs[3].distortion = 0.25
    recs[4].success = True
    assert first_success(recs) == (3, 30, 0.25)


def _sample_trace():
    recs = [
        TraceRecord(0, 0, 1.5, None, None, 0.0, False),
        TraceRecord(1, 11, 0.1234567890123456789, 1e-17, 2.0 / 3.0, 0.5, True),
    ]
    return Trace(records=recs, total_queries=11)


def test_csv_round_trip_exact(tmp_path):
    trace = _sample_trace()
    path = tmp_path / "t.csv"
    serialize_csv(trace, path)
    back = parse_csv(path)
    assert back == trace.records
    text = path.read_text()
    assert text.startswith("iter,queries,loss,measure_m,grad_norm_sq,"
                           "distortion,success\n")
    assert ",false\n" in text.replace("\r", "")
    assert "\r" not in text


def _record_bits(rec):
    """A record's fields with every float as its bit pattern."""
    return tuple(struct.pack("<d", v) if isinstance(v, float) else v
                 for v in astuple(rec))


def test_csv_round_trip_property(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    # the CSV writes every nan as "nan", so only the canonical nan can come
    # back with its bits; -0.0, subnormals and the infinities must all do
    floats = st.floats(allow_nan=False) | st.sampled_from(
        [-0.0, 5e-324, -2.0 ** -1070, math.inf, -math.inf, math.nan])
    counts = st.integers(0, 2 ** 70)
    records = st.builds(TraceRecord, counts, counts, floats, st.none() | floats,
                        st.none() | floats, st.none() | floats,
                        st.none() | st.booleans())
    path = tmp_path / "t.csv"

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(recs=st.lists(records, max_size=8))
    def check(recs):
        serialize_csv(Trace(records=recs), path)
        assert ([_record_bits(r) for r in parse_csv(path)]
                == [_record_bits(r) for r in recs])

    check()


def test_csv_empty_trace_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    serialize_csv(Trace(records=[]), path)
    assert path.read_text() == ("iter,queries,loss,measure_m,grad_norm_sq,"
                                "distortion,success\n")
    assert parse_csv(path) == []


def test_envelope_deterministic_and_complete(tmp_path):
    trace = _sample_trace()
    result = RunResult(trace=trace, final_x=np.zeros(2), random_iter=1,
                       config={"algorithm": "zo-adamm", "seed": 3},
                       seconds=12.5)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_envelope(result, "t.csv", p1)
    result.seconds = 99.9  # timing must not leak into the serialized envelope
    write_envelope(result, "t.csv", p2)
    assert p1.read_bytes() == p2.read_bytes()
    doc = json.loads(p1.read_text())
    assert doc["config"]["seed"] == 3
    assert doc["csv_path"] == "t.csv"
    assert doc["summary"]["total_queries"] == 11
    assert doc["summary"]["first_success"] == {"iter": 1, "queries": 11,
                                               "distortion": 0.5}
    assert "seconds" not in doc["summary"]
