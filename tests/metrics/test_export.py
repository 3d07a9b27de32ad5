"""Export document: schema validation, JSON/CSV round-trip, rendering.

Contract under test:

* the exported document validates against ``repro-metrics/v1`` and
  survives a JSON round-trip unchanged where it matters (series values
  are plain floats, indices plain ints);
* validation is loud about the failure, not just failing;
* the CSV is long-format (one row per sample) and carries every
  instrument; sparklines and the table renderer never throw on empty,
  flat, or single-sample series.
"""

import json
import math

import pytest

from repro.metrics import (
    METRICS_SCHEMA,
    MetricsRegistry,
    Sampler,
    build_doc,
    format_metrics,
    metrics_summary,
    sparkline,
    validate_metrics_doc,
)
from repro.metrics.export import series_times, write_csv, write_json
from repro.simkernel import Environment


@pytest.fixture(scope="module")
def doc():
    env = Environment()
    registry = MetricsRegistry.install(env)
    moved = [0.0]
    registry.gauge("app.bytes", lambda: moved[0], unit="B")
    registry.gauge("queue.depth", lambda: float(env._qlen()), scope="kernel")
    registry.linear("flow.bytes", lambda: (env.now * 4.0, 4.0), unit="B")
    sampler = Sampler(registry, period=0.5).start()

    def work():
        for _ in range(10):
            yield env.timeout(0.7)
            moved[0] += 1024.0

    env.process(work())
    env.run()
    sampler.finish()
    return build_doc(registry, sampler)


class TestSchema:
    def test_valid_doc_has_no_errors(self, doc):
        assert validate_metrics_doc(doc) == []

    def test_round_trips_through_json(self, doc):
        tripped = json.loads(json.dumps(doc))
        assert validate_metrics_doc(tripped) == []
        assert tripped["schema"] == METRICS_SCHEMA
        by_name = {i["name"]: i for i in tripped["instruments"]}
        orig = {i["name"]: i for i in doc["instruments"]}
        for name, inst in by_name.items():
            assert inst["series"]["values"] == orig[name]["series"]["values"]

    def test_schema_mismatch_reported(self, doc):
        bad = dict(doc, schema="repro-metrics/v0")
        errors = validate_metrics_doc(bad)
        assert any("schema" in e for e in errors)

    def test_nonpositive_period_reported(self, doc):
        bad = dict(doc, period=0.0)
        assert any("period" in e for e in validate_metrics_doc(bad))

    def test_counter_kind_of_older_exports_still_validates(self, doc):
        # Exports written while push counters existed carry kind "counter".
        old = json.loads(json.dumps(doc))
        inst = next(i for i in old["instruments"] if i["name"] == "app.bytes")
        inst["kind"] = "counter"
        assert validate_metrics_doc(old) == []
        assert "app.bytes" in format_metrics(old)

    def test_non_dict_rejected(self):
        assert validate_metrics_doc([1, 2]) == ["document is not an object"]

    def test_series_times_on_canonical_grid(self, doc):
        inst = doc["instruments"][0]
        times = series_times(doc, inst)
        for t, i in zip(times, inst["series"]["indices"]):
            assert t == pytest.approx(doc["t0"] + i * doc["period"])


class TestFiles:
    def test_write_json_round_trip(self, doc, tmp_path):
        path = tmp_path / "metrics.json"
        write_json(doc, str(path))
        loaded = json.loads(path.read_text())
        assert validate_metrics_doc(loaded) == []

    def test_write_csv_long_format(self, doc, tmp_path):
        path = tmp_path / "metrics.csv"
        write_csv(doc, str(path))
        lines = path.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert "instrument" in header[0] or "name" in header[0] or "metric" in header[0]
        names = {i["name"] for i in doc["instruments"]}
        body = "\n".join(lines[1:])
        for name in names:
            assert name in body
        # One row per sample across all instruments.
        n_samples = sum(len(i["series"]["indices"]) for i in doc["instruments"])
        assert len(lines) - 1 == n_samples


class TestRendering:
    def test_sparkline_shape(self):
        line = sparkline([float(v) for v in range(32)], width=16)
        assert len(line) == 16
        assert line[0] != line[-1]

    def test_sparkline_degenerate_inputs(self):
        assert sparkline([]) == ""
        flat = sparkline([5.0, 5.0, 5.0])
        assert len(set(flat)) == 1
        assert len(sparkline([1.0])) == 1

    def test_format_metrics_lists_instruments(self, doc):
        text = format_metrics(doc)
        for inst in doc["instruments"]:
            assert inst["name"] in text

    def test_format_metrics_truncates(self, doc):
        text = format_metrics(doc, max_rows=1)
        assert "more instrument" in text


class TestSummary:
    def test_model_totals_only(self, doc):
        summary = metrics_summary(doc)
        assert "app.bytes" in summary["totals"]
        assert "flow.bytes" in summary["totals"]
        # Kernel-scope machinery never leaks into cross-engine totals.
        assert "queue.depth" not in summary["totals"]
        assert summary["samples"] == doc["sampler"]["samples"]
        assert summary["period"] == doc["period"]
        assert summary["totals"]["app.bytes"] == pytest.approx(10 * 1024.0)
