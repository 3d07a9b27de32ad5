"""The health layer: SLO windows, stalls, and per-fault recovery.

Contract under test (synthetic documents first, then the acceptance
scenario on the real simulator):

* a steady goodput signal is "ok" — no degraded windows, even though a
  checkpoint's control-plane phases move almost no bytes (the transfer
  envelope excludes them);
* a mid-transfer stall produces one degraded window spanning it, and a
  fault whose target has its own per-server series gets its
  time-to-recovery from that series' stall (``source == "target"``);
* the injector's ``degraded_seconds`` and the series-derived
  time-to-recovery agree within 5% on the storage-crash scenario when
  the retry policy's detection latency is small against the outage —
  the PR's acceptance criterion.
"""

import math

import pytest

from repro.metrics import SloConfig, evaluate_health
from repro.metrics.health import _fault_windows
from repro.units import KiB, MiB


def _doc(series, period=0.01, t0=0.0):
    """A minimal exported document from {name: [cumulative values]}."""
    instruments = []
    for name, values in series.items():
        instruments.append(
            {
                "name": name,
                "kind": "gauge",
                "unit": "B",
                "scope": "model",
                "series": {
                    "indices": list(range(1, len(values) + 1)),
                    "values": [float(v) for v in values],
                    "dropped": 0,
                },
                "final": float(values[-1]) if values else 0.0,
            }
        )
    return {
        "schema": "repro-metrics/v1",
        "t0": t0,
        "period": period,
        "t_end": t0 + period * max((len(v) for v in series.values()), default=0),
        "sampler": {"ticks": 0, "samples": 0, "synthesized": 0, "max_stride": 512},
        "instruments": instruments,
    }


def _ramp(n, rate, period=0.01, stall=None):
    """Cumulative bytes climbing at *rate*, optionally flat over *stall*."""
    out, cum = [], 0.0
    for i in range(1, n + 1):
        stalled = stall is not None and stall[0] <= i * period < stall[1]
        if not stalled:
            cum += rate * period
        out.append(cum)
    return out


class TestVerdicts:
    def test_empty_doc_is_no_data(self):
        report = evaluate_health(_doc({}))
        assert report.verdict == "no-data"
        assert math.isnan(report.baseline_rate)

    def test_steady_transfer_is_ok(self):
        doc = _doc({"fabric.bytes": _ramp(400, rate=1e9)})
        report = evaluate_health(doc)
        assert report.verdict == "ok"
        assert report.degraded_windows == []
        assert report.baseline_rate == pytest.approx(1e9, rel=0.01)

    def test_control_plane_tail_is_not_degraded(self):
        # Bulk transfer, then a long trickle tail (acks, commit traffic):
        # the envelope must exclude the tail instead of flagging it.
        bulk = _ramp(200, rate=1e9)
        tail = [bulk[-1] + i * 100.0 for i in range(1, 201)]
        doc = _doc({"fabric.bytes": bulk + tail})
        assert evaluate_health(doc).verdict == "ok"

    def test_midrun_stall_is_one_degraded_window(self):
        doc = _doc({"fabric.bytes": _ramp(400, rate=1e9, stall=(1.0, 2.0))})
        report = evaluate_health(doc)
        assert report.verdict == "degraded"
        assert len(report.degraded_windows) == 1
        w = report.degraded_windows[0]
        assert w["t_start"] == pytest.approx(1.0, abs=0.2)
        assert w["t_end"] == pytest.approx(2.0, abs=0.3)
        assert report.degraded_seconds == pytest.approx(1.0, rel=0.3)


class TestFaultPairing:
    def test_inject_recover_paired_by_kind_and_target(self):
        log = [
            {"t": 1.0, "kind": "server_crash", "target": "stor0", "action": "inject"},
            {"t": 2.0, "kind": "server_crash", "target": "stor1", "action": "inject"},
            {"t": 3.0, "kind": "server_crash", "target": "stor0", "action": "recover"},
        ]
        windows = _fault_windows(log)
        assert len(windows) == 2
        by_target = {w["target"]: w for w in windows}
        assert by_target["stor0"]["t_clear"] == 3.0
        assert by_target["stor1"]["t_clear"] == math.inf

    def test_rpc_point_faults_skipped(self):
        log = [{"t": 1.0, "kind": "rpc_drop", "target": "stor0", "action": "inject"}]
        assert _fault_windows(log) == []


class TestTimeToRecovery:
    def test_target_series_drives_recovery(self):
        period = 0.01
        doc = _doc(
            {
                "fabric.bytes": _ramp(400, rate=1e9, stall=(1.0, 2.0)),
                "server.stor0.disk_bytes": _ramp(400, rate=2.5e8, stall=(1.0, 2.0)),
            },
            period=period,
        )
        log = [
            {"t": 1.0, "kind": "server_crash", "target": "stor0", "action": "inject"},
            {"t": 2.0, "kind": "server_crash", "target": "stor0", "action": "recover"},
        ]
        report = evaluate_health(doc, log)
        assert len(report.time_to_recovery) == 1
        entry = report.time_to_recovery[0]
        assert entry["source"] == "target"
        assert entry["time_to_recovery"] == pytest.approx(1.0, rel=0.1)

    def test_unfelt_fault_recovers_immediately(self):
        doc = _doc({"fabric.bytes": _ramp(400, rate=1e9)})
        log = [
            {"t": 1.0, "kind": "server_crash", "target": "ghost", "action": "inject"},
            {"t": 1.1, "kind": "server_crash", "target": "ghost", "action": "recover"},
        ]
        report = evaluate_health(doc, log)
        entry = report.time_to_recovery[0]
        assert entry["source"] == "none"
        assert entry["time_to_recovery"] == 0.0


class TestAcceptance:
    """The PR's acceptance criterion, on the real simulator."""

    @pytest.fixture(scope="class")
    def crash_trial(self):
        from repro.bench import run_checkpoint_trial
        from repro.faults.plan import FaultEvent, FaultPlan, RetryPolicy
        from repro.sim.config import RunOptions, SimConfig

        # The storage-crash scenario retuned for measurement: a 0.5 s
        # outage against a 10 ms failure-detection timeout (with the
        # stock 250 ms timeout the observed outage is dominated by
        # detection latency, not the fault window), fine-grained chunks
        # for a dense per-server progress signal.
        plan = FaultPlan(
            events=(
                FaultEvent(kind="server_crash", at=0.05, target="stor0", duration=0.5),
            ),
            retry=RetryPolicy(
                attempts=128, base_delay=1e-3, max_delay=2e-3, jitter=0.0,
                timeout=0.01,
            ),
            seed=42,
        )
        return run_checkpoint_trial(
            "lwfs", 8, 4, state_bytes=8 * MiB, seed=42,
            config=SimConfig(chunk_bytes=256 * KiB),
            options=RunOptions(metrics=True, faults=plan, metrics_period=5e-4),
        )

    def test_degraded_window_reported(self, crash_trial):
        health = crash_trial.metrics["health"]
        assert health["verdict"] == "degraded"
        assert health["degraded_windows"]

    def test_ttr_within_5pct_of_injector(self, crash_trial):
        health = crash_trial.metrics["health"]
        injected = float(crash_trial.extra["degraded_seconds"])
        assert injected > 0
        entries = health["time_to_recovery"]
        assert entries and entries[0]["source"] == "target"
        ttr = float(entries[0]["time_to_recovery"])
        assert abs(ttr - injected) / injected <= 0.05

    def test_clean_run_is_ok(self):
        from repro.bench import run_checkpoint_trial
        from repro.sim.config import RunOptions

        trial = run_checkpoint_trial(
            "lwfs", 8, 4, state_bytes=8 * MiB, seed=42,
            options=RunOptions(metrics=True),
        )
        health = trial.metrics["health"]
        assert health["verdict"] == "ok"
        assert health["degraded_windows"] == []
        assert health["time_to_recovery"] == []
