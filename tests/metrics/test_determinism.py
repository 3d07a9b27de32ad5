"""Metrics determinism across every scale-out path.

Contract under test (the PR's cross-engine acceptance matrix):

* **zero perturbation** — a metered run's simulated timeline is
  bit-identical to an unmetered one; ``events_processed`` grows by
  exactly the sampler's tick count and nothing else moves;
* **repeatability** — the same metered spec produces a bit-identical
  exported document run-over-run;
* **serial vs ``--jobs``** — the executor's process pool returns the
  same documents as the serial path (the merge is keyed by input
  position, and each worker samples on the same derived grid);
* **collapse** — at multiplicity 1 the weighted instruments reduce
  exactly to the unweighted code: model-scope series bit-identical;
* **fast-forward** — a fluid-flow trial whose steady epochs are skipped
  analytically samples the same model-scope series as the non-skipped
  reference within 1e-9 (the synthesized samples are closed-form, not
  interpolated).
"""

import pytest

from repro.bench import run_checkpoint_trial
from repro.bench.executor import checkpoint_spec, run_trials
from repro.machine.presets import red_storm
from repro.sim.config import RunOptions
from repro.units import MiB

#: The fluid-flow point where fast-forward demonstrably engages
#: (state > 2 x chunk_bytes so the flow path kicks in; Red Storm's
#: RAID-bound model keeps multiplicities real).
FLOW_POINT = dict(state_bytes=64 * MiB, seed=11, spec=red_storm())


def _flow_trial(**opts):
    return run_checkpoint_trial(
        "lwfs", 64, 8, **FLOW_POINT,
        options=RunOptions(flow=True, collapse=True, metrics=True, **opts),
    )


def _by_name(doc, scope=None):
    return {
        inst["name"]: inst
        for inst in doc["instruments"]
        if scope is None or inst["scope"] == scope
    }


def _series(inst):
    return list(zip(inst["series"]["indices"], inst["series"]["values"]))


class TestZeroPerturbation:
    def test_metered_timeline_is_bit_identical(self):
        kw = dict(state_bytes=8 * MiB, seed=3)
        plain = run_checkpoint_trial(
            "lwfs", 8, 4, **kw, options=RunOptions(metrics=False)
        )
        metered = run_checkpoint_trial(
            "lwfs", 8, 4, **kw, options=RunOptions(metrics=True)
        )
        assert metered.extra["sim_seconds"] == plain.extra["sim_seconds"]
        assert metered.throughput_mb_s == plain.throughput_mb_s
        assert metered.max_elapsed == plain.max_elapsed
        delta = int(metered.extra["events_processed"]) - int(
            plain.extra["events_processed"]
        )
        assert delta == int(metered.extra["metrics_ticks"])


class TestRepeatability:
    def test_same_spec_same_document(self):
        a = _flow_trial()
        b = _flow_trial()
        assert a.metrics["t0"] == b.metrics["t0"]
        assert a.metrics["period"] == b.metrics["period"]
        assert a.metrics["sampler"] == b.metrics["sampler"]
        sa, sb = _by_name(a.metrics), _by_name(b.metrics)
        assert set(sa) == set(sb)
        for name in sa:
            assert _series(sa[name]) == _series(sb[name]), name


class TestSerialVsJobs:
    def test_pool_matches_serial(self):
        specs = [
            checkpoint_spec(
                "lwfs", 8, 4, seed=s, state_bytes=8 * MiB,
                options=RunOptions(metrics=True),
            )
            for s in (3, 4)
        ]
        serial = run_trials(specs, jobs=1, cache=False)
        pooled = run_trials(specs, jobs=2, cache=False)
        for s, p in zip(serial, pooled):
            assert s.value == p.value
            assert s.sim_seconds == p.sim_seconds
            assert s.metrics is not None and p.metrics is not None
            ds, dp = _by_name(s.metrics), _by_name(p.metrics)
            assert set(ds) == set(dp)
            for name in ds:
                assert _series(ds[name]) == _series(dp[name]), name
            assert s.metrics_summary == p.metrics_summary


class TestCollapse:
    def test_singleton_multiplicity_is_exact(self):
        kw = dict(state_bytes=8 * MiB, seed=7)
        exact = run_checkpoint_trial(
            "lwfs", 4, 4, **kw, options=RunOptions(metrics=True)
        )
        coll = run_checkpoint_trial(
            "lwfs", 4, 4, **kw, options=RunOptions(metrics=True, collapse=True)
        )
        assert coll.extra["max_multiplicity"] == 1
        assert coll.metrics["period"] == exact.metrics["period"]
        se, sc = _by_name(exact.metrics, "model"), _by_name(coll.metrics, "model")
        assert set(se) == set(sc)
        for name in se:
            assert _series(se[name]) == _series(sc[name]), name


class TestFastForward:
    def test_synthesized_samples_match_reference_within_1e9(self):
        fast = _flow_trial(fastforward=True)
        ref = _flow_trial(fastforward=False)
        # The point must actually exercise the skip engine, and both
        # runs must land on the same simulated timeline and grid.
        assert fast.extra["events_fast_forwarded"] > 0
        assert fast.extra["sim_seconds"] == ref.extra["sim_seconds"]
        assert fast.metrics["period"] == ref.metrics["period"]
        assert fast.metrics["t0"] == ref.metrics["t0"]
        sf, sr = _by_name(fast.metrics, "model"), _by_name(ref.metrics, "model")
        assert set(sf) == set(sr)
        compared = 0
        for name in sf:
            df = dict(_series(sf[name]))
            dr = dict(_series(sr[name]))
            for index in set(df) & set(dr):
                scale = max(1.0, abs(dr[index]))
                assert abs(df[index] - dr[index]) / scale <= 1e-9, (name, index)
                compared += 1
        assert compared > 1000  # a real comparison, not a vacuous one

