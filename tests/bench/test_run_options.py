"""RunOptions: the unified typed run configuration.

Contract under test:

* a trial's configuration comes only from its ``RunOptions`` fields —
  the defaults are concrete and no environment variable changes them;
* ``RunOptions`` is the only way to configure a trial: it has exactly
  eight fields, and the old ``trace``/``collapse``/``flow``/``tiers``
  harness kwargs are rejected;
* the bench trial-cache key folds the resolved options in (a fault plan
  changes the key; fault-injected trials are never cached at all);
* only ``repro.sim.config.env_str`` reads the environment, and the
  package names no ``REPRO_*`` variable beyond the bench plumbing.
"""

import dataclasses
import os
import re

import pytest

from repro.bench import run_checkpoint_trial, run_create_trial
from repro.bench.cache import TrialCache, trial_key
from repro.bench.executor import checkpoint_spec
from repro.errors import ConfigError, ReproError
from repro.faults import FaultEvent, FaultPlan
from repro.sim.config import RunOptions
from repro.units import MiB

STATE = 8 * MiB

#: Every field of RunOptions, in declaration order.
FIELDS = [
    "collapse", "flow", "trace", "metrics", "tenant_collapse",
    "metrics_period", "faults", "tiers",
]


#: Variables that configured trials before RunOptions was the only
#: channel; none of them may change a trial any more.
FORMER_OPTION_VARIABLES = {
    "REPRO_COLLAPSE": "1", "REPRO_FLOW": "1", "REPRO_TRACE": "1",
    "REPRO_FASTFORWARD": "0", "REPRO_METRICS": "1",
    "REPRO_TENANT_COLLAPSE": "0", "REPRO_METRICS_PERIOD": "abc",
    "REPRO_FAULTS": "missing-plan.json", "REPRO_WORKLOAD": "missing-mix.json",
    "REPRO_TIERS": "missing-tiers.json", "REPRO_KERNEL_LAZY": "0",
    "REPRO_FABRIC_FASTPATH": "0",
}


class TestResolutionOrder:
    def test_defaults(self):
        opts = RunOptions().resolved()
        assert (opts.collapse, opts.flow, opts.trace) == (False, False, False)
        assert opts.tenant_collapse is True
        assert opts.metrics is False
        assert opts.faults is None

    def test_explicit_beats_env(self, monkeypatch):
        # Explicit fields are all there is: every variable that once
        # configured a trial is set, and none of them is read.
        clean = RunOptions(collapse=True, flow=False).describe()
        for name, value in FORMER_OPTION_VARIABLES.items():
            monkeypatch.setenv(name, value)
        opts = RunOptions(collapse=True, flow=False).resolved()
        assert opts.collapse is True
        assert opts.flow is False
        assert RunOptions(collapse=True, flow=False).describe() == clean
        assert RunOptions().resolved() == RunOptions()

    def test_faults_string_is_loaded_as_a_path(self, tmp_path):
        plan = FaultPlan(seed=4, rpc_drop_rate=0.01)
        path = str(tmp_path / "plan.json")
        plan.dump(path)
        assert RunOptions(faults=path).resolved().faults == plan

    def test_describe_is_json_stable(self):
        doc = RunOptions().describe()
        assert set(doc) == set(FIELDS)
        assert doc["metrics_period"] is None  # "auto" is a real state
        assert doc["faults"] == ""
        assert doc["tiers"] == ""
        plan = FaultPlan(seed=9)
        assert RunOptions(faults=plan).describe()["faults"] == plan.signature()

    def test_describe_folds_in_the_tier_signature(self):
        from repro.storage.buffer import TierSpec

        tier = TierSpec(mode="buffer")
        assert RunOptions(tiers=tier).describe()["tiers"] == tier.signature()


class TestMetricsPeriodRejected:
    """A sampling period that is not a positive number raises instead of
    silently falling back to the automatic period."""

    @pytest.mark.parametrize("period", [0, -1])
    def test_nonpositive_field(self, period):
        with pytest.raises(ConfigError, match="metrics_period") as exc:
            RunOptions(metrics_period=period).resolved()
        # Existing ValueError handlers keep catching configuration errors.
        assert isinstance(exc.value, ValueError)
        assert isinstance(exc.value, ReproError)

    def test_valid_period_resolves(self):
        assert RunOptions(metrics_period=5e-4).resolved().metrics_period == 5e-4


class TestOneConfigurationSurface:
    def test_run_options_has_exactly_eight_fields(self):
        assert [f.name for f in dataclasses.fields(RunOptions)] == FIELDS

    @pytest.mark.parametrize("trial", [run_checkpoint_trial, run_create_trial])
    @pytest.mark.parametrize("name", ["trace", "collapse", "flow", "tiers"])
    def test_legacy_kwarg_raises_type_error(self, trial, name):
        with pytest.raises(TypeError, match=name):
            trial("lwfs", 4, 2, seed=5, **{name: True})


class TestCacheKeySeparation:
    def _spec(self, **params):
        return checkpoint_spec("lwfs", 4, 2, seed=5, state_bytes=STATE, **params)

    def test_fault_plan_changes_the_key(self):
        plan = FaultPlan(events=(FaultEvent(
            kind="server_crash", at=0.1, target="stor0", duration=0.1),), seed=3)
        clean = trial_key(self._spec())
        faulted = trial_key(self._spec(options=RunOptions(faults=plan)))
        assert clean != faulted
        other = FaultPlan(events=(FaultEvent(
            kind="server_crash", at=0.2, target="stor0", duration=0.1),), seed=3)
        assert faulted != trial_key(self._spec(options=RunOptions(faults=other)))

    def test_every_resolved_knob_is_in_the_key(self):
        base = trial_key(self._spec())
        assert trial_key(self._spec(options=RunOptions(collapse=True))) != base
        assert trial_key(self._spec(options=RunOptions(flow=True))) != base
        assert trial_key(self._spec(options=RunOptions(trace=True))) != base

    def test_fault_trials_are_never_cached(self):
        plan = FaultPlan(seed=3, rpc_drop_rate=0.01)
        assert TrialCache.cacheable(self._spec()) is True
        assert TrialCache.cacheable(
            self._spec(options=RunOptions(faults=plan))) is False
        assert TrialCache.cacheable(self._spec(options=RunOptions(trace=True))) is False


def _package_sources():
    """``(path relative to the package, source)`` for every module."""
    import repro

    root = os.path.dirname(os.path.abspath(repro.__file__))
    for dirpath, _, files in os.walk(root):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                with open(path, encoding="utf-8") as fh:
                    yield os.path.relpath(path, root), fh.read()


class TestEnvReadWhitelist:
    #: The single env_str gateway.  Nothing else in src/repro may touch
    #: os.environ.
    WHITELIST = {os.path.join("sim", "config.py")}

    #: The bench plumbing env_str serves: worker counts and file
    #: locations.  No other REPRO_* variable exists.
    BENCH_VARIABLES = {
        "REPRO_BENCH_JOBS", "REPRO_BENCH_CACHE", "REPRO_BENCH_CACHE_DIR",
        "REPRO_BENCH_SWEEP_JSON", "REPRO_RESULTS_DIR",
    }

    def test_no_stray_environment_reads(self):
        offenders = [
            rel for rel, source in _package_sources()
            if ("os.environ" in source or "getenv" in source)
            and rel not in self.WHITELIST
        ]
        assert not offenders, (
            f"environment reads outside repro.sim.config.env_str: {offenders}"
        )

    def test_only_bench_plumbing_variables_are_named(self):
        named = set()
        for _, source in _package_sources():
            named.update(re.findall(r"REPRO_[A-Z0-9_]+", source))
        assert named == self.BENCH_VARIABLES
