"""Persistent content-addressed trial cache for incremental sweeps.

Every benchmark trial is a deterministic function of its spec — same
implementation, grid point, seed, parameters, simulator version, and
fast-path switches always produce bit-identical figures of merit.  That
makes re-running an unchanged trial pure waste: a sweep edited to add one
server count re-simulates every point it already measured.

This module gives :mod:`repro.bench.executor` a persistent cache keyed by
a SHA-256 over the trial's full identity.  Warm entries skip simulation
entirely; anything that could change a result — the ``repro`` version,
the kernel/fabric fast-path env switches, any trial parameter — is part
of the key, so stale hits are impossible by construction rather than by
invalidation logic.

Layout: one small JSON file per trial under ``results/.trial-cache/``
(first two hex chars shard the directory).  Escape hatches:

* ``--no-cache`` on the sweep CLIs,
* ``REPRO_BENCH_CACHE=0`` in the environment,
* ``REPRO_BENCH_CACHE_DIR`` to relocate the store (tests use a tmpdir).

Traced trials (``trace=True``) are never cached: span lists are large,
and the trace is the product the caller wants, not the scalar.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Any, Dict, Optional

from .._version import __version__
from ..sim.config import RunOptions, env_str

__all__ = ["CACHE_SCHEMA", "TrialCache", "cache_enabled", "default_cache_dir", "trial_key"]

#: Schema marker written into every cache entry; bump to invalidate.
#: v3: accelerator switches (REPRO_FASTFORWARD / REPRO_SHARD) joined the
#: key and ``peak_event_queue`` changed meaning (live depth under lazy
#: cancellation), so v2 entries are stale by construction.
#: v4: the metrics knobs (REPRO_METRICS / REPRO_METRICS_PERIOD) joined
#: the key via ``RunOptions.describe()`` and outcome payloads grew the
#: metrics document + summary, so v3 entries are stale by construction.
#: v5: open-loop workload trials joined the executor — the workload
#: spec's content signature and the tenant-collapse knob (plus its raw
#: ``REPRO_TENANT_COLLAPSE`` kill switch) are part of the key, and
#: outcome payloads grew tenants_simulated / max_class_multiplicity and
#: per-tenant-class latency rows, so v4 entries are stale by construction.
#: v6: the burst-buffer tier spec (REPRO_TIERS) joined the key — its
#: resolved content signature rides ``RunOptions.describe()`` — and
#: buffered trials grew the buffer_* drain stats in ``extra``, so v5
#: entries are stale by construction.
#: v7: server-group sharding and three RunOptions fields (fastpath,
#: lazy_kernel, cache) were removed, so the resolved-options document and
#: the raw kill-switch block both lost keys, and outcome payloads lost
#: ``window_barriers``; v6 entries are stale by construction.
CACHE_SCHEMA = "repro-trial-cache/v7"


def cache_enabled() -> bool:
    """``False`` when ``REPRO_BENCH_CACHE=0`` opts the process out."""
    return env_str("REPRO_BENCH_CACHE", "1") != "0"


def default_cache_dir() -> str:
    """``results/.trial-cache`` at the repo root (``REPRO_BENCH_CACHE_DIR``)."""
    override = env_str("REPRO_BENCH_CACHE_DIR")
    if override:
        return override
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.normpath(os.path.join(here, "..", "..", "..", "results", ".trial-cache"))


def _canonical(value: Any) -> Any:
    """A JSON-stable stand-in for *value*.

    Plain JSON types pass through; everything else (MachineSpec,
    SimConfig, ...) contributes its ``repr`` — dataclass reprs list every
    field deterministically, so two configs hash alike iff they are equal.
    """
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    return repr(value)


def _resolved_options(spec) -> RunOptions:
    """The trial's effective :class:`RunOptions`, environment included.

    Resolved the same way the harness resolves it, so the cache key sees
    exactly the configuration the trial will run under.
    """
    return (spec.params.get("options") or RunOptions()).resolved()


def trial_key(spec) -> str:
    """SHA-256 identity of one trial: spec + version + resolved options."""
    doc = {
        "schema": CACHE_SCHEMA,
        "version": __version__,
        "kind": spec.kind,
        "impl": spec.impl,
        "n_clients": spec.n_clients,
        "n_servers": spec.n_servers,
        "seed": spec.seed,
        "params": _canonical(spec.params),
        # The full resolved RunOptions (including the fault plan's content
        # hash): a cached fault-free outcome can never answer for a
        # fault-injected spec, and fast paths stay out of each other's
        # cache lines so a regression can never masquerade as a hit.
        "options": _resolved_options(spec).describe(),
        # Kill switches beat even explicit options, so their raw values
        # are part of the identity too.
        "fastpath": env_str("REPRO_FABRIC_FASTPATH", "1"),
        "lazy": env_str("REPRO_KERNEL_LAZY", "1"),
        "flow": env_str("REPRO_FLOW", ""),
        "fastforward": env_str("REPRO_FASTFORWARD", ""),
        "tenant_collapse": env_str("REPRO_TENANT_COLLAPSE", ""),
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class TrialCache:
    """Content-addressed store of finished trial outcomes."""

    def __init__(self, root: Optional[str] = None) -> None:
        self.root = root or default_cache_dir()

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".json")

    @staticmethod
    def cacheable(spec) -> bool:
        """Whether this trial's outcome may come from / go to the store.

        Traced trials carry their span list as the product: never cache.
        Fault-injected trials carry their fault log the same way (and the
        caller is usually studying recovery dynamics, not the scalar), so
        they always simulate.  Metered trials (``metrics=True``) DO cache:
        the exported document is a few KiB of series on a deterministic
        grid, and the metrics knobs are part of the key, so a metered and
        an unmetered run of one spec live on different cache lines.
        """
        opts = _resolved_options(spec)
        return not opts.trace and opts.faults is None

    def get(self, spec) -> Optional[Dict[str, Any]]:
        """The stored outcome payload for *spec*, or ``None`` on a miss."""
        if not self.cacheable(spec):
            return None
        try:
            with open(self._path(trial_key(spec)), encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError):
            return None
        if not isinstance(doc, dict) or doc.get("schema") != CACHE_SCHEMA:
            return None
        outcome = doc.get("outcome")
        return outcome if isinstance(outcome, dict) else None

    def put(self, spec, outcome: Dict[str, Any]) -> None:
        """Persist *outcome* for *spec* (atomic rename; failures are soft)."""
        if not self.cacheable(spec):
            return
        key = trial_key(spec)
        path = self._path(key)
        doc = {
            "schema": CACHE_SCHEMA,
            "version": __version__,
            "key": spec.key(),
            "outcome": outcome,
        }
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    json.dump(doc, fh, separators=(",", ":"))
                    fh.write("\n")
                os.replace(tmp, path)
            except BaseException:
                os.unlink(tmp)
                raise
        except OSError:  # pragma: no cover - read-only checkout etc.
            pass
