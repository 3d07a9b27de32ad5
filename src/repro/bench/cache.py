"""Persistent content-addressed trial cache for incremental sweeps.

Every benchmark trial is a deterministic function of its spec — same
implementation, grid point, seed, parameters, run options and simulator
source always produce bit-identical figures of merit.  That
makes re-running an unchanged trial pure waste: a sweep edited to add one
server count re-simulates every point it already measured.

This module gives :mod:`repro.bench.executor` a persistent cache keyed by
a SHA-256 over the trial's full identity: the spec, the resolved
:class:`~repro.sim.config.RunOptions`, and a digest of the ``repro``
package's source files, so an edit to the model re-simulates instead of
answering from older entries.
Files the key does not cover (a dependency upgrade, say) are not
tracked: clear the store or pass ``--no-cache`` after changing them.

Layout: one small JSON file per trial under ``results/.trial-cache/``
(first two hex chars shard the directory), holding the
:class:`~repro.bench.harness.TrialResult` minus its host-side fields.
Escape hatches:

* ``--no-cache`` on the sweep CLIs,
* ``REPRO_BENCH_CACHE=0`` in the environment,
* ``REPRO_BENCH_CACHE_DIR`` to relocate the store (tests use a tmpdir).

Traced trials (``trace=True``) are never cached: span lists are large,
and the trace is the product the caller wants, not the scalar.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import tempfile
from dataclasses import fields
from typing import Any, Optional

from ..sim.config import RunOptions, env_str
from .harness import TrialResult

__all__ = ["TrialCache", "cache_enabled", "default_cache_dir", "trial_key"]

#: Record fields the store leaves out: set by the executor per run, or
#: the products of traced and fault-injected trials, which never cache.
_NOT_STORED = frozenset(("spec", "wall_clock_s", "cached", "trace", "fault_log"))


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
    """The trial's effective :class:`RunOptions`.

    Resolved the same way the harness resolves it, so the cache key sees
    exactly the configuration the trial will run under.
    """
    return (spec.params.get("options") or RunOptions()).resolved()


@functools.lru_cache(maxsize=1)
def _source_digest() -> str:
    """SHA-256 over every ``.py`` file of the ``repro`` package.

    Computed once per process; only a sweep that uses the cache pays for
    it.
    """
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    digest = hashlib.sha256()
    for dirpath, dirnames, files in os.walk(root):
        dirnames.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode("utf-8") + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def trial_key(spec) -> str:
    """SHA-256 identity of one trial: spec + source + resolved options."""
    doc = {
        "source": _source_digest(),
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
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class TrialCache:
    """Content-addressed store of finished trial records."""

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

    def get(self, spec) -> Optional[TrialResult]:
        """The stored record for *spec*, or ``None`` on a miss."""
        if not self.cacheable(spec):
            return None
        try:
            with open(self._path(trial_key(spec)), encoding="utf-8") as fh:
                doc = json.load(fh)
            return TrialResult(**doc["record"])
        except (OSError, ValueError, TypeError, KeyError):
            # A missing, unreadable or foreign-shaped entry is a miss.
            return None

    def put(self, spec, result: TrialResult) -> None:
        """Persist *result* for *spec* (atomic rename; failures are soft)."""
        if not self.cacheable(spec):
            return
        path = self._path(trial_key(spec))
        record = {
            f.name: getattr(result, f.name) for f in fields(result)
            if f.name not in _NOT_STORED
        }
        doc = {"key": spec.key(), "record": record}
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
