"""Host-time attribution per simulator layer, for the traced benchmark run.

:class:`LayerTracer` wraps the functions and methods of every layer's
modules from outside: nothing under ``src/`` changes, and the wrappers
exist only in a process that called :meth:`LayerTracer.install`.

* A call that crosses into another layer opens a span; a call that
  stays inside the caller's layer runs unspanned (its time is already
  the caller's).  A layer's self time is its spans' durations minus the
  spans they contain.
* A generator function is timed per resume (``send``/``throw``), so a
  layer is never charged for time it spends suspended on a simulated
  event.
* ``Environment.run`` is the root span.  A process body that no wrapper
  covers (a closure) is charged to the layer whose source file defines
  it, or to ``unattributed`` when that file belongs to no layer.
* Self time is kept apart for time inside ``Environment.run`` (what the
  benchmark reports) and time outside it (builds, input generation).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import pkgutil
import sys
from collections import Counter, defaultdict
from time import perf_counter
from types import FunctionType, GeneratorType
from typing import Dict, List, Optional

#: Module prefix -> layer; the longest matching prefix wins.
MODULE_LAYERS = {
    "repro.simkernel": "simkernel",
    "repro.network.fabric": "network.fabric",
    "repro.network.link": "network.fabric",
    "repro.network.nic": "network.fabric",
    "repro.machine.topology": "network.fabric",
    "repro.network.portals": "network.portals",
    "repro.network.rpc": "network.rpc",
    "repro.network.flow": "network.flow",
    "repro.sim.servers": "sim.servers",
    "repro.sim.client": "sim.client",
    "repro.sim.cluster": "sim.cluster",
    "repro.sim.deployment": "sim.cluster",
    "repro.sim.collapse": "sim.cluster",
    "repro.sim.stats": "sim.cluster",
    "repro.machine": "sim.cluster",
    "repro.lwfs": "lwfs",
    "repro.pfs": "pfs",
    "repro.storage": "storage.device",
    "repro.storage.buffer": "storage.buffer",
    "repro.iolib": "iolib",
    "repro.parallel": "parallel",
    "repro.workload": "workload",
    "repro.metrics": "metrics",
    "repro.faults": "faults",
}

#: Dunder methods worth a span; the rest are data-model plumbing.
_DUNDERS = frozenset(("__init__", "__call__", "__enter__", "__exit__"))

#: Constructors whose inclusive time is the cluster/deployment build.
_BUILDERS = (
    ("repro.sim.cluster", "SimCluster"),
    ("repro.sim.deployment", "LWFSDeployment"),
    ("repro.pfs.deployment", "PFSDeployment"),
)

#: Calls counted by name: (module, qualified name) -> (counter, index of
#: a positional argument summed into ``<counter>_weight``, or None).
_COUNTED = {
    ("repro.network.flow", "FlowNetwork.open"): ("flows_opened", None),
    ("repro.parallel.comm", "Communicator.send"): ("messages", None),
    ("repro.storage.buffer.node", "BufferNode.absorb"): ("absorbs", None),
    # _issue(self, state, sess, op, server, weight, ...): one batch of
    # `weight` arrivals.
    ("repro.workload.engine", "WorkloadEngine._issue"): ("batches", 5),
}


def layer_of(module: str) -> Optional[str]:
    """The layer owning *module*, or ``None`` for code outside every layer."""
    best = None
    for prefix, layer in MODULE_LAYERS.items():
        if module == prefix or module.startswith(prefix + "."):
            if best is None or len(prefix) > len(best[0]):
                best = (prefix, layer)
    return best[1] if best else None


class LayerTracer:
    """Spans around calls into each layer; self time and call counts."""

    def __init__(self) -> None:
        #: Open spans: ``[layer, start, time covered by child spans]``.
        self.stack: List[list] = []
        #: Depth of nested ``Environment.run`` calls (0 = outside a run).
        self.in_run = 0
        self.run_self: Dict[str, float] = defaultdict(float)
        self.other_self: Dict[str, float] = defaultdict(float)
        #: Calls that crossed into a layer from another one.
        self.calls: Counter = Counter()
        #: Named counters (:data:`_COUNTED`, RPC requests, MDS creates).
        self.counts: Counter = Counter()
        #: Inclusive host time of cluster and deployment constructors.
        self.build_s = 0.0
        self._building = 0
        #: Kernel counters of every environment that ran, last run wins.
        self.envs: Dict[int, dict] = {}
        self._env_ids = itertools.count()
        self.verify_caches: list = []
        self._file_layers: Dict[str, str] = {}

    # -- spans ---------------------------------------------------------------
    def _enter(self, layer: str):
        stack = self.stack
        if stack and stack[-1][0] is layer:
            return None
        frame = [layer, perf_counter(), 0.0]
        stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        duration = perf_counter() - frame[1]
        stack = self.stack
        stack.pop()
        sink = self.run_self if self.in_run else self.other_self
        sink[frame[0]] += duration - frame[2]
        if stack:
            stack[-1][2] += duration

    def _timed_gen(self, layer: str, gen):
        """Drive *gen*, timing each resume as a span of *layer*."""
        enter, leave = self._enter, self._exit
        send, throw = gen.send, gen.throw
        value = None
        error = None
        while True:
            frame = enter(layer)
            try:
                if error is None:
                    yielded = send(value)
                else:
                    exc, error = error, None
                    yielded = throw(exc)
            except StopIteration as stop:
                return stop.value
            finally:
                if frame is not None:
                    leave(frame)
            try:
                value = yield yielded
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # noqa: BLE001 - forwarded into gen
                error, value = exc, None

    def _timed_generator(self, layer: str, gen):
        wrapped = self._timed_gen(layer, gen)
        # The kernel names processes after their generator.
        wrapped.__name__ = gen.__name__
        wrapped.__qualname__ = gen.__qualname__
        return wrapped

    def wrap(self, fn, layer: str, counted=None):
        """A wrapper of *fn* that charges its time to *layer*."""
        enter, leave = self._enter, self._exit
        calls, counts, stack = self.calls, self.counts, self.stack
        timed_generator = self._timed_generator
        counter, weight_arg = counted or (None, None)

        def count(args) -> None:
            counts[counter] += 1
            if weight_arg is not None:
                counts[counter + "_weight"] += args[weight_arg]

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not stack or stack[-1][0] is not layer:
                    calls[layer] += 1
                if counter is not None:
                    count(args)
                return timed_generator(layer, fn(*args, **kwargs))
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if counter is not None:
                    count(args)
                frame = enter(layer)
                if frame is None:
                    return fn(*args, **kwargs)
                calls[layer] += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave(frame)
        return wrapper

    # -- installation ----------------------------------------------------------
    def _layer_of_code(self, code) -> str:
        path = os.path.abspath(code.co_filename)
        if path not in self._file_layers:
            self._file_layers[path] = "unattributed"
            for name, mod in list(sys.modules.items()):
                mod_file = getattr(mod, "__file__", None)
                if mod_file and os.path.abspath(mod_file) == path:
                    self._file_layers[path] = layer_of(name) or "unattributed"
                    break
        return self._file_layers[path]

    def _wrap_class(self, cls, module: str, layer: str) -> None:
        for name, attr in list(cls.__dict__.items()):
            if name.startswith("__") and name not in _DUNDERS:
                continue
            counted = _COUNTED.get((module, f"{cls.__qualname__}.{name}"))
            if isinstance(attr, FunctionType):
                setattr(cls, name, self.wrap(attr, layer, counted))
            elif isinstance(attr, (staticmethod, classmethod)):
                setattr(cls, name, type(attr)(self.wrap(attr.__func__, layer, counted)))

    def install(self) -> "LayerTracer":
        """Import every layer module and wrap its functions and methods."""
        import repro

        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if not info.name.endswith("__main__") and layer_of(info.name):
                importlib.import_module(info.name)
        modules = {
            name: mod for name, mod in sys.modules.items()
            if name == "repro" or name.startswith("repro.")
        }
        replaced = {}
        for name, mod in modules.items():
            layer = layer_of(name)
            if layer is None:
                continue
            for attr in list(vars(mod).values()):
                if getattr(attr, "__module__", None) != name:
                    continue
                if isinstance(attr, type):
                    self._wrap_class(attr, name, layer)
                elif isinstance(attr, FunctionType):
                    replaced[attr] = self.wrap(attr, layer)
        # A module-level function is also reachable through every module
        # that imported it by name; rebind those references too.
        for mod in modules.values():
            for attr_name, attr in list(vars(mod).items()):
                if isinstance(attr, FunctionType) and attr in replaced:
                    setattr(mod, attr_name, replaced[attr])
        self._install_hooks()
        return self

    def _install_hooks(self) -> None:
        """Root span, process attribution, and the counters read at exit."""
        from repro.lwfs.storage_svc import VerifyCache
        from repro.network.rpc import RpcService
        from repro.simkernel.core import Environment

        tracer = self
        run = Environment.__dict__["run"]

        def traced_run(env, until=None):
            tracer.in_run += 1
            frame = ["simkernel", perf_counter(), 0.0]
            tracer.stack.append(frame)
            try:
                return run(env, until)
            finally:
                tracer._exit(frame)
                tracer.in_run -= 1
                tracer._snapshot(env)

        setattr(Environment, "run", traced_run)

        process = Environment.__dict__["process"]
        wrapped_code = LayerTracer._timed_gen.__code__

        def traced_process(env, generator, name=None):
            if isinstance(generator, GeneratorType) and generator.gi_code is not wrapped_code:
                layer = tracer._layer_of_code(generator.gi_code)
                generator = tracer._timed_generator(layer, generator)
            return process(env, generator, name=name)

        setattr(Environment, "process", traced_process)

        register = RpcService.__dict__["register"]

        def traced_register(service, op, handler):
            module = getattr(handler, "__module__", None) or ""
            layer = layer_of(module) or tracer._layer_of_code(handler.__code__)
            counted = ("mds_creates", None) if (module, op) == ("repro.pfs.mds", "create") else None
            timed = tracer.wrap(handler, layer, counted)

            @functools.wraps(handler)
            def served(*args, **kwargs):
                tracer.counts["requests"] += 1
                return timed(*args, **kwargs)

            return register(service, op, served)

        setattr(RpcService, "register", traced_register)

        cache_init = VerifyCache.__dict__["__init__"]

        def traced_cache_init(cache, *args, **kwargs):
            cache_init(cache, *args, **kwargs)
            tracer.verify_caches.append(cache)

        setattr(VerifyCache, "__init__", traced_cache_init)

        for module, cls_name in _BUILDERS:
            cls = getattr(importlib.import_module(module), cls_name)
            setattr(cls, "__init__", self._build_timer(cls.__dict__["__init__"]))

    def _build_timer(self, init):
        tracer = self

        @functools.wraps(init)
        def timed_init(*args, **kwargs):
            tracer._building += 1
            start = perf_counter()
            try:
                return init(*args, **kwargs)
            finally:
                tracer._building -= 1
                if not tracer._building:
                    tracer.build_s += perf_counter() - start

        return timed_init

    def _snapshot(self, env) -> None:
        key = env.__dict__.get("_perfbench_id")
        if key is None:
            key = env._perfbench_id = next(self._env_ids)
        flows = getattr(env, "_flow_network", None)
        self.envs[key] = {
            "events": env.events_processed,
            "cancelled_skipped": env.events_skipped_cancelled,
            "peak_queue": env.peak_queue_len,
            "fast_forwarded": env.events_fast_forwarded,
            "rate_recomputes": flows.rate_recomputes if flows is not None else 0,
        }

    # -- report ------------------------------------------------------------------
    def report(self) -> dict:
        """Raw per-layer totals, JSON-ready."""
        hits = sum(c.hits for c in self.verify_caches)
        misses = sum(c.misses for c in self.verify_caches)
        envs = list(self.envs.values())
        return {
            "self_s": dict(self.run_self),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "build_s": self.build_s,
            "verify_hits": hits,
            "verify_misses": misses,
            "events": sum(e["events"] for e in envs),
            "cancelled_skipped": sum(e["cancelled_skipped"] for e in envs),
            "peak_queue": max((e["peak_queue"] for e in envs), default=0),
            "fast_forwarded": sum(e["fast_forwarded"] for e in envs),
            "rate_recomputes": sum(e["rate_recomputes"] for e in envs),
        }
