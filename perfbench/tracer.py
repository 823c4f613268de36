"""Span tracer for the traced benchmark run.

Wraps the public entry points of each layer of the ``repro`` package
from outside the package (nothing under ``src/`` is touched) and keeps,
per (layer, phase), the *self time* of every span: its duration minus
the part of that interval its child spans cover.  Engine dispatch is
the span of ``Engine.run`` minus the callbacks it dispatches; each
dispatched callback is a child span attributed to the layer of the
module that defined the callable.

Layers are named after the package modules (``repro.core.aggregator``
-> ``core.aggregator``); the packages listed in ``_SHALLOW`` collapse
to one layer (``repro.obs.registry`` -> ``obs``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

PHASES = ("setup", "rampup", "steady")

#: Packages measured as one layer, however many modules they hold.
_SHALLOW = {"obs": 1, "nodefs": 1, "faults": 1, "plugins": 2}


def layer_of_module(module: str | None) -> str:
    """``repro.core.wire`` -> ``core.wire``; non-repro code -> ``other``."""
    if not module or not module.startswith("repro."):
        return "other"
    parts = module.split(".")[1:]
    return ".".join(parts[:_SHALLOW.get(parts[0], 2)])


class Tracer:
    """Span stack plus per-(layer, phase) self-time accumulators.

    ``calls[key]`` counts completed spans per entry point; ``inclusive``
    sums the outermost span duration of each named inclusive group
    (a re-entrant call of the same group is not counted twice).
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.phase = "setup"
        self.self_time: dict[tuple[str, str], float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive: dict[str, float] = defaultdict(float)
        self._depth: dict[str, int] = defaultdict(int)
        #: one mutable [child_time] cell per open span
        self._stack: list[list[float]] = []

    # -- span arithmetic ---------------------------------------------------
    def enter(self, group: str | None = None) -> tuple:
        cell = [0.0]
        self._stack.append(cell)
        if group is not None:
            self._depth[group] += 1
        return cell, self.clock()

    def exit(self, token: tuple, layer: str, key: str,
             group: str | None = None) -> None:
        cell, t0 = token
        dur = self.clock() - t0
        self._stack.pop()
        self.self_time[(layer, self.phase)] += dur - cell[0]
        if self._stack:
            self._stack[-1][0] += dur
        self.calls[key] += 1
        if group is not None:
            self._depth[group] -= 1
            if self._depth[group] == 0:
                self.inclusive[group] += dur

    def wrap(self, fn, layer: str, key: str, group: str | None = None):
        """A wrapper that records one span of ``layer`` per call."""
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = enter(group)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(token, layer, key, group)

        return traced

    def wrap_dispatch(self, fire, default_layer: str):
        """Wrap an engine item's ``_fire``: the span's layer is the
        module of the callable the item dispatches."""
        enter, exit_ = self.enter, self.exit
        cache: dict[str | None, str] = {}

        def target_module(item) -> str | None:
            fn = getattr(item, "fn", None)
            if fn is None:
                callbacks = getattr(item, "callbacks", None)
                fn = callbacks[0] if callbacks else None
            if fn is None:
                return None
            while isinstance(fn, functools.partial):
                fn = fn.func
            return getattr(fn, "__module__", None)

        @functools.wraps(fire)
        def _fire(item):
            module = target_module(item)
            layer = cache.get(module)
            if layer is None:
                layer = (default_layer if module is None
                         else layer_of_module(module))
                cache[module] = layer
            token = enter()
            try:
                return fire(item)
            finally:
                exit_(token, layer, "dispatch:" + layer)

        return _fire

    def save(self) -> tuple:
        """Copy of the accumulators, for :meth:`restore` after reads
        that must not count as traced work."""
        return (dict(self.self_time), dict(self.calls), dict(self.inclusive))

    def restore(self, state: tuple) -> None:
        for target, saved in zip((self.self_time, self.calls,
                                  self.inclusive), state):
            target.clear()
            target.update(saved)

    # -- results -----------------------------------------------------------
    def layer_phase_table(self) -> dict[str, dict[str, float]]:
        table: dict[str, dict[str, float]] = {}
        for (layer, phase), s in self.self_time.items():
            table.setdefault(layer, dict.fromkeys(PHASES, 0.0))[phase] += s
        return table

    def total_self(self) -> float:
        return sum(self.self_time.values())


# ---------------------------------------------------------------------------
# instrumenting the package
# ---------------------------------------------------------------------------

#: Entry points per module.  ``"*"`` wraps every public function and
#: every public method of every class the module defines; a list names
#: them.  Hot one-line accessors (metric-set getters, ``Counter.inc``)
#: are left out: the wrapper would cost more than the call.
ENTRY_POINTS: dict[str, object] = {
    "repro.sim.engine": ["Engine.run"],
    "repro.core.ldmsd": ["Ldmsd.__init__", "Ldmsd.load_sampler",
                         "Ldmsd.start_sampler", "Ldmsd.listen",
                         "Ldmsd.add_producer", "Ldmsd.add_store",
                         "Ldmsd.create_set", "Ldmsd.enable_query",
                         "Ldmsd.advertise", "Ldmsd.activate_standby",
                         "Ldmsd.shutdown"],
    "repro.core.metric_set": ["MetricSet.__init__"],
    "repro.core.aggregator": "*",
    "repro.core.store": ["StorePlugin.submit", "StorePlugin.submit_many"],
    "repro.core.wire": "*",
    "repro.transport.simfabric": ["SimTransport.__init__",
                                  "SimTransport.listen",
                                  "SimTransport.connect",
                                  "_SimEndpoint.send",
                                  "_SimEndpoint.rdma_read",
                                  "_SimEndpoint.rdma_read_multi"],
    "repro.plugins.stores.memstore": ["MemoryStore.store",
                                      "MemoryStore.store_many",
                                      "MemoryStore.flush"],
    "repro.plugins.stores.sos": ["SosStore.store", "SosStore.flush",
                                 "SosStore.close", "SosReader.__init__",
                                 "SosReader.refresh", "SosReader.range"],
    "repro.plugins.stores.csv_store": ["CsvStore.store",
                                       "CsvStore.store_many",
                                       "CsvStore.flush"],
    "repro.plugins.samplers.parsers": "*",
    "repro.nodefs.fs": "*",
    "repro.nodefs.host": ["HostModel.advance"],
    "repro.query.engine": ["QueryEngine.query"],
    "repro.obs.registry": ["Telemetry.counter", "Telemetry.gauge",
                           "Telemetry.histogram", "Histogram.observe"],
    "repro.obs.freshness": ["ProducerFreshness.observe"],
    "repro.obs.flight": ["FlightRecorder.record"],
    "repro.obs.spans": ["SpanRecorder.record"],
    "repro.cluster.machine": ["blue_waters", "Machine.deploy_ldms",
                              "Machine.attach_watchdog",
                              "Machine.fault_injector"],
    "repro.faults.watchdog": "*",
    "repro.faults.inject": "*",
    "repro.network.congestion": "*",
    "repro.network.traffic": "*",
    "repro.network.torus": ["GeminiTorus.route"],
    "repro.sim.fleet": "*",
}

#: Every sampler plugin's ``do_sample``/``cohort_row`` (the scalar and
#: the vectorised sampling paths) joins ``plugins.samplers``.
SAMPLER_METHODS = ("do_sample", "cohort_row")

#: Inclusive-time groups reported as their own metrics.
GROUPS = {
    "Ldmsd.__init__": "core.ldmsd.construct",
    "Ldmsd.load_sampler": "core.ldmsd.construct",
    "Ldmsd.start_sampler": "core.ldmsd.construct",
    "Ldmsd.listen": "core.ldmsd.construct",
    "Ldmsd.add_producer": "core.ldmsd.construct",
    "Ldmsd.add_store": "core.ldmsd.construct",
    "MetricSet.__init__": "core.metric_set.create",
    "Machine.deploy_ldms": "cluster.machine.deploy",
    "SosReader.__init__": "plugins.stores.sos.read",
    "SosReader.refresh": "plugins.stores.sos.read",
    "SosReader.range": "plugins.stores.sos.read",
}


def _public_members(module) -> list[tuple[object, str]]:
    """(owner, attribute) for every public function and public method
    of the classes ``module`` defines."""
    out = []
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_") and not inspect.isclass(obj):
            continue
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            out.append((module, name))
        elif inspect.isclass(obj) and obj.__module__ == module.__name__:
            for attr, val in sorted(vars(obj).items()):
                if not attr.startswith("_") and inspect.isfunction(val):
                    out.append((obj, attr))
    return out


def _resolve(module, spec: str) -> tuple[object, str]:
    owner_name, _, attr = spec.rpartition(".")
    return (getattr(module, owner_name) if owner_name else module), attr


def _rebind(original, replacement) -> None:
    """Point every ``from x import f`` binding in loaded repro modules
    at the wrapper too."""
    for mod in list(sys.modules.values()):
        if mod is None or not getattr(mod, "__name__", "").startswith("repro"):
            continue
        d = vars(mod)
        for k, v in list(d.items()):
            if v is original:
                d[k] = replacement


def import_layers() -> None:
    """Import every instrumented module and sampler plugin, so traced
    and untraced runs start their clocks with the same modules loaded."""
    import pkgutil

    import repro.plugins.samplers as samplers_pkg

    for info in pkgutil.iter_modules(samplers_pkg.__path__):
        importlib.import_module(f"repro.plugins.samplers.{info.name}")
    for name in ENTRY_POINTS:
        importlib.import_module(name)


def instrument(tracer: Tracer) -> None:
    """Install the wrappers process-wide.  Call once, in a fresh
    process, before the workload builds anything."""
    import_layers()

    for modname, spec in ENTRY_POINTS.items():
        module = sys.modules[modname]
        targets = (_public_members(module) if spec == "*"
                   else [_resolve(module, s) for s in spec])
        layer = layer_of_module(modname)
        for owner, attr in targets:
            fn = vars(owner)[attr]
            qual = (attr if owner is module
                    else f"{owner.__name__}.{attr}")
            wrapped = tracer.wrap(fn, layer, f"{layer}:{qual}",
                                  GROUPS.get(qual))
            setattr(owner, attr, wrapped)
            if owner is module:
                _rebind(fn, wrapped)

    from repro.core.sampler import SamplerPlugin

    seen = set()
    stack = list(SamplerPlugin.__subclasses__())
    while stack:
        cls = stack.pop()
        if cls in seen:
            continue
        seen.add(cls)
        stack.extend(cls.__subclasses__())
        for attr in SAMPLER_METHODS:
            fn = vars(cls).get(attr)
            if inspect.isfunction(fn):
                setattr(cls, attr, tracer.wrap(
                    fn, "plugins.samplers", f"plugins.samplers:{attr}"))

    # Engine dispatch: every class whose instances the drain loop fires.
    for mod in list(sys.modules.values()):
        if mod is None or not getattr(mod, "__name__", "").startswith("repro."):
            continue
        for obj in list(vars(mod).values()):
            if (inspect.isclass(obj) and obj.__module__ == mod.__name__
                    and inspect.isfunction(vars(obj).get("_fire"))):
                obj._fire = tracer.wrap_dispatch(
                    vars(obj)["_fire"], layer_of_module(mod.__name__))
