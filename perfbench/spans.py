"""Layer-boundary timing spans for the traced benchmark run.

The benchmark's own wrappers, installed around the simulator's public
seams and removed afterwards; nothing under ``src/repro`` is edited.

* Every callback handed to ``Simulator.call_at``/``call_after`` and
  every thread body handed to ``Machine.spawn`` runs inside a span
  attributed to the layer of the module that defines it.
* ``Machine.run`` is a ``sim`` span (the event loop itself), and the
  named public entry points below are spans of their own layer.
* ``builtins.__import__`` is a ``runtime`` span: an import statement
  executed while the model runs (a function-local import) is the one
  piece of host time outside ``src/repro`` the spans can isolate.  Other
  builtin and stdlib time counts toward the layer that called it.

Each span knows its parent (the enclosing span on the stack); its self
time is its duration minus the time covered by its child spans.  Spans
are aggregated as they close -- self time per layer, calls per entry
point, fires per callback, and (parent, child) layer edges -- so memory
stays bounded however long the run.
"""

from __future__ import annotations

import builtins
from collections import Counter
from time import perf_counter_ns
from typing import Callable, Dict, List, Tuple

#: host self-time layers, in report order
LAYERS = (
    "sim", "kernel.scheduler", "kernel.sleep", "kernel.hrtimer",
    "kernel.cpu", "nic", "core", "apps", "dpdk", "xdp", "traffic",
    "harness", "runtime",
)

_KERNEL_OWN = ("scheduler", "sleep", "hrtimer")
_TOP_LEVEL = ("sim", "nic", "core", "apps", "dpdk", "xdp", "traffic")


def layer_of(module: str) -> str:
    """Map a defining module to its layer.

    ``repro.kernel.{scheduler,sleep,hrtimer}`` are layers of their own;
    the rest of the kernel model (cores, power, idle states, the machine
    and thread plumbing) is ``kernel.cpu``.  Any other ``repro`` module
    outside the modelled layers is deployment glue (``harness``), and
    code outside ``repro`` is ``runtime``.
    """
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return "runtime"
    if parts[1] == "kernel":
        sub = parts[2] if len(parts) > 2 else ""
        return "kernel." + (sub if sub in _KERNEL_OWN else "cpu")
    return parts[1] if parts[1] in _TOP_LEVEL else "harness"


class SpanTracer:
    """Install, aggregate and remove the benchmark's timing spans."""

    def __init__(self) -> None:
        #: layer -> self time (ns)
        self.self_ns: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        #: named entry point -> calls
        self.calls: Counter = Counter()
        #: callback qualname -> times it fired
        self.fires: Counter = Counter()
        #: (parent layer, child layer) -> spans
        self.edges: Counter = Counter()
        #: entry point -> outcomes worth counting (empty bursts, busy tries)
        self.outcomes: Counter = Counter()
        # one frame per open span: [child time covered (ns), layer]
        self._stack: List[list] = [[0, "root"]]
        self._patches: List[Tuple[object, str, object]] = []
        self._layer_cache: Dict[str, str] = {}

    # ---------------------------------------------------------------- #
    # span primitives
    # ---------------------------------------------------------------- #

    def layer_for(self, fn) -> str:
        module = getattr(fn, "__module__", None) or "builtins"
        layer = self._layer_cache.get(module)
        if layer is None:
            layer = self._layer_cache[module] = layer_of(module)
        return layer

    def timed(self, layer: str, fn: Callable, name: str = "",
              outcome: Callable = None) -> Callable:
        """``fn`` wrapped in a span of ``layer``; counts calls to ``name``
        and, when ``outcome(result)`` is true, one ``name`` outcome."""
        stack = self._stack
        self_ns = self.self_ns
        edges = self.edges
        calls = self.calls
        outcomes = self.outcomes

        def span(*args, **kwargs):
            if name:
                calls[name] += 1
            parent = stack[-1]
            edges[parent[1], layer] += 1
            frame = [0, layer]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter_ns() - t0
                stack.pop()
                self_ns[layer] += dur - frame[0]
                parent[0] += dur
            if outcome is not None and outcome(result):
                outcomes[name] += 1
            return result

        return span

    def timed_gen(self, layer: str, gen):
        """Drive generator ``gen`` with each resume inside a span."""
        stack = self._stack
        self_ns = self.self_ns
        edges = self.edges
        value = None
        while True:
            parent = stack[-1]
            edges[parent[1], layer] += 1
            frame = [0, layer]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                item = gen.send(value)
            except StopIteration as stop:
                return stop.value
            finally:
                dur = perf_counter_ns() - t0
                stack.pop()
                self_ns[layer] += dur - frame[0]
                parent[0] += dur
            try:
                value = yield item
            except GeneratorExit:
                gen.close()
                raise

    # ---------------------------------------------------------------- #
    # installation
    # ---------------------------------------------------------------- #

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _wrap_method(self, base: type, attr: str, outcome=None) -> None:
        """Span ``attr`` on ``base`` and on every loaded subclass that
        overrides it, each in the layer of its defining module; calls
        count under ``Base.attr``."""
        name = f"{base.__name__}.{attr}"
        todo = [base]
        while todo:
            cls = todo.pop()
            todo.extend(cls.__subclasses__())
            if attr in cls.__dict__:
                orig = cls.__dict__[attr]
                self._patch(cls, attr, self.timed(
                    layer_of(cls.__module__), orig, name, outcome))

    def install(self) -> None:
        """Install every wrapper; the worker does so once per process."""
        from repro.core.trylock import TryLock
        from repro.core.tuning import AdaptiveTuner
        from repro.dpdk.app import PacketApp
        from repro.kernel.hrtimer import HrTimerQueue
        from repro.kernel.machine import Machine
        from repro.kernel.scheduler import CfsScheduler
        from repro.kernel.sleep import SleepService
        from repro.nic.rxqueue import RxQueue
        from repro.sim.core import Handle, Simulator
        from repro.traffic.replay import TraceReplayProcess

        # load every PacketApp subclass (l3fwd is imported lazily by the
        # runners) so _wrap_method sees each override of handle()
        import repro.apps  # noqa: F401

        tracer = self
        fires = self.fires

        def callback(fn):
            cb_name = getattr(fn, "__qualname__", type(fn).__name__)
            inner = tracer.timed(tracer.layer_for(fn), fn)

            def fire(*args):
                fires[cb_name] += 1
                return inner(*args)

            return fire

        call_at = Simulator.call_at
        call_after = Simulator.call_after

        def traced_call_at(sim, when, fn, *args):
            return call_at(sim, when, callback(fn), *args)

        def traced_call_after(sim, delay, fn, *args):
            return call_after(sim, delay, callback(fn), *args)

        self._patch(Simulator, "call_at", traced_call_at)
        self._patch(Simulator, "call_after", traced_call_after)

        spawn = Machine.spawn

        def traced_spawn(machine, body, name, nice=0, core=0):
            self.calls["Machine.spawn"] += 1
            if callable(body):
                layer = tracer.layer_for(body)
                wrapped = (lambda kt: tracer.timed_gen(layer, body(kt)))
            else:
                layer = layer_of(body.gi_frame.f_globals["__name__"])
                wrapped = tracer.timed_gen(layer, body)
            return spawn(machine, wrapped, name, nice=nice, core=core)

        self._patch(Machine, "spawn", traced_spawn)
        self._patch(Machine, "run", self.timed("sim", Machine.run))

        sleep_call = SleepService.call

        def traced_sleep(service, kt, duration_ns):
            self.calls["SleepService.call"] += 1
            return tracer.timed_gen("kernel.sleep",
                                    sleep_call(service, kt, duration_ns))

        self._patch(SleepService, "call", traced_sleep)

        self._wrap_method(RxQueue, "rx_burst", outcome=lambda r: r[0] == 0)
        self._wrap_method(PacketApp, "handle")
        self._wrap_method(HrTimerQueue, "arm")
        self._wrap_method(CfsScheduler, "wake")
        self._wrap_method(Handle, "cancel")
        self._wrap_method(AdaptiveTuner, "observe")
        self._wrap_method(TryLock, "try_acquire", outcome=lambda ok: not ok)
        for attr in ("advance", "next_arrival_after", "time_for_count"):
            self._wrap_method(TraceReplayProcess, attr)
        self._patch(builtins, "__import__",
                    self.timed("runtime", builtins.__import__))

    def remove(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # ---------------------------------------------------------------- #

    def counts(self) -> Dict[str, int]:
        """Every deterministic count (entry-point calls, callback fires,
        outcomes), flattened under stable names."""
        out = {f"call:{k}": v for k, v in self.calls.items()}
        out.update({f"fire:{k}": v for k, v in self.fires.items()})
        out.update({f"outcome:{k}": v for k, v in self.outcomes.items()})
        return dict(sorted(out.items()))
