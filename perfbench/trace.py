"""In-memory span trace recorded from outside the program.

Nothing in ``src/`` knows about this module.
:func:`instrument_classes` and :func:`instrument_simulation` wrap
public methods at each layer boundary of ``repro`` — class
attributes for objects created on demand (models, layers, optimizers,
clients), instance attributes for the one-per-run objects (defense,
executor, server, fleet, registry, simulation) — and every wrapper
records a :class:`Span` into a :class:`Tracer`.

Spans are kept in memory and reduced when the run ends: a layer's
self time is its span's duration minus the part of that interval its
child spans cover.  Only the parent process's main thread records;
calls that run in forked executor workers pass straight through, so
worker-side time is visible only through the program's own
``CostReport``.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from collections import Counter, defaultdict
from collections.abc import Callable, Iterable
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Span:
    """One timed call: ``parent`` is the enclosing span's id or -1."""

    id: int
    name: str
    start: float
    end: float
    parent: int
    round: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans for one traced cell of a benchmark run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.round = -1
        self._stack: list[tuple[int, str, float]] = []
        self._next_id = 0
        self._pid = os.getpid()
        self._thread = threading.get_ident()
        self._layer_index: dict[int, int] = {}

    def recording(self) -> bool:
        return (os.getpid() == self._pid
                and threading.get_ident() == self._thread)

    def innermost(self) -> str | None:
        return self._stack[-1][1] if self._stack else None

    def open(self, name: str) -> None:
        self._stack.append((self._next_id, name, time.perf_counter()))
        self._next_id += 1

    def close(self) -> None:
        end = time.perf_counter()
        span_id, name, start = self._stack.pop()
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append(Span(span_id, name, start, end, parent,
                               self.round))

    @contextmanager
    def span(self, name: str):
        self.open(name)
        try:
            yield
        finally:
            self.close()

    def bind_layers(self, model) -> None:
        """Remember which object is top-level layer ``i`` of the model
        whose forward/backward pass is starting."""
        self._layer_index = {id(layer): i
                             for i, layer in enumerate(model.layers)}

    def layer_name(self, layer, phase: str) -> str | None:
        index = self._layer_index.get(id(layer))
        if index is None:  # a sub-layer inside a composite block
            return None
        return f"nn.layer{index}.{type(layer).__name__}.{phase}"

    def write_jsonl(self, path: str, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps(header) + "\n")
            for span in self.spans:
                out.write(json.dumps(asdict(span)) + "\n")


class NullTracer:
    """The untraced stand-in: phase spans cost one no-op call."""

    round = -1

    @contextmanager
    def span(self, name: str):
        yield


def _wrapped(tracer: Tracer, fn: Callable,
             name_of: Callable[[tuple], str | None]) -> Callable:
    """``fn`` recording a span named ``name_of(args)`` per call.

    A call whose name is ``None``, that runs outside the recording
    thread, or that re-enters a span of the same name (``super()``
    chains) passes straight through.
    """
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.recording():
            return fn(*args, **kwargs)
        name = name_of(args)
        if name is None or tracer.innermost() == name:
            return fn(*args, **kwargs)
        tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close()
    return wrapper


def _wrapped_stream(tracer: Tracer, fn: Callable, name: str) -> Callable:
    """``fn`` returning an iterator: time each ``next`` as ``name``.

    This is how long the parent blocks on the executor per result;
    with a serial executor the client trains inside that ``next``.
    """
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = iter(fn(*args, **kwargs))
        try:
            while True:
                tracer.open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.close()
                yield item
        finally:
            close = getattr(inner, "close", None)
            if close is not None:
                close()
    return wrapper


def _subclasses(cls: type) -> list[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return list(dict.fromkeys(found))


class Instrumentation:
    """Installed wrappers, removable again with :meth:`remove`."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._patched: list[tuple[object, str, object, bool]] = []

    def patch(self, owner: object, attr: str,
              make: Callable[[Callable], Callable]) -> None:
        had_own = attr in vars(owner)
        original = getattr(owner, attr)
        self._patched.append((owner, attr, vars(owner).get(attr),
                              had_own))
        setattr(owner, attr, make(original))

    def span_method(self, owner: object, attr: str, name: str) -> None:
        self.patch(owner, attr,
                   lambda fn: _wrapped(self.tracer, fn, lambda _: name))

    def remove(self) -> None:
        for owner, attr, original, had_own in reversed(self._patched):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patched.clear()


def instrument_classes(tracer: Tracer) -> Instrumentation:
    """Wrap the per-call layer boundaries: ``repro.nn`` model, layer
    and optimizer methods and ``FLClient.train_round``."""
    import repro.models  # noqa: F401  (registers composite layers)
    import repro.privacy.defenses.dpsgd  # noqa: F401  (DPSGD optimizer)
    from repro.fl.client import FLClient
    from repro.nn.layers import Layer
    from repro.nn.model import Model
    from repro.nn.optim import Optimizer

    inst = Instrumentation(tracer)

    def model_pass(phase: str):
        def name_of(args):
            tracer.bind_layers(args[0])
            return f"nn.{phase}"
        return lambda fn: _wrapped(tracer, fn, name_of)

    inst.patch(Model, "forward", model_pass("forward"))
    inst.patch(Model, "backward", model_pass("backward"))
    for cls in _subclasses(Layer):
        for phase in ("forward", "backward"):
            if phase in vars(cls):
                inst.patch(cls, phase, lambda fn, phase=phase: _wrapped(
                    tracer, fn,
                    lambda args: tracer.layer_name(args[0], phase)))
    for cls in _subclasses(Optimizer):
        if "step" in vars(cls):
            inst.span_method(cls, "step", "optim.step")
    inst.span_method(FLClient, "train_round", "client.train_round")
    return inst


def instrument_simulation(inst: Instrumentation, sim) -> None:
    """Wrap one simulation's run-scoped objects (instance attributes,
    so nothing outlives the simulation)."""
    defense = sim.defense
    inst.span_method(defense, "on_round_start", "defense.round_start")
    inst.span_method(defense, "on_receive_global", "defense.receive")
    inst.span_method(defense, "on_send_update", "defense.send")
    inst.span_method(sim.fleet, "materialize", "virtual.materialize")
    inst.span_method(sim.registry, "put", "virtual.registry_put")
    inst.span_method(sim.server, "select_clients", "server.select")
    inst.span_method(sim.server, "aggregate", "server.aggregate")
    inst.span_method(sim, "global_accuracy", "eval.global")
    inst.span_method(sim, "mean_client_accuracy", "eval.clients")
    inst.patch(sim.executor, "iter_round",
               lambda fn: _wrapped_stream(inst.tracer, fn,
                                          "executor.wait"))


# ----------------------------------------------------------------------
# reductions
# ----------------------------------------------------------------------

def _covered(intervals: Iterable[tuple[float, float]], lo: float,
             hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: Iterable[Span]) -> dict[str, float]:
    """Per span name: summed duration minus child-covered time."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    out: dict[str, float] = defaultdict(float)
    for span in spans:
        out[span.name] += span.duration - _covered(
            children.get(span.id, ()), span.start, span.end)
    return dict(out)


def total_times(spans: Iterable[Span]) -> dict[str, float]:
    """Per span name: summed (inclusive) duration."""
    out: dict[str, float] = defaultdict(float)
    for span in spans:
        out[span.name] += span.duration
    return dict(out)


def span_counts(spans: Iterable[Span]) -> dict[str, int]:
    return dict(Counter(span.name for span in spans))


def coverage(spans: Iterable[Span]) -> float:
    """Top-level spans' summed duration over the wall they span."""
    top = [span for span in spans if span.parent < 0]
    if not top:
        return 0.0
    wall = max(s.end for s in top) - min(s.start for s in top)
    return sum(s.duration for s in top) / wall if wall > 0 else 0.0
