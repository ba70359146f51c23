"""Per-layer timing wrappers installed from outside the program.

The traced run measures each layer by wrapping the public functions the
layer's callers use, at every name they are looked up by: a function
bound into another module with ``from x import f`` is patched in that
module too, and a method is patched on its class.  Nothing under
``src/`` changes.  :meth:`Tracer.uninstall` puts every original back,
so the untraced code path is exactly the program's own.

Spans are kept in memory.  Each span records its layer, the wrapped
name, the thread, its start and end, its self time (duration minus the
traced calls it made on the same thread) and whether an enclosing span
on the same thread belongs to the same layer (then its time already
counts in the outer span).  Worker processes forked after installation
inherit the wrappers; a wrapper called from another process than the
tracer's calls straight through and records nothing.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    """One traced call."""

    layer: str
    name: str
    thread: int
    start: float
    end: float
    #: duration minus the traced calls made below it on this thread
    self_seconds: float
    #: no enclosing span on this thread belongs to the same layer
    outermost: bool
    #: name of the outermost enclosing span on this thread (own name
    #: for a root span)
    root: str
    #: values a hook extracted from the call (bytes, round figures)
    extra: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


#: Hook run after a call returns: ``hook(args, result) -> dict``.
Hook = Callable[[tuple, object], dict]


class Tracer:
    """Installs timing wrappers and collects their spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self._pid = os.getpid()
        self._local = threading.local()
        #: (owner, attribute, original, owner-had-own-attribute)
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- recording --------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, name: str, function: Callable,
             hook: Hook | None = None) -> Callable:
        """A traced stand-in for ``function``."""
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if os.getpid() != tracer._pid:
                return function(*args, **kwargs)
            stack = tracer._stack()
            outermost = all(frame[0] != layer for frame in stack)
            root = stack[0][1] if stack else name
            frame = [layer, name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][2] += end - start
            extra = hook(args, result) if hook is not None else {}
            tracer.spans.append(Span(
                layer, name, threading.get_ident(), start, end,
                end - start - frame[2], outermost, root, extra))
            return result

        return traced

    # -- installation -----------------------------------------------------

    def patch_function(self, layer: str, module_name: str, attr: str,
                       hook: Hook | None = None) -> None:
        """Wrap a module-level function wherever it is bound.

        Every loaded ``repro`` module whose namespace holds the same
        function object gets the wrapper, so callers that imported the
        name directly see it as well.
        """
        original = getattr(sys.modules[module_name], attr)
        wrapper = self.wrap(layer, attr, original, hook)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro"
                                      or name.startswith("repro.")):
                continue
            for binding, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, binding, original, True))
                    setattr(module, binding, wrapper)

    def patch_method(self, layer: str, cls: type, attr: str,
                     hook: Hook | None = None) -> None:
        """Wrap a method on ``cls`` (looked up through instances)."""
        owned = attr in vars(cls)
        original = getattr(cls, attr)
        self._patches.append((cls, attr, original, owned))
        setattr(cls, attr, self.wrap(layer, f"{cls.__name__}.{attr}",
                                     original, hook))

    def uninstall(self) -> None:
        """Restore every patched binding (last patched, first restored)."""
        while self._patches:
            owner, attr, original, owned = self._patches.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


# ---------------------------------------------------------------------------
# The program's layers
# ---------------------------------------------------------------------------

def _round_figures(args: tuple, responses) -> dict:
    """Site compute per round, as the responses report it."""
    compute = [response.compute_seconds for response in responses.values()]
    return {"compute_max": max(compute, default=0.0),
            "compute_sum": sum(compute)}


def _decoded_bytes(args: tuple, relation) -> dict:
    return {"bytes": memoryview(args[0]).nbytes}


def install_layers(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the benchmark names."""
    from repro.cache.manager import SubAggregateCache
    from repro.distributed.coordinator import Coordinator
    from repro.distributed.transport.base import Transport
    from repro.distributed.transport.process import MultiprocessTransport
    from repro.service.plan_cache import PlanCache
    from repro.service.server import QueryService
    from repro.sql.compiler import CompiledQuery
    from repro.warehouse import Warehouse
    import repro.cube  # noqa: F401 - binds the cube names to patch

    tracer.patch_function("sql", "repro.sql.parser", "parse")
    tracer.patch_function("sql", "repro.sql.compiler", "compile_query")
    tracer.patch_method("optimizer", Warehouse, "pick_flags")
    tracer.patch_function("optimizer", "repro.optimizer.planner",
                          "build_plan")
    tracer.patch_method("transport", Transport, "run_round",
                        _round_figures)
    tracer.patch_method("transport", MultiprocessTransport, "run_round",
                        _round_figures)
    tracer.patch_function("codec", "repro.relational.io", "encode_relation")
    tracer.patch_function("codec", "repro.relational.io", "decode_relation",
                          _decoded_bytes)
    tracer.patch_method("coordinator", Coordinator, "synchronize_base")
    tracer.patch_method("coordinator", Coordinator, "synchronize_step")
    tracer.patch_method("coordinator", CompiledQuery, "post_process")
    tracer.patch_method("cache", SubAggregateCache, "apply_delta")
    tracer.patch_method("service", QueryService, "append")
    tracer.patch_method("service", PlanCache, "lookup")
    tracer.patch_function("cube", "repro.cube.executor", "execute_lattice")
    tracer.patch_function("cube", "repro.cube.rollup", "rollup_states")
