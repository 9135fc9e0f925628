"""Layer tracing from outside the program.

``LayerTracer.install()`` replaces the public entry points of each layer
with timing wrappers for the duration of a traced run and ``uninstall()``
puts the originals back; the program itself carries no benchmark code.
Every wrapper records one span: calls, and self time (the span's
duration minus the time of the spans it encloses).  A call into a layer
from inside the same layer is not a new span, so recursion and the
layer's own helpers count once.

Every timed call of an op or a set-up runs under a root span, so within
a phase the self times of the layers plus the roots' own self time add
up to the phase's timed wall time.  A root's own self time is time that
no named layer claims: the wrappers' overhead, or a layer whose entry
point is missing from ``_entry_points``.  ``named_share`` is the rest,
and the benchmark marks a traced run incorrect when it falls too low.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

#: Root span names: the harness's own share of each timed region.
ROOTS = ("setup", "op")


def _entry_points():
    """``(layer, owner, attribute)`` for every patched entry point."""
    import repro.frontend.compile as frontend
    import repro.regalloc.allocator as allocator
    import repro.ssadestruct.pipeline as pipeline
    from repro.api.client import CompilerClient
    from repro.api.codec import BytesClient, BytesServerSession
    from repro.concurrent.client import ShardedClient
    from repro.core.batch import BatchQueryEngine
    from repro.core.live_checker import FastLivenessChecker
    from repro.core.precompute import LivenessPrecomputation
    from repro.persist.durability import Durability
    from repro.persist.wal import WriteAheadLog
    from repro.service.service import LivenessService

    points = [
        ("frontend.compile", frontend, "compile_source"),
        ("core.prepare", LivenessPrecomputation, "__init__"),
        ("core.incremental", FastLivenessChecker, "notify_cfg_changed"),
        ("client.construct", CompilerClient, "__init__"),
        ("client.construct", ShardedClient, "__init__"),
        ("client.dispatch", CompilerClient, "dispatch"),
        ("client.dispatch", CompilerClient, "fast_liveness"),
        ("sharded.dispatch", ShardedClient, "dispatch"),
        # The bin2 fast lane enters the sharded layer here, not through
        # dispatch (the session holds this bound method as its fast_query).
        ("sharded.dispatch", ShardedClient, "_fast_query_raw"),
        ("codec.server", BytesServerSession, "dispatch_frame"),
        ("codec.client", BytesClient, "dispatch"),
        ("regalloc.allocate", allocator, "allocate"),
        ("ssadestruct.destruct", pipeline, "destruct"),
        ("persist.wal_append", WriteAheadLog, "append"),
        ("persist.attach", Durability, "__init__"),
        ("persist.attach", Durability, "attach"),
        ("persist.snapshot", Durability, "snapshot"),
    ]
    for name in ("is_live_in", "is_live_out", "live_in_set", "live_out_set",
                 "query_batch", "live_sets"):
        points.append(("core.query", FastLivenessChecker, name))
    for name in ("is_live_in", "is_live_out", "live_in_blocks", "live_out_blocks",
                 "query_many", "live_maps", "live_in_map"):
        points.append(("core.query", BatchQueryEngine, name))
    for cls in (LivenessService, *LivenessService.__subclasses__()):
        if "checker" in vars(cls):
            points.append(("service.checker", cls, "checker"))
    return points


class LayerTracer:
    """Per-layer calls and self time, split by phase (setup or ops)."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.phase = "setup"
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        #: CFG notifications by ``UpdateResult.reason``, and how many of
        #: them carried a ``CfgDelta`` (the base of the applied ratio).
        self.reasons: Counter = Counter()
        self.delta_calls: Counter = Counter()
        #: ``core.prepare`` spans opened inside a ``regalloc.allocate`` span.
        self.prepares_in_allocate = 0
        #: Summed ``DestructReport`` fields of traced destructions.
        self.destruct: Counter = Counter()
        self._stack: list[list] = []
        self._patches: list[tuple] = []

    # -- spans -----------------------------------------------------------
    def _open(self, layer: str) -> list:
        frame = [layer, 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, elapsed: float) -> None:
        self._stack.pop()
        key = (self.phase, frame[0])
        self.calls[key] += 1
        self.self_s[key] += elapsed - frame[1]
        if self._stack:
            self._stack[-1][1] += elapsed

    def root(self, name: str, call, *args):
        """Run ``call(*args)`` as a root span; returns ``(result, seconds)``."""
        frame = self._open(name)
        clock = self.clock
        start = clock()
        try:
            result = call(*args)
        finally:
            elapsed = clock() - start
            self._close(frame, elapsed)
        return result, elapsed

    def _wrap(self, layer: str, original):
        tracer = self
        clock = self.clock

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if stack and stack[-1][0] == layer:
                return original(*args, **kwargs)
            if layer == "core.prepare" and any(
                frame[0] == "regalloc.allocate" for frame in stack
            ):
                tracer.prepares_in_allocate += 1
            frame = tracer._open(layer)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(frame, clock() - start)
            if layer == "core.incremental":
                tracer.reasons[(tracer.phase, result.reason)] += 1
                delta = args[1] if len(args) > 1 else kwargs.get("delta")
                if delta is not None:
                    tracer.delta_calls[tracer.phase] += 1
            elif layer == "ssadestruct.destruct":
                tracer.destruct["pairs_inserted"] += result.pairs_inserted
                tracer.destruct["pairs_coalesced"] += result.pairs_coalesced
                tracer.destruct["interference_tests"] += result.interference_tests
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", layer)
        return wrapper

    # -- patching --------------------------------------------------------
    def install(self) -> None:
        """Wrap every entry point, including names imported elsewhere."""
        for layer, owner, attribute in _entry_points():
            original = vars(owner)[attribute]
            wrapper = self._wrap(layer, original)
            self._patches.append((owner, attribute, original))
            setattr(owner, attribute, wrapper)
            if isinstance(owner, type):
                continue
            # Module-level functions are also bound by ``from m import f
            # [as g]`` in other repro modules; rebind those copies too.
            for module in list(sys.modules.values()):
                if module is owner or not getattr(module, "__name__", "").startswith(
                    "repro"
                ):
                    continue
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, name, original))
                        setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    # -- read-out --------------------------------------------------------
    def layer_self(self, phase: str, layer: str) -> float:
        return self.self_s.get((phase, layer), 0.0)

    def layer_calls(self, phase: str, layer: str) -> int:
        return self.calls.get((phase, layer), 0)

    def wall(self, phase: str) -> float:
        """Summed duration of the phase's root spans (all self times)."""
        return sum(
            self.self_s[key] for key in self.self_s if key[0] == phase
        )

    def named_share(self, phase: str) -> float:
        """Share of the phase's wall time spent inside named layers."""
        wall = self.wall(phase)
        named = sum(
            seconds
            for (key_phase, layer), seconds in self.self_s.items()
            if key_phase == phase and layer not in ROOTS
        )
        return named / wall if wall else 0.0
