"""The three workloads: set-up, one lap of ops, and the answer checks.

Each workload is driven by one closed-loop caller (this thread): the
next op is sent only after the previous answer came back, as a compiler
pass or a JIT waits for every answer.  Only the call into the program is
timed.  Building requests, copying or editing IR, and checking answers
happen between the timed regions.

Why these three (NOTES.md has the longer version):

* ``passes`` loads precompute, the query kernel, regalloc and
  ssadestruct; the codec and the service cache do almost nothing.
* ``serve_read`` loads the codec, typed dispatch, the sharded front door
  and the query kernel; precompute runs only in set-up.
* ``serve_write`` loads the same path as ``serve_read`` with writes
  beside the reads: LRU misses, rebuilds, the incremental patcher,
  invalidation and WAL appends.

None of them goes through ``repro.concurrent.server`` or
``repro.concurrent.procs``: with one caller on a two-core host their
thread and process hand-offs time the scheduler, not the program.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from types import SimpleNamespace

from inputs import PASSES_REGISTERS, do_edit, undo_edit
from repro.api import (
    AllocateRequest,
    BatchLiveness,
    CompilerClient,
    CompileSourceRequest,
    LivenessQuery,
    LiveSetRequest,
    NotifyKind,
    NotifyRequest,
    QueryKind,
)
from repro.api.codec import CODEC_BIN2, BytesClient
from repro.concurrent import DEFAULT_SHARDS, ShardedClient
from repro.core.incremental import CfgDelta
from repro.ir.parser import parse_function
from repro.ir.printer import print_function
from repro.obs import Observability
from repro.persist import Durability
from repro.regalloc.verify import verify_allocation
from repro.ssadestruct.verify import verify_destructed

#: The checkout's root: the WAL directory lives there, because the
#: benchmark reads and writes nothing outside its checkout.
CHECKOUT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _kind(want_in: bool) -> QueryKind:
    return QueryKind.LIVE_IN if want_in else QueryKind.LIVE_OUT


def _instructions(function) -> int:
    return sum(len(block.instructions) for block in function)


class Recorder:
    """Times calls into the program, counts attempts and failures.

    With a tracer, each call runs under the tracer's root span, whose
    duration is the call's time, so the traced wall time is the sum of
    the same per-call times an untraced run records.  With a
    ``HostSpeed``, the host's speed is sampled after each call, outside
    the timed region, and ``adjusted()`` reports the calls at the
    reference host's speed.
    """

    def __init__(self, clock, tracer=None, host=None) -> None:
        self.clock = clock
        self.tracer = tracer
        self.host = host
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self.failed = 0
        self.failures: list[str] = []

    def call(self, function, *args):
        clock = self.clock
        start = clock()
        if self.tracer is not None:
            result, elapsed = self.tracer.root("op", function, *args)
        else:
            result = function(*args)
            elapsed = clock() - start
        self.starts.append(start)
        self.seconds.append(elapsed)
        if self.host is not None:
            self.host.sample()
        return result

    def check(self, ok: bool, what) -> None:
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(str(what))

    def adjusted(self) -> list[float]:
        """Call times at the reference host's speed (needs a host)."""
        self.host.sample(force=True)
        factor = self.host.factor
        return [
            seconds * factor(start) for start, seconds in zip(self.starts, self.seconds)
        ]

    @property
    def attempted(self) -> int:
        return len(self.seconds)

    @property
    def timed(self) -> float:
        return sum(self.seconds)


def _compile_and_warm(client, sources, recorder) -> None:
    """Set-up common to all workloads: compile every function, warm it.

    Compiles go through ``CompileSourceRequest``; the warm-up asks each
    function for its entry block's live-in set, which builds the
    checker's precomputation, def-use chains and every variable's plan.
    """
    for name, source in sources:
        response = recorder.call(
            client.dispatch, CompileSourceRequest(source=source, module_name=name)
        )
        if not response.ok:
            raise RuntimeError(f"set-up compile of {name} failed: {response.error}")
    for name, _source in sources:
        function = client.service.function(name)
        request = LiveSetRequest(function=client.handle(name), block=function.entry.name)
        response = recorder.call(client.dispatch, request)
        if not response.ok:
            raise RuntimeError(f"set-up warm-up of {name} failed: {response.error}")


class Passes:
    """An ahead-of-time compiler: allocate + destruct each function once a lap."""

    name = "passes"

    def __init__(self, inputs) -> None:
        self.inputs = inputs
        self.client = None
        self.templates: list[str] = []
        #: Lap-1 output per corpus index: (printed IR, allocation summary).
        self.reference: dict[int, tuple[str, object]] = {}
        self.counts = {"ops": 0, "spilled": 0, "out_insts": 0}
        self.lap_out_insts = 0

    def setup(self, recorder: Recorder) -> None:
        sources = self.inputs.sources
        self.client = recorder.call(lambda: CompilerClient(capacity=len(sources)))
        _compile_and_warm(self.client, sources, recorder)

    def after_setup(self) -> None:
        self.templates = [
            print_function(self.client.service.function(name))
            for name, _source in self.inputs.sources
        ]

    def lap(self, recorder: Recorder) -> None:
        out_insts = 0
        for index in self.inputs.passes_order:
            # A fresh copy in a fresh client, outside the timed region, so
            # every lap repeats exactly the same work.
            function = parse_function(self.templates[index])
            client = CompilerClient([function], capacity=1)
            request = AllocateRequest(
                function=client.handle(function.name),
                num_registers=PASSES_REGISTERS,
                destruct=True,
            )
            response = recorder.call(client.dispatch, request)
            self.counts["ops"] += 1
            ok = self._check(index, function, response, recorder)
            if ok:
                self.counts["spilled"] += len(response.allocation.spilled)
                out_insts += _instructions(function)
        self.counts["out_insts"] += out_insts
        self.lap_out_insts = out_insts

    def _check(self, index, function, response, recorder) -> bool:
        if not response.ok:
            recorder.check(False, f"{function.name}: {response.error}")
            return False
        text = print_function(function)
        reference = self.reference.get(index)
        if reference is not None:
            # Allocation is deterministic: later laps must reproduce the
            # verified first-lap output exactly.
            ok = reference == (text, response.allocation)
            recorder.check(ok, f"{function.name}: output differs from lap 1")
            return ok
        try:
            verify_destructed(function)
        except ValueError as exc:
            recorder.check(False, f"{function.name}: {exc}")
            return False
        summary = response.allocation
        variables = {var.name: var for var in function.variables()}
        allocation = SimpleNamespace(
            register_of={
                variables[name]: register
                for name, register in summary.registers.items()
                if name in variables
            },
            spill_slot_of={
                variables[name]: slot
                for name, slot in summary.spill_slots.items()
                if name in variables
            },
        )
        result = verify_allocation(function, allocation)
        recorder.check(result.ok, f"{function.name}: {result.errors[:2]}")
        if result.ok:
            self.reference[index] = (text, summary)
        return result.ok

    def out_insts(self) -> int:
        return self.lap_out_insts

    def service_stats(self) -> dict:
        return {"hits": 0, "misses": 0, "evictions": 0}

    def wire_bytes(self) -> int:
        return 0

    def wal_bytes(self) -> int:
        return 0

    def close(self) -> None:
        self.client = None


class _Serving:
    """Shared machinery of the two byte-path workloads."""

    ops_attr = ""

    def __init__(self, inputs) -> None:
        self.inputs = inputs
        self.client = None
        self.durability = None
        self.state_dir = None
        self.bytes_client = None
        self.handles: dict = {}
        #: Undo tokens of the edits currently applied, by function name.
        self._tokens: dict = {}
        self.counts = {"ops": 0, "misses": 0, "evictions": 0,
                       "patched": 0, "patch_fallbacks": 0}

    def after_setup(self) -> None:
        # The hello round trip negotiates bin2 once, outside timing.
        self.bytes_client = BytesClient(self.client.bytes_session().dispatch_frame)
        if self.bytes_client.codec != CODEC_BIN2:
            raise RuntimeError(f"expected bin2, negotiated {self.bytes_client.codec}")
        self.handles = {
            name: self.client.handle(name) for name, _source in self.inputs.sources
        }

    def lap(self, recorder: Recorder) -> None:
        before = self.client.service.stats.as_dict()
        dispatch = self.bytes_client.dispatch
        handles = self.handles
        for op in getattr(self.inputs, self.ops_attr):
            kind = op[0]
            self.counts["ops"] += 1
            if kind == "query":
                _, name, want_in, var, block, expected = op
                request = LivenessQuery(handles[name], _kind(want_in), var, block)
                response = recorder.call(dispatch, request)
                recorder.check(response.ok and response.value is expected, op)
            elif kind == "batch":
                _, items, expected = op
                request = BatchLiveness(
                    tuple(
                        LivenessQuery(handles[name], _kind(want_in), var, block)
                        for name, want_in, var, block in items
                    )
                )
                response = recorder.call(dispatch, request)
                recorder.check(response.ok and response.values == expected, op)
            elif kind == "liveset":
                _, name, want_in, block, expected = op
                request = LiveSetRequest(handles[name], block, _kind(want_in))
                response = recorder.call(dispatch, request)
                recorder.check(response.ok and response.variables == expected, op)
            else:
                self._edit(op, recorder, dispatch)
        after = self.client.service.stats.as_dict()
        self.counts["misses"] += after["misses"] - before["misses"]
        self.counts["evictions"] += after["evictions"] - before["evictions"]
        self.counts["patched"] += (
            after["cfg_incremental_applied"] - before["cfg_incremental_applied"]
        )
        self.counts["patch_fallbacks"] += (
            after["cfg_incremental_fallbacks"] - before["cfg_incremental_fallbacks"]
        )

    def _edit(self, op, recorder, dispatch) -> None:
        _, name, edit, forward = op
        function = self.client.service.function(name)
        if forward:
            self._tokens[name] = do_edit(function, edit)
        else:
            undo_edit(function, edit, self._tokens.pop(name))
        kind, source, target = edit
        if kind == "use":
            request = NotifyRequest(self.handles[name], NotifyKind.INSTRUCTIONS)
        elif kind == "branch":
            delta = (CfgDelta.edge_added if forward else CfgDelta.edge_removed)(
                source, target
            )
            request = NotifyRequest(self.handles[name], NotifyKind.CFG, delta)
        else:
            request = NotifyRequest(self.handles[name], NotifyKind.CFG)
        response = recorder.call(dispatch, request)
        revision = self.handles[name].revision + 1
        ok = response.ok and response.function.revision == revision
        recorder.check(ok, op)
        if ok:
            self.handles[name] = response.function

    def out_insts(self) -> int:
        service = self.client.service
        return sum(_instructions(service.function(name)) for name in service.functions())

    def service_stats(self) -> dict:
        return self.client.service.stats.as_dict()

    def wire_bytes(self) -> int:
        counters = self.client.obs.snapshot()["counters"]
        return sum(
            value
            for key, value in counters.items()
            if key.startswith(("wire.bytes_in{", "wire.bytes_out{"))
        )

    def wal_bytes(self) -> int:
        return 0

    def close(self) -> None:
        if self.durability is not None:
            self.durability.close()
            self.durability = None
        if self.state_dir is not None:
            shutil.rmtree(self.state_dir, ignore_errors=True)
            self.state_dir = None
        self.client = None


class ServeRead(_Serving):
    """Warm read-only serving over the bin2 byte path."""

    name = "serve_read"
    ops_attr = "read_ops"

    def setup(self, recorder: Recorder) -> None:
        # The budget is split evenly over the shards and names do not
        # split evenly, so give every shard room for the whole module.
        capacity = DEFAULT_SHARDS * len(self.inputs.sources)
        self.client = recorder.call(lambda: ShardedClient(capacity=capacity))
        _compile_and_warm(self.client, self.inputs.sources, recorder)


class ServeWrite(_Serving):
    """A JIT editing and querying through the same byte path, with a WAL."""

    name = "serve_write"
    ops_attr = "write_ops"

    def setup(self, recorder: Recorder) -> None:
        self.state_dir = tempfile.mkdtemp(prefix=".perfbench-wal-", dir=CHECKOUT)
        self.wal_obs = Observability(tracing=False)
        # fsync="never": the WAL's encode and write path is measured, the
        # disk's flush latency is not.
        self.durability = recorder.call(
            lambda: Durability(self.state_dir, fsync="never", obs=self.wal_obs)
        )
        self.client = recorder.call(
            lambda: ShardedClient(
                capacity=self.inputs.write_capacity, observer=self.durability.observer
            )
        )
        _compile_and_warm(self.client, self.inputs.sources, recorder)
        recorder.call(self.durability.attach, self.client)

    def wal_bytes(self) -> int:
        return int(self.wal_obs.snapshot()["counters"].get("wal.append_bytes", 0))


WORKLOADS = {cls.name: cls for cls in (Passes, ServeRead, ServeWrite)}
