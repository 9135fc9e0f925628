"""The compiler-server façade: one typed door in front of everything.

:class:`CompilerClient` wraps the whole serving stack —
front-end compilation, the multi-function
:class:`~repro.service.LivenessService`, out-of-SSA translation and
register allocation — behind a single ``dispatch(request) -> response``
entry point speaking the protocol of :mod:`repro.api.protocol`:

* every function is addressed through a revisioned
  :class:`~repro.api.handles.FunctionHandle`; a request pinned to an old
  revision is answered with a ``STALE_HANDLE`` error, never a
  silently-stale liveness fact;
* every failure crosses the boundary as a structured
  :class:`~repro.api.errors.ApiError` inside the matching response —
  ``dispatch`` does not raise;
* :meth:`CompilerClient.dispatch_json` drives the same dispatcher from
  (and back to) wire-format JSON envelopes, so a service can be fronted
  by any transport or replayed from a request log.

The batch path is deliberately thin: a :class:`BatchLiveness` stream is
answered through exactly the same per-checker batch engine
:meth:`LivenessService.submit` uses, with per-function variable-name
resolution cached per revision — ``bench/table_service.py --smoke``
guards that this layer stays within 10% of calling ``submit`` directly.
"""

from __future__ import annotations

import json
from typing import Iterable

from repro.api.errors import ApiError, ErrorCode, ProtocolError
from repro.api.handles import FunctionHandle
from repro.api.protocol import (
    MESSAGES,
    RESPONSE_FOR,
    AllocateRequest,
    AllocateResponse,
    AllocationSummary,
    BatchLiveness,
    BatchLivenessResponse,
    CompileSourceRequest,
    CompileSourceResponse,
    DestructRequest,
    DestructResponse,
    DestructStats,
    ErrorResponse,
    EvictRequest,
    EvictResponse,
    LivenessQuery,
    LivenessResponse,
    LiveSetRequest,
    LiveSetResponse,
    NotifyKind,
    NotifyRequest,
    NotifyResponse,
    QueryKind,
    Request,
    Response,
    StatsRequest,
    StatsResponse,
    attach_trace,
    decode_request,
    encode_response,
    trace_context,
)
from repro.ir.function import Function
from repro.ir.module import Module
from repro.ir.value import Variable
from repro.obs import Observability
from repro.service.service import DEFAULT_CAPACITY, LivenessService


def guarded_dispatch(request, handler, failure):
    """Run ``handler(request)``, converting every escape into a response.

    The one place the protocol's never-raise boundary is implemented;
    both :class:`CompilerClient` and the concurrent layer's
    :class:`~repro.concurrent.client.ShardedClient` route through it so
    a failure produces the *same* structured error regardless of which
    front door served the request.
    """
    try:
        return handler(request)
    except ProtocolError as exc:
        return failure(request, exc.error)
    except KeyError as exc:
        # The service's loud unknown-function failures surface here;
        # any other KeyError is an internal bug and must say so.
        if "unknown function" in str(exc):
            return failure(request, ApiError(ErrorCode.UNKNOWN_FUNCTION, str(exc)))
        return failure(request, ApiError(ErrorCode.INTERNAL, f"KeyError: {exc}"))
    except Exception as exc:  # noqa: BLE001 - the boundary must hold
        return failure(
            request, ApiError(ErrorCode.INTERNAL, f"{type(exc).__name__}: {exc}")
        )


def failure_response(request, error: ApiError) -> Response:
    """The matching error-carrying response for a failed ``request``.

    Shared by every client front door so failure construction cannot
    drift between the serial and the sharded boundary.
    """
    response_cls = RESPONSE_FOR.get(type(request), ErrorResponse)
    return response_cls(error=error)


def dispatch_json_via(dispatch, payload, obs: "Observability | None" = None) -> dict:
    """Wire driver shared by every client: JSON envelope in and out.

    A payload that cannot even be decoded has no request type to pick a
    response from, so it comes back as an :class:`ErrorResponse` envelope
    — never an exception across the wire boundary.

    When ``obs`` is given and the request envelope carries a trace
    context, the whole dispatch runs under a root span with the caller's
    ``trace_id`` (yielding a structured timing tree in ``obs.tracer``),
    and the response envelope echoes ``{"trace_id": ...}`` back.  The
    echo is a pure function of the request payload — no clock value ever
    enters a response — and old payloads, which simply lack the trace
    key, flow through the untraced path unchanged.
    """
    if isinstance(payload, (str, bytes)):
        # Parse wire text exactly once: both the trace sniff and the
        # request decode below accept a parsed dict, so a text payload
        # must not pay for two full JSON parses.  Parse failures stay
        # with the payload — decode_request turns them into the
        # structured INVALID_REQUEST error.
        try:
            payload = json.loads(payload)
        except (ValueError, UnicodeDecodeError):
            pass
    trace_id = parent_span = None
    if obs is not None:
        trace_id, parent_span = trace_context(payload)
    try:
        request = decode_request(payload)
    except ProtocolError as exc:
        envelope = encode_response(ErrorResponse(error=exc.error))
    else:
        if trace_id is None:
            return encode_response(dispatch(request))
        attributes = {"request": type(request).__name__}
        if parent_span is not None:
            attributes["parent_span"] = parent_span
        with obs.request_trace("request", trace_id=trace_id, **attributes):
            envelope = encode_response(dispatch(request))
    if trace_id is not None:
        attach_trace(envelope, trace_id)
    return envelope


#: Request class → the name of the :class:`CompilerClient` method that
#: answers it: ``_`` plus the message's wire tag.
_HANDLER_FOR: dict[type, str] = {
    row.request: f"_{row.tag}" for row in MESSAGES if row.request
}


class CompilerClient:
    """Typed request/response façade over the compiler-server stack.

    Thread-safety contract: one ``CompilerClient`` over a plain
    :class:`LivenessService` is **single-threaded** — concurrent callers
    must go through :class:`repro.concurrent.client.ShardedClient`, which
    runs per-shard ``CompilerClient`` instances under the shard locks
    (the ``service`` parameter below is that layer's injection point).
    """

    def __init__(
        self,
        module: Module | Iterable[Function] | None = None,
        capacity: int = DEFAULT_CAPACITY,
        strategy: str = "exact",
        service: LivenessService | None = None,
        obs: Observability | None = None,
        record_dispatch: bool = True,
    ) -> None:
        if service is not None:
            # An injected service is managed (and locked) by the caller;
            # the module, if any, is registered through it.
            self._service = service
            if module is not None:
                for function in module:
                    service.register(function)
        else:
            self._service = LivenessService(
                module, capacity=capacity, strategy=strategy, obs=obs
            )
        # Share one Observability with the service so a StatsRequest sees
        # the whole stack; an injected service brings its own unless the
        # caller overrides.
        self.obs = obs if obs is not None else self._service.obs
        # The sharded layer times dispatch at its own front door and
        # passes record_dispatch=False to its per-shard clients, so each
        # request lands in exactly one dispatch.seconds histogram.
        self._dispatch_seconds = (
            self.obs.histogram("dispatch.seconds") if record_dispatch else None
        )
        #: function name → (revision the map was built at, name → Variable).
        #: Safe for concurrent readers: entries are immutable tuples
        #: published with one atomic dict store, and edits cannot run
        #: concurrently with readers (the sharded layer write-locks them).
        self._variable_maps: dict[str, tuple[int, dict[str, Variable]]] = {}
        #: Lazily-created session backing :meth:`dispatch_bytes`.
        self._default_bytes_session = None

    @property
    def service(self) -> LivenessService:
        """The underlying service (stats, cache introspection, …)."""
        return self._service

    # ------------------------------------------------------------------
    # Convenience wrappers
    # ------------------------------------------------------------------
    def compile(
        self, source: str, module_name: str = "module"
    ) -> tuple[FunctionHandle, ...]:
        """Compile and register ``source``; raise on failure.

        The exception-free equivalent is dispatching a
        :class:`CompileSourceRequest`.
        """
        response = self.dispatch(
            CompileSourceRequest(source=source, module_name=module_name)
        )
        if response.error is not None:
            raise ProtocolError(response.error.code, response.error.detail)
        assert response.functions is not None
        return response.functions

    def handle(self, name: str) -> FunctionHandle:
        """A fresh handle for ``name`` at its current revision."""
        return self._service.handle(name)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def dispatch(self, request: Request) -> Response:
        """Answer one protocol request; never raises across the boundary."""
        if self._dispatch_seconds is None:
            return guarded_dispatch(request, self._dispatch, self._failure)
        clock = self.obs.clock
        start = clock()
        with self.obs.span("dispatch", request=type(request).__name__):
            response = guarded_dispatch(request, self._dispatch, self._failure)
        self._dispatch_seconds.observe(clock() - start)
        return response

    def dispatch_json(self, payload) -> dict:
        """Wire driver: JSON envelope in, JSON envelope out."""
        return dispatch_json_via(self.dispatch, payload, obs=self.obs)

    def bytes_session(self):
        """A fresh byte-speaking connection over this client.

        Each session owns one string table (connection state), so two
        independent byte callers need two sessions.  The session answers
        in the caller's own framing — ``bin2`` frames or JSON text —
        and negotiates via the JSON ``hello`` envelope.
        """
        from repro.api.codec import BytesServerSession

        return BytesServerSession(
            self.dispatch, obs=self.obs, fast_query=self.fast_liveness
        )

    def dispatch_bytes(self, data) -> bytes:
        """Wire driver: one frame in, one frame out, never raises.

        Convenience over a lazily-created default session; transports
        serving several connections should create one
        :meth:`bytes_session` per connection instead.
        """
        if self._default_bytes_session is None:
            self._default_bytes_session = self.bytes_session()
        return self._default_bytes_session.dispatch_frame(data)

    def fast_liveness(
        self,
        name: str,
        revision: int | None,
        want_in: bool,
        variable: str,
        block: str,
    ) -> bool | None:
        """Lean lane for the hottest message: a single liveness bit.

        Answers a :class:`LivenessQuery` without building request or
        response objects — the binary codec's fast path rides this.
        Returns ``None`` for *any* unusual condition (unknown function,
        stale or pinned-mismatched revision, unknown variable or block)
        so the caller falls back to full dispatch and gets exactly the
        structured error and stats accounting that path produces.
        """
        service = self._service
        try:
            current = service.revision(name)
        except KeyError:
            return None
        if revision is not None and revision != current:
            return None
        cached = self._variable_maps.get(name)
        if cached is not None and cached[0] == current:
            variables = cached[1]
        else:
            variables = {
                var.name: var for var in service.function(name).variables()
            }
            self._variable_maps[name] = (current, variables)
        var = variables.get(variable)
        if var is None:
            return None
        if block not in service.function(name):
            return None
        checker = service.checker(name)
        service.stats.queries += 1
        if want_in:
            return checker.batch.is_live_in(var, block)
        return checker.batch.is_live_out(var, block)

    _failure = staticmethod(failure_response)

    def _dispatch(self, request: Request) -> Response:
        handler = _HANDLER_FOR.get(type(request))
        if handler is None:
            raise ProtocolError(
                ErrorCode.INVALID_REQUEST,
                f"unsupported request type {type(request).__name__}",
            )
        return getattr(self, handler)(request)

    # ------------------------------------------------------------------
    # Resolution helpers
    # ------------------------------------------------------------------
    def _resolve_function(self, handle: FunctionHandle) -> Function:
        if handle.name not in self._service:
            raise ProtocolError(
                ErrorCode.UNKNOWN_FUNCTION,
                f"no function named {handle.name!r} is registered",
            )
        return self._service.check_handle(handle)

    def _variable_map(self, name: str) -> dict[str, Variable]:
        revision = self._service.revision(name)
        cached = self._variable_maps.get(name)
        if cached is not None and cached[0] == revision:
            return cached[1]
        mapping = {
            var.name: var for var in self._service.function(name).variables()
        }
        self._variable_maps[name] = (revision, mapping)
        return mapping

    def _resolve_variable(self, function_name: str, variable: str) -> Variable:
        try:
            return self._variable_map(function_name)[variable]
        except KeyError:
            raise ProtocolError(
                ErrorCode.UNKNOWN_VARIABLE,
                f"function {function_name!r} has no variable {variable!r}",
            ) from None

    def _require_block(self, function: Function, block: str) -> str:
        if block not in function:
            raise ProtocolError(
                ErrorCode.UNKNOWN_BLOCK,
                f"function {function.name!r} has no block {block!r}",
            )
        return block

    # ------------------------------------------------------------------
    # Request handlers
    # ------------------------------------------------------------------
    def _liveness_query(self, request: LivenessQuery) -> LivenessResponse:
        function = self._resolve_function(request.function)
        name = request.function.name
        var = self._resolve_variable(name, request.variable)
        block = self._require_block(function, request.block)
        with self.obs.span("checker_lookup", function=name):
            checker = self._service.checker(name)
        self._service.stats.queries += 1
        with self.obs.span("kernel_query", kind=request.kind.value):
            if request.kind == QueryKind.LIVE_IN:
                value = checker.batch.is_live_in(var, block)
            else:
                value = checker.batch.is_live_out(var, block)
        return LivenessResponse(value=value)

    def _batch_liveness(self, request: BatchLiveness) -> BatchLivenessResponse:
        # Answers flow through exactly the per-checker batch engines
        # LivenessService.submit uses; handle validation, checker lookup
        # and variable-name resolution are amortised to once per function
        # per batch (a mid-batch stream cannot observe edits, so a
        # validated handle stays valid for the rest of the dispatch).
        # Keeping this loop lean is what the dispatch-overhead bench
        # guard measures.
        service = self._service
        stats = service.stats
        values: list[bool] = []
        resolved: dict[str, tuple[int | None, Function, object, dict[str, Variable]]] = {}
        live_in = QueryKind.LIVE_IN
        for query in request.queries:
            handle = query.function
            entry = resolved.get(handle.name)
            if entry is None:
                function = self._resolve_function(handle)
                entry = (
                    handle.revision,
                    function,
                    service.checker(handle.name).batch,
                    self._variable_map(handle.name),
                )
                resolved[handle.name] = entry
            elif handle.revision != entry[0]:
                service.check_handle(handle)
                entry = (handle.revision, entry[1], entry[2], entry[3])
                resolved[handle.name] = entry
            _, function, batch, variables = entry
            var = variables.get(query.variable)
            if var is None:
                raise ProtocolError(
                    ErrorCode.UNKNOWN_VARIABLE,
                    f"function {handle.name!r} has no variable "
                    f"{query.variable!r}",
                )
            if query.block not in function:
                raise ProtocolError(
                    ErrorCode.UNKNOWN_BLOCK,
                    f"function {handle.name!r} has no block {query.block!r}",
                )
            stats.queries += 1
            if query.kind is live_in:
                values.append(batch.is_live_in(var, query.block))
            else:
                values.append(batch.is_live_out(var, query.block))
        return BatchLivenessResponse(values=tuple(values))

    def _live_set(self, request: LiveSetRequest) -> LiveSetResponse:
        function = self._resolve_function(request.function)
        name = request.function.name
        block = self._require_block(function, request.block)
        checker = self._service.checker(name)
        members: list[str] = []
        if request.kind == QueryKind.LIVE_IN:
            probe = checker.batch.is_live_in
        else:
            probe = checker.batch.is_live_out
        for var in checker.live_variables():
            self._service.stats.queries += 1
            if probe(var, block):
                members.append(var.name)
        return LiveSetResponse(variables=tuple(sorted(members)))

    def _destruct(self, request: DestructRequest) -> DestructResponse:
        self._resolve_function(request.function)
        name = request.function.name
        report = self._service.destruct(
            name, engine=request.engine, verify=request.verify
        )
        return DestructResponse(
            function=self._service.handle(name),
            stats=DestructStats.from_report(report),
        )

    def _allocate(self, request: AllocateRequest) -> AllocateResponse:
        from repro.regalloc.allocator import allocate

        from repro.api.registry import get_engine

        function = self._resolve_function(request.function)
        name = request.function.name
        # Resolve the engine *before* handing the function to allocate():
        # past this point, any failure may have mutated it.
        spec = get_engine(request.engine)
        if spec.oracle_factory is None:
            spec.make_oracle(function)  # raises the structural UNSUPPORTED
        try:
            allocation = allocate(
                function,
                num_registers=request.num_registers,
                backend=request.engine,
                destruct=request.destruct,
            )
        except Exception:
            # The failure may have left the function half-edited;
            # invalidate pessimistically so no stale answer survives.
            self._service.notify_instructions_changed(name)
            self._service.notify_cfg_changed(name)
            raise
        # Allocation may split critical edges (a CFG edit) *and* rewrite
        # instructions (spill code, φ lowering) — the two notifications
        # invalidate different state (precomputation vs def–use chains),
        # so both fire whenever any edit actually happened; each also
        # marks outstanding handles stale.  An analysis-only allocation
        # (no splits, no spills, no destruction) edits nothing, so
        # handles and the resident checker stay valid.
        mutated = (
            allocation.reconstructed_ssa
            or allocation.edges_split > 0
            or allocation.spill_report is not None
            or request.destruct
        )
        if mutated:
            self._service.notify_instructions_changed(name)
            self._service.notify_cfg_changed(name)
        if request.destruct:
            # The function is no longer SSA; a rebuilt checker would fail
            # loudly, so do not keep one resident.
            self._service.evict(name)
        return AllocateResponse(
            function=self._service.handle(name),
            allocation=AllocationSummary.from_allocation(allocation),
        )

    def _notify(self, request: NotifyRequest) -> NotifyResponse:
        self._resolve_function(request.function)
        name = request.function.name
        if request.kind is NotifyKind.CFG:
            # A delta-carrying notification lets the service patch the
            # resident precomputation instead of discarding it; absent a
            # delta this is the historical full invalidation.
            self._service.notify_cfg_changed(name, delta=request.delta)
        else:
            self._service.notify_instructions_changed(name)
        return NotifyResponse(function=self._service.handle(name))

    def _evict(self, request: EvictRequest) -> EvictResponse:
        self._resolve_function(request.function)
        name = request.function.name
        self._service.evict(name)
        # Cache geometry only: the revision — and therefore the handle —
        # is deliberately unchanged, and whether a checker was resident
        # is not reported (see EvictResponse).
        return EvictResponse(function=self._service.handle(name))

    def _compile_source(
        self, request: CompileSourceRequest
    ) -> CompileSourceResponse:
        from repro.frontend.compile import compile_source

        try:
            module = compile_source(request.source, name=request.module_name)
        except ValueError as exc:
            # Lexer, parser, lowering and SSA-verification failures are all
            # ValueError subclasses with positioned messages.
            raise ProtocolError(ErrorCode.COMPILE_ERROR, str(exc)) from None
        handles = []
        for function in module:
            if function.name in self._service:
                raise ProtocolError(
                    ErrorCode.DUPLICATE_FUNCTION,
                    f"function {function.name!r} is already registered",
                )
        for function in module:
            self._service.register(function)
            handles.append(self._service.handle(function.name))
        return CompileSourceResponse(functions=tuple(handles))

    def _stats(self, request: StatsRequest) -> StatsResponse:
        # Snapshot first, reset second: with reset=True the response
        # reports exactly the interval the reset closes.
        response = StatsResponse(
            snapshot=self.obs.snapshot(),
            stats=self._service.stats.as_dict(),
        )
        if request.reset:
            self._service.stats.reset()
            self.obs.metrics.reset()
        return response
