"""Protocol round-trip fixpoints and dispatch ↔ direct-call parity.

Two properties anchor the wire format:

1. **Lossless JSON.**  For requests and responses built from real
   generated functions (:mod:`tests.support.genfn`),
   ``decode(encode(x)) == x`` — and a second encode is a fixpoint, so a
   logged stream replays byte-identically.
2. **The façade adds no semantics.**  ``CompilerClient.dispatch``
   answers exactly what the direct ``LivenessService.submit`` /
   ``destruct()`` / ``allocate()`` calls produce on the same inputs.
"""

import copy
import json
import random

import pytest

from repro.api.client import CompilerClient
from repro.api.errors import ApiError, ErrorCode
from repro.api.handles import FunctionHandle
from repro.api.protocol import (
    PROTOCOL_VERSION,
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
    LivenessQuery,
    LivenessResponse,
    LiveSetRequest,
    LiveSetResponse,
    NotifyRequest,
    QueryKind,
    StatsRequest,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
)
from repro.api.registry import DATAFLOW, FAST
from repro.regalloc.allocator import allocate
from repro.service import LivenessRequest, LivenessService
from repro.ssadestruct import destruct
from tests.support.genfn import fuzz_function


def roundtrip_request(request):
    envelope = encode_request(request)
    # Through actual JSON text, so nothing non-serialisable hides inside.
    decoded = decode_request(json.loads(json.dumps(envelope)))
    assert decoded == request
    # Fixpoint: re-encoding the decoded value reproduces the envelope.
    assert encode_request(decoded) == envelope
    return decoded


def roundtrip_response(response):
    envelope = encode_response(response)
    decoded = decode_response(json.loads(json.dumps(envelope)))
    assert decoded == response
    assert encode_response(decoded) == envelope
    return decoded


class TestQueryKind:
    def test_legacy_strings_are_accepted(self):
        assert QueryKind.coerce("in") is QueryKind.LIVE_IN
        assert QueryKind.coerce("out") is QueryKind.LIVE_OUT
        assert QueryKind.coerce(QueryKind.LIVE_IN) is QueryKind.LIVE_IN
        assert QueryKind.LIVE_IN == "in" and QueryKind.LIVE_OUT == "out"

    def test_unknown_kind_fails_loudly(self):
        with pytest.raises(ValueError, match="unknown query kind"):
            QueryKind.coerce("sideways")

    def test_liveness_request_validates_kind_at_construction(self):
        from repro.ir.value import Variable

        with pytest.raises(ValueError, match="unknown query kind"):
            LivenessRequest(
                function="f", kind="both", variable=Variable("x"), block="bb0"
            )


class TestRequestRoundTrip:
    """request → JSON → request is the identity on generated workloads."""

    @pytest.mark.parametrize("index", range(25))
    def test_requests_from_generated_functions(self, index):
        function = fuzz_function(index, base_seed=77)
        rng = random.Random(index * 31 + 5)
        handle = FunctionHandle(function.name, revision=rng.randrange(4))
        variables = function.variables()
        blocks = list(function.blocks)
        query = LivenessQuery(
            function=handle,
            kind=rng.choice(("in", "out")),
            variable=rng.choice(variables).name,
            block=rng.choice(blocks),
        )
        roundtrip_request(query)
        roundtrip_request(
            BatchLiveness(
                queries=tuple(
                    LivenessQuery(
                        function=handle,
                        kind=rng.choice((QueryKind.LIVE_IN, QueryKind.LIVE_OUT)),
                        variable=rng.choice(variables).name,
                        block=rng.choice(blocks),
                    )
                    for _ in range(rng.randrange(1, 9))
                )
            )
        )
        roundtrip_request(
            LiveSetRequest(function=handle, block=rng.choice(blocks), kind="out")
        )
        roundtrip_request(
            DestructRequest(function=handle, engine=DATAFLOW, verify=True)
        )
        roundtrip_request(
            AllocateRequest(
                function=handle,
                num_registers=rng.choice((None, 3, 8)),
                engine=FAST,
                destruct=bool(index % 2),
            )
        )

    def test_compile_request_roundtrip(self):
        roundtrip_request(
            CompileSourceRequest(
                source="func f(a) { return a; }", module_name="wire"
            )
        )

    def test_unversioned_handle_roundtrip(self):
        request = LivenessQuery(
            function="plain-name", kind="in", variable="x", block="entry"
        )
        assert request.function == FunctionHandle("plain-name", None)
        roundtrip_request(request)


class TestResponseRoundTrip:
    """response → JSON → response is the identity, payload and error alike."""

    @pytest.mark.parametrize("index", range(10))
    def test_responses_from_real_runs(self, index):
        function = fuzz_function(index, base_seed=901)
        service = LivenessService([function])
        rng = random.Random(index)
        variables = function.variables()
        blocks = list(function.blocks)
        value = service.is_live_in(
            function.name, rng.choice(variables), rng.choice(blocks)
        )
        roundtrip_response(LivenessResponse(value=value))
        roundtrip_response(
            BatchLivenessResponse(values=(value, not value, True))
        )
        roundtrip_response(
            LiveSetResponse(variables=tuple(sorted(v.name for v in variables)))
        )
        report = destruct(copy.deepcopy(function))
        roundtrip_response(
            DestructResponse(
                function=FunctionHandle(function.name, revision=1),
                stats=DestructStats.from_report(report),
            )
        )
        allocation = allocate(copy.deepcopy(function), num_registers=4)
        roundtrip_response(
            AllocateResponse(
                function=FunctionHandle(function.name, revision=2),
                allocation=AllocationSummary.from_allocation(allocation),
            )
        )

    def test_error_payloads_roundtrip(self):
        error = ApiError(ErrorCode.STALE_HANDLE, "f@r0 is stale")
        for response in (
            LivenessResponse(error=error),
            BatchLivenessResponse(error=error),
            LiveSetResponse(error=error),
            DestructResponse(error=error),
            AllocateResponse(error=error),
            CompileSourceResponse(error=error),
            ErrorResponse(error=error),
        ):
            assert not response.ok
            roundtrip_response(response)

    def test_compile_response_roundtrip(self):
        roundtrip_response(
            CompileSourceResponse(
                functions=(
                    FunctionHandle("f", 0),
                    FunctionHandle("g", 0),
                )
            )
        )


class TestEnvelope:
    def test_version_mismatch_rejected(self):
        envelope = encode_request(
            LivenessQuery(function="f", kind="in", variable="x", block="b")
        )
        envelope["api"] = PROTOCOL_VERSION + 1
        from repro.api.errors import ProtocolError

        with pytest.raises(ProtocolError) as exc:
            decode_request(envelope)
        assert exc.value.error.code == ErrorCode.INVALID_REQUEST
        assert "version" in exc.value.error.detail

    def test_unknown_tag_rejected(self):
        from repro.api.errors import ProtocolError

        with pytest.raises(ProtocolError, match="unknown message type"):
            decode_request({"api": PROTOCOL_VERSION, "type": "nope", "body": {}})

    def test_malformed_body_rejected(self):
        from repro.api.errors import ProtocolError

        with pytest.raises(ProtocolError, match="malformed"):
            decode_request(
                {"api": PROTOCOL_VERSION, "type": "liveness_query", "body": {}}
            )

    def test_json_string_input_accepted(self):
        request = LiveSetRequest(function="f", block="entry")
        assert decode_request(json.dumps(encode_request(request))) == request

    def test_defaulted_fields_may_be_omitted_on_the_wire(self):
        body = {"function": {"name": "f", "revision": None}}
        decoded = decode_request(
            {"api": PROTOCOL_VERSION, "type": "destruct", "body": body}
        )
        assert decoded == DestructRequest(function="f")
        decoded = decode_request(
            {"api": PROTOCOL_VERSION, "type": "allocate", "body": body}
        )
        assert decoded == AllocateRequest(function="f")
        decoded = decode_request(
            {
                "api": PROTOCOL_VERSION,
                "type": "live_set",
                "body": {**body, "block": "entry"},
            }
        )
        assert decoded == LiveSetRequest(function="f", block="entry")
        decoded = decode_request(
            {
                "api": PROTOCOL_VERSION,
                "type": "compile_source",
                "body": {"source": "func f(a) { return a; }"},
            }
        )
        assert decoded == CompileSourceRequest(source="func f(a) { return a; }")


_HANDLE_JSON = {"name": "f", "revision": None}

#: ``(tag, body)`` envelopes whose one mistyped field the JSON decoder
#: used to coerce silently or let through to an internal TypeError.
MISTYPED_BODIES = [
    ("stats", {"reset": "no"}),
    ("allocate", {"function": _HANDLE_JSON, "num_registers": "3"}),
    ("allocate", {"function": _HANDLE_JSON, "num_registers": True}),
    ("destruct", {"function": _HANDLE_JSON, "verify": "false"}),
    ("liveness_query",
     {"function": _HANDLE_JSON, "kind": "in", "variable": 5, "block": "entry"}),
    ("liveness_query",
     {"function": _HANDLE_JSON, "kind": "in", "variable": ["a"], "block": "entry"}),
    ("live_set", {"function": _HANDLE_JSON, "block": 7}),
    ("compile_source", {"source": 5}),
]


class TestMistypedJson:
    """A mistyped JSON field is an INVALID_REQUEST, never a coercion."""

    @pytest.mark.parametrize(
        "tag, body", MISTYPED_BODIES, ids=[f"{tag}-{body}" for tag, body in MISTYPED_BODIES]
    )
    def test_decode_rejects(self, tag, body):
        from repro.api.errors import ProtocolError

        envelope = {"api": PROTOCOL_VERSION, "type": tag, "body": body}
        with pytest.raises(ProtocolError) as exc:
            decode_request(envelope)
        assert exc.value.error.code is ErrorCode.INVALID_REQUEST
        assert exc.value.error.detail.startswith(f"malformed {tag} body")

    @pytest.mark.parametrize(
        "tag, body", MISTYPED_BODIES, ids=[f"{tag}-{body}" for tag, body in MISTYPED_BODIES]
    )
    def test_dispatch_answers_invalid_request(self, tag, body):
        client = CompilerClient()
        client.compile("func f(a) { return a; }")
        envelope = client.dispatch_json(
            json.dumps({"api": PROTOCOL_VERSION, "type": tag, "body": body})
        )
        assert envelope["type"] == "error"
        assert envelope["body"]["error"]["code"] == "invalid_request"
        assert envelope["body"]["error"]["detail"].startswith(f"malformed {tag} body")
        # Nothing was reset, compiled or allocated on the way.
        assert client.handle("f").revision == 0

    def test_well_typed_bodies_still_decode(self):
        assert decode_request(
            {"api": PROTOCOL_VERSION, "type": "stats", "body": {"reset": True}}
        ) == StatsRequest(reset=True)
        assert decode_request(
            {"api": PROTOCOL_VERSION, "type": "stats", "body": {}}
        ) == StatsRequest()
        assert decode_request(
            {
                "api": PROTOCOL_VERSION,
                "type": "allocate",
                "body": {"function": _HANDLE_JSON, "num_registers": 3},
            }
        ) == AllocateRequest(function="f", num_registers=3)


class TestDispatchParity:
    """dispatch() answers exactly what the direct calls produce."""

    @pytest.mark.parametrize("index", range(12))
    def test_batch_liveness_matches_submit(self, index):
        function = fuzz_function(index, base_seed=404)
        rng = random.Random(index * 13 + 1)
        direct_service = LivenessService([copy.deepcopy(function)])
        client = CompilerClient([function])
        variables = function.variables()
        blocks = list(function.blocks)
        requests = [
            LivenessRequest(
                function=function.name,
                kind=rng.choice(("in", "out")),
                variable=rng.choice(variables),
                block=rng.choice(blocks),
            )
            for _ in range(40)
        ]
        expected = direct_service.submit(
            [
                LivenessRequest(
                    function=r.function,
                    kind=r.kind,
                    variable=direct_service.function(r.function).variable_by_name(
                        r.variable.name
                    ),
                    block=r.block,
                )
                for r in requests
            ]
        )
        handle = client.handle(function.name)
        response = client.dispatch(
            BatchLiveness(
                queries=tuple(
                    LivenessQuery(
                        function=handle,
                        kind=r.kind,
                        variable=r.variable.name,
                        block=r.block,
                    )
                    for r in requests
                )
            )
        )
        assert response.ok
        assert list(response.values) == expected

    @pytest.mark.parametrize("index", range(8))
    def test_destruct_matches_direct_pipeline(self, index):
        function = fuzz_function(index, base_seed=555)
        direct = copy.deepcopy(function)
        direct_report = destruct(direct, verify=True)

        client = CompilerClient([function])
        response = client.dispatch(
            DestructRequest(
                function=client.handle(function.name), verify=True
            )
        )
        assert response.ok
        stats = response.stats
        assert stats == DestructStats.from_report(direct_report)
        from repro.ir.printer import print_function

        assert print_function(function) == print_function(direct)

    @pytest.mark.parametrize("index", range(8))
    def test_allocate_matches_direct_allocator(self, index):
        function = fuzz_function(index, base_seed=808)
        direct = copy.deepcopy(function)
        direct_allocation = allocate(direct, num_registers=4)

        client = CompilerClient([function])
        response = client.dispatch(
            AllocateRequest(
                function=client.handle(function.name), num_registers=4
            )
        )
        assert response.ok
        assert response.allocation == AllocationSummary.from_allocation(
            direct_allocation
        )

    def test_allocate_with_spilling_then_destruct(self):
        """Allocation rewrites instructions under a resident checker; the
        follow-up destruct must see fresh def–use chains (regression:
        only the CFG notification fired, leaving chains that predate the
        spill reloads)."""
        from repro.frontend import compile_source

        module = compile_source(
            """
            func fib(n) {
                a = 0; b = 1; i = 0;
                while (i < n) { t = a + b; a = b; b = t; i = i + 1; }
                return a;
            }
            """
        )
        client = CompilerClient(module)
        handle = client.handle("fib")
        function = client.service.function("fib")
        # Build a resident checker before the allocation edits.
        warm = client.dispatch(
            LivenessQuery(
                function=handle,
                kind="in",
                variable=function.variables()[0].name,
                block=next(iter(function.blocks)),
            )
        )
        assert warm.ok
        allocated = client.dispatch(
            AllocateRequest(function=handle, num_registers=3)
        )
        assert allocated.ok
        assert allocated.allocation.spilled  # the budget forces spills
        destructed = client.dispatch(
            DestructRequest(function=allocated.function, verify=True)
        )
        assert destructed.ok, destructed.error
        assert destructed.stats.phis_removed > 0

    def test_analysis_only_allocate_keeps_handles_valid(self):
        """An allocation that provably edited nothing (no SSA round-trip,
        no edge splits, no spills, no destruction) must not stale
        outstanding handles or drop the resident checker."""
        from repro.frontend import compile_source

        module = compile_source("func f(a, b) { c = a + b; return c * a; }")
        client = CompilerClient(module)
        handle = client.handle("f")
        response = client.dispatch(AllocateRequest(function=handle))
        assert response.ok
        assert not response.allocation.spilled
        assert response.function == handle  # same revision: nothing edited
        function = client.service.function("f")
        again = client.dispatch(
            LivenessQuery(
                function=handle,
                kind="in",
                variable=function.variables()[0].name,
                block=next(iter(function.blocks)),
            )
        )
        assert again.ok

    def test_live_set_matches_exhaustive_queries(self, gcd_function):
        from repro.core import FastLivenessChecker

        checker = FastLivenessChecker(copy.deepcopy(gcd_function))
        checker.prepare()
        client = CompilerClient([gcd_function])
        handle = client.handle(gcd_function.name)
        for block in list(gcd_function.blocks):
            response = client.dispatch(
                LiveSetRequest(function=handle, block=block, kind="in")
            )
            assert response.ok
            expected = sorted(
                var.name
                for var in checker.live_variables()
                if checker.is_live_in(var, block)
            )
            assert list(response.variables) == expected

    def test_dispatch_json_wire_loop(self):
        client = CompilerClient()
        compile_envelope = encode_request(
            CompileSourceRequest(source="func f(a) { return a + 1; }")
        )
        reply = client.dispatch_json(json.dumps(compile_envelope))
        response = decode_response(reply)
        assert response.ok and response.functions[0].name == "f"
        bad = client.dispatch_json("{not json")
        decoded = decode_response(bad)
        assert isinstance(decoded, ErrorResponse)
        assert decoded.error.code == ErrorCode.INVALID_REQUEST


class TestErrorChannel:
    def test_unknown_function(self):
        client = CompilerClient()
        response = client.dispatch(
            LivenessQuery(function="ghost", kind="in", variable="x", block="b")
        )
        assert response.error.code == ErrorCode.UNKNOWN_FUNCTION

    def test_unknown_variable_and_block(self, gcd_function):
        client = CompilerClient([gcd_function])
        handle = client.handle(gcd_function.name)
        block = next(iter(gcd_function.blocks))
        response = client.dispatch(
            LivenessQuery(
                function=handle, kind="in", variable="nope", block=block
            )
        )
        assert response.error.code == ErrorCode.UNKNOWN_VARIABLE
        variable = gcd_function.variables()[0].name
        response = client.dispatch(
            LivenessQuery(
                function=handle, kind="in", variable=variable, block="nope"
            )
        )
        assert response.error.code == ErrorCode.UNKNOWN_BLOCK

    def test_unknown_engine(self, gcd_function):
        client = CompilerClient([gcd_function])
        response = client.dispatch(
            DestructRequest(
                function=client.handle(gcd_function.name), engine="phlogiston"
            )
        )
        assert response.error.code == ErrorCode.UNKNOWN_ENGINE

    def test_failed_allocate_leaves_function_and_handle_intact(self):
        """Engine resolution happens before allocate() mutates anything
        (regression: a bad engine name used to split critical edges and
        leave the old handle validating against an edited function)."""
        from repro.frontend import compile_source
        from repro.ir.printer import print_function

        module = compile_source(
            """
            func f(c, a) {
                x = 0;
                while (c > 0) {
                    if (a > 0) { x = x + 1; }
                    c = c - 1;
                }
                return x;
            }
            """
        )
        client = CompilerClient(module)
        handle = client.handle("f")
        function = client.service.function("f")
        before = print_function(function)
        response = client.dispatch(
            AllocateRequest(function=handle, num_registers=4, engine="bogus")
        )
        assert response.error.code == ErrorCode.UNKNOWN_ENGINE
        assert print_function(function) == before
        assert client.service.revision("f") == handle.revision
        # The untouched handle still answers.
        ok = client.dispatch(
            LivenessQuery(
                function=handle,
                kind="in",
                variable=function.variables()[0].name,
                block=next(iter(function.blocks)),
            )
        )
        assert ok.ok

    def test_graph_engine_allocate_is_structurally_rejected(self, gcd_function):
        from repro.ir.printer import print_function

        client = CompilerClient([gcd_function])
        function = client.service.function(gcd_function.name)
        before = print_function(function)
        response = client.dispatch(
            AllocateRequest(
                function=client.handle(gcd_function.name), engine="graph"
            )
        )
        assert response.error.code == ErrorCode.UNSUPPORTED
        assert print_function(function) == before

    def test_compile_error(self):
        client = CompilerClient()
        response = client.dispatch(
            CompileSourceRequest(source="func { oops")
        )
        assert response.error.code == ErrorCode.COMPILE_ERROR

    def test_duplicate_function(self):
        client = CompilerClient()
        client.compile("func f(a) { return a; }")
        response = client.dispatch(
            CompileSourceRequest(source="func f(a) { return a; }")
        )
        assert response.error.code == ErrorCode.DUPLICATE_FUNCTION
        # The failed request registered nothing new.
        assert client.service.functions() == ["f"]

    def test_dispatch_never_raises(self):
        client = CompilerClient()
        response = client.dispatch(object())
        assert isinstance(response, ErrorResponse)
        assert response.error.code == ErrorCode.INVALID_REQUEST


class TestNotifyDeltas:
    """CFG deltas on notify frames: JSON shape and dispatch routing."""

    def test_delta_round_trips_through_json(self):
        from repro.core.incremental import CfgDelta

        request = NotifyRequest(
            function=FunctionHandle("fn", 3),
            kind="cfg",
            delta=CfgDelta(
                added_edges=(("a", "b"),),
                removed_edges=(("c", "d"), ("e", "f")),
            ),
        )
        encoded = encode_request(request)
        decoded = decode_request(encoded)
        assert decoded == request
        assert decoded.delta.added_edges == (("a", "b"),)

    def test_plain_dict_delta_is_coerced(self):
        from repro.core.incremental import CfgDelta

        request = NotifyRequest(
            function=FunctionHandle("fn"),
            kind="cfg",
            delta={"added_edges": [["a", "b"]]},
        )
        assert isinstance(request.delta, CfgDelta)
        assert request.delta.added_edges == (("a", "b"),)

    def test_absent_delta_is_omitted_on_the_wire(self):
        request = NotifyRequest(function=FunctionHandle("fn"), kind="cfg")
        assert "delta" not in encode_request(request)["body"]

    def test_dispatched_delta_reaches_the_service_counters(self):
        from tests.service.test_service import applicable_delta, make_module

        module = make_module(1, num_blocks=8)
        client = CompilerClient(module)
        delta = applicable_delta(module.function("fn0"))
        assert delta is not None
        client.service.checker("fn0")  # make a checker resident
        response = client.dispatch(
            NotifyRequest(function=FunctionHandle("fn0"), kind="cfg", delta=delta)
        )
        assert response.error is None
        assert client.service.stats.cfg_incremental_applied.value == 1
