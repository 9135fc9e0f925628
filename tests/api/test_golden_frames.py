"""Golden wire frames: the exact bytes of every protocol message type.

Each case of :mod:`tests.api.golden_cases` is pinned three ways: the
compact JSON envelope text (key order included), the self-contained
bin2 frame, and, for requests, the second bin2 frame of a connection
that already sent the same message, whose function names travel as
interned refs only.  Frames stored by a write-ahead log are replayed
through the same decoders, so these bytes must never change; the
decoders are pinned too (each stored form decodes to the message).
"""

import pytest

from repro.api.codec import (
    StringInterner,
    StringTable,
    decode_request_bin2,
    decode_request_json,
    decode_response_bin2,
    decode_response_json,
    encode_request_bin2,
    encode_request_json,
    encode_response_bin2,
    encode_response_json,
)
from repro.api.protocol import REQUEST_TYPES, RESPONSE_TYPES
from tests.api.golden_cases import CASES

#: case id -> (compact JSON text, bin2 hex, interned second-frame hex).
GOLDEN = {
    'liveness_query.unversioned': ('{"api":1,"type":"liveness_query","body":{"function":{"name":"kernel","revision":null},"kind":"in","variable":"acc","block":"body3"}}', '19000000b201010100066b65726e656c0000000361636305626f647933', '11000000b20101000000000361636305626f647933'),
    'liveness_query.rev0': ('{"api":1,"type":"liveness_query","body":{"function":{"name":"kernel","revision":0},"kind":"out","variable":"x","block":"entry"}}', '18000000b201010100066b65726e656c00010001017805656e747279', '10000000b201010000010001017805656e747279'),
    'liveness_query.negative_rev': ('{"api":1,"type":"liveness_query","body":{"function":{"name":"kernel","revision":-3},"kind":"in","variable":"v\\u00e9","block":"b\\u00f6"}}', '18000000b201010100066b65726e656c000105000376c3a90362c3b6', '10000000b2010100000105000376c3a90362c3b6'),
    'liveness_query.huge_rev': ('{"api":1,"type":"liveness_query","body":{"function":{"name":"kernel","revision":1099511627776},"kind":"out","variable":"acc","block":"exit"}}', '1e000000b201010100066b65726e656c000180808080804001036163630465786974', '16000000b2010100000180808080804001036163630465786974'),
    'batch_liveness.empty': ('{"api":1,"type":"batch_liveness","body":{"queries":[]}}', '05000000b201020000', '05000000b201020000'),
    'batch_liveness.two_functions': ('{"api":1,"type":"batch_liveness","body":{"queries":[{"function":{"name":"kernel","revision":0},"kind":"in","variable":"acc","block":"entry"},{"function":{"name":"other_fn","revision":7},"kind":"out","variable":"i","block":"loop"},{"function":{"name":"kernel","revision":0},"kind":"out","variable":"acc","block":"exit"}]}}', '3d000000b201020200066b65726e656c01086f746865725f666e03000100000361636305656e74727901010e010169046c6f6f7000010001036163630465786974', '2b000000b201020003000100000361636305656e74727901010e010169046c6f6f7000010001036163630465786974'),
    'live_set.default_kind': ('{"api":1,"type":"live_set","body":{"function":{"name":"kernel","revision":null},"block":"body3","kind":"in"}}', '15000000b201030100066b65726e656c000005626f64793300', '0d000000b2010300000005626f64793300'),
    'live_set.out': ('{"api":1,"type":"live_set","body":{"function":{"name":"kernel","revision":1099511627776},"block":"exit","kind":"out"}}', '1a000000b201030100066b65726e656c0001808080808040046578697401', '12000000b20103000001808080808040046578697401'),
    'destruct.defaults': ('{"api":1,"type":"destruct","body":{"function":{"name":"kernel","revision":0},"engine":"fast","verify":false}}', '15000000b201040100066b65726e656c000100046661737400', '0d000000b2010400000100046661737400'),
    'destruct.verify': ('{"api":1,"type":"destruct","body":{"function":{"name":"kernel","revision":-3},"engine":"dataflow","verify":true}}', '19000000b201040100066b65726e656c0001050864617461666c6f7701', '11000000b20104000001050864617461666c6f7701'),
    'allocate.no_registers': ('{"api":1,"type":"allocate","body":{"function":{"name":"kernel","revision":null},"num_registers":null,"engine":"fast","destruct":false}}', '15000000b201050100066b65726e656c000000046661737400', '0d000000b2010500000000046661737400'),
    'allocate.registers': ('{"api":1,"type":"allocate","body":{"function":{"name":"kernel","revision":1099511627776},"num_registers":200,"engine":"mask","destruct":true}}', '1d000000b201050100066b65726e656c0001808080808040019003046d61736b01', '15000000b20105000001808080808040019003046d61736b01'),
    'notify.no_delta': ('{"api":1,"type":"notify","body":{"function":{"name":"kernel","revision":0},"kind":"instructions"}}', '11000000b201060100066b65726e656c0001000100', '09000000b20106000001000100'),
    'notify.empty_delta': ('{"api":1,"type":"notify","body":{"function":{"name":"kernel","revision":0},"kind":"cfg","delta":{"added_edges":[],"removed_edges":[],"added_blocks":[],"removed_blocks":[]}}}', '15000000b201060100066b65726e656c000100000100000000', '0d000000b2010600000100000100000000'),
    'notify.delta': ('{"api":1,"type":"notify","body":{"function":{"name":"kernel","revision":-3},"kind":"cfg","delta":{"added_edges":[["a","b"],["c","d"]],"removed_edges":[["e","f"]],"added_blocks":["g"],"removed_blocks":["h","i"]}}}', '27000000b201060100066b65726e656c000105000102016101620163016401016501660101670201680169', '1f000000b2010600000105000102016101620163016401016501660101670201680169'),
    'evict.unversioned': ('{"api":1,"type":"evict","body":{"function":{"name":"kernel","revision":null}}}', '0e000000b201070100066b65726e656c0000', '06000000b20107000000'),
    'evict.rev0': ('{"api":1,"type":"evict","body":{"function":{"name":"kernel","revision":0}}}', '0f000000b201070100066b65726e656c000100', '07000000b2010700000100'),
    'compile_source.default_module': ('{"api":1,"type":"compile_source","body":{"source":"func f(a) { return a; }","module_name":"module"}}', '23000000b20108001766756e632066286129207b2072657475726e20613b207d066d6f64756c65', '23000000b20108001766756e632066286129207b2072657475726e20613b207d066d6f64756c65'),
    'compile_source.named': ('{"api":1,"type":"compile_source","body":{"source":"func g(x, y) { z = x + y; return z; }","module_name":"mod\\u00fcle"}}', '32000000b20108002566756e63206728782c207929207b207a203d2078202b20793b2072657475726e207a3b207d076d6f64c3bc6c65', '32000000b20108002566756e63206728782c207929207b207a203d2078202b20793b2072657475726e207a3b207d076d6f64c3bc6c65'),
    'stats.no_reset': ('{"api":1,"type":"stats","body":{"reset":false}}', '05000000b201090000', '05000000b201090000'),
    'stats.reset': ('{"api":1,"type":"stats","body":{"reset":true}}', '05000000b201090001', '05000000b201090001'),
    'liveness_query.true': ('{"api":1,"type":"liveness_query","body":{"value":true,"error":null}}', '06000000b20181000100', None),
    'liveness_query.false': ('{"api":1,"type":"liveness_query","body":{"value":false,"error":null}}', '06000000b20181000000', None),
    'liveness_query.none': ('{"api":1,"type":"liveness_query","body":{"value":null,"error":null}}', '06000000b20181000200', None),
    'liveness_query.error': ('{"api":1,"type":"liveness_query","body":{"value":null,"error":{"code":"stale_handle","detail":"kernel is at r5, handle says r4"}}}', '33000000b201810002010c7374616c655f68616e646c651f6b65726e656c2069732061742072352c2068616e646c652073617973207234', None),
    'batch_liveness.zero_bits': ('{"api":1,"type":"batch_liveness","body":{"values":[],"error":null}}', '07000000b2018200010000', None),
    'batch_liveness.nine_bits': ('{"api":1,"type":"batch_liveness","body":{"values":[true,false,true,true,false,false,false,true,true],"error":null}}', '09000000b201820001098d0100', None),
    'batch_liveness.error': ('{"api":1,"type":"batch_liveness","body":{"values":null,"error":{"code":"stale_handle","detail":"kernel is at r5, handle says r4"}}}', '33000000b201820000010c7374616c655f68616e646c651f6b65726e656c2069732061742072352c2068616e646c652073617973207234', None),
    'live_set.variables': ('{"api":1,"type":"live_set","body":{"variables":["acc","idx","limit"],"error":null}}', '15000000b201830001030361636303696478056c696d697400', None),
    'live_set.empty': ('{"api":1,"type":"live_set","body":{"variables":[],"error":null}}', '07000000b2018300010000', None),
    'live_set.error': ('{"api":1,"type":"live_set","body":{"variables":null,"error":{"code":"stale_handle","detail":"kernel is at r5, handle says r4"}}}', '33000000b201830000010c7374616c655f68616e646c651f6b65726e656c2069732061742072352c2068616e646c652073617973207234', None),
    'destruct.stats': ('{"api":1,"type":"destruct","body":{"function":{"name":"kernel","revision":0},"stats":{"engine":"fast","critical_edges_split":3,"phis_isolated":5,"parallel_copies":4,"pairs_inserted":12,"pairs_coalesced":9,"classes_merged":6,"interference_tests":148,"liveness_queries":200,"copies_emitted":7,"temps_inserted":2,"phis_removed":5},"error":null}}', '22000000b201840001066b65726e656c0100010466617374060a0818120ca80290030e040a00', None),
    'destruct.error': ('{"api":1,"type":"destruct","body":{"function":null,"stats":null,"error":{"code":"stale_handle","detail":"kernel is at r5, handle says r4"}}}', '34000000b20184000000010c7374616c655f68616e646c651f6b65726e656c2069732061742072352c2068616e646c652073617973207234', None),
    'allocate.summary': ('{"api":1,"type":"allocate","body":{"function":{"name":"kernel","revision":1099511627776},"allocation":{"registers":{"acc":0,"idx":1,"limit":130},"spill_slots":{"tmp0":0},"registers_used":3,"max_live":4,"max_live_before_spill":5,"spilled":["tmp0"],"reconstructed_ssa":true},"error":null}}', '39000000b201850001066b65726e656c01808080808040010303616363000369647802056c696d697484020104746d70300006080a0104746d70300100', None),
    'allocate.empty_summary': ('{"api":1,"type":"allocate","body":{"function":{"name":"kernel","revision":-3},"allocation":{"registers":{},"spill_slots":{},"registers_used":0,"max_live":0,"max_live_before_spill":0,"spilled":[],"reconstructed_ssa":false},"error":null}}', '17000000b201850001066b65726e656c0105010000000000000000', None),
    'allocate.error': ('{"api":1,"type":"allocate","body":{"function":null,"allocation":null,"error":{"code":"unsupported","detail":""}}}', '14000000b20185000000010b756e737570706f7274656400', None),
    'notify.handle': ('{"api":1,"type":"notify","body":{"function":{"name":"kernel","revision":-3},"error":null}}', '0f000000b201860001066b65726e656c010500', None),
    'notify.error': ('{"api":1,"type":"notify","body":{"function":null,"error":{"code":"stale_handle","detail":"kernel is at r5, handle says r4"}}}', '33000000b201860000010c7374616c655f68616e646c651f6b65726e656c2069732061742072352c2068616e646c652073617973207234', None),
    'evict.handle': ('{"api":1,"type":"evict","body":{"function":{"name":"kernel","revision":null},"error":null}}', '0e000000b201870001066b65726e656c0000', None),
    'evict.error': ('{"api":1,"type":"evict","body":{"function":null,"error":{"code":"unknown_function","detail":"gone"}}}', '1c000000b2018700000110756e6b6e6f776e5f66756e6374696f6e04676f6e65', None),
    'compile_source.handles': ('{"api":1,"type":"compile_source","body":{"functions":[{"name":"kernel","revision":0},{"name":"other_fn","revision":7},{"name":"kernel","revision":null}],"error":null}}', '26000000b2018800010301066b65726e656c010001086f746865725f666e010e01066b65726e656c0000', None),
    'compile_source.error': ('{"api":1,"type":"compile_source","body":{"functions":null,"error":{"code":"compile_error","detail":"1:3: bad"}}}', '1d000000b201880000010d636f6d70696c655f6572726f7208313a333a20626164', None),
    'stats.blobs': ('{"api":1,"type":"stats","body":{"snapshot":{"counters":{"wire.bytes_in{codec=bin2}":4096},"gauges":{}},"stats":{"queries":512,"hit_rate":0.97,"shards":[1,2]},"error":null}}', '72000000b2018900013b7b22636f756e74657273223a7b22776972652e62797465735f696e7b636f6465633d62696e327d223a343039367d2c22676175676573223a7b7d7d012e7b2271756572696573223a3531322c226869745f72617465223a302e39372c22736861726473223a5b312c325d7d00', None),
    'stats.no_blobs': ('{"api":1,"type":"stats","body":{"snapshot":null,"stats":null,"error":null}}', '07000000b2018900000000', None),
    'stats.error': ('{"api":1,"type":"stats","body":{"snapshot":null,"stats":null,"error":{"code":"stale_handle","detail":"kernel is at r5, handle says r4"}}}', '34000000b20189000000010c7374616c655f68616e646c651f6b65726e656c2069732061742072352c2068616e646c652073617973207234', None),
    'error.error': ('{"api":1,"type":"error","body":{"error":{"code":"invalid_request","detail":"envelope must be an object"}}}', '30000000b201ff00010f696e76616c69645f726571756573741a656e76656c6f7065206d75737420626520616e206f626a656374', None),
    'error.none': ('{"api":1,"type":"error","body":{"error":null}}', '05000000b201ff0000', None),
}

CODECS = {
    "request": (
        encode_request_json, decode_request_json,
        encode_request_bin2, decode_request_bin2,
    ),
    "response": (
        encode_response_json, decode_response_json,
        encode_response_bin2, decode_response_bin2,
    ),
}

IDS = [case_id for case_id, _, _ in CASES]


def test_every_message_type_is_pinned():
    pinned = {type(message) for _, _, message in CASES}
    assert pinned == set(REQUEST_TYPES.values()) | set(RESPONSE_TYPES.values())
    assert len(pinned) == 19
    assert set(GOLDEN) == set(IDS)


@pytest.mark.parametrize("case_id, kind, message", CASES, ids=IDS)
def test_json_envelope_text(case_id, kind, message):
    encode, decode, _, _ = CODECS[kind]
    text = GOLDEN[case_id][0]
    assert encode(message) == text.encode("utf-8")
    assert decode(text) == message


@pytest.mark.parametrize("case_id, kind, message", CASES, ids=IDS)
def test_bin2_frame(case_id, kind, message):
    _, _, encode, decode = CODECS[kind]
    frame = bytes.fromhex(GOLDEN[case_id][1])
    assert encode(message) == frame
    assert decode(frame) == message


@pytest.mark.parametrize(
    "case_id, message",
    [(case_id, message) for case_id, kind, message in CASES if kind == "request"],
    ids=[case_id for case_id, kind, _ in CASES if kind == "request"],
)
def test_interned_second_frame(case_id, message):
    interner = StringInterner()
    first = encode_request_bin2(message, interner)
    second = bytes.fromhex(GOLDEN[case_id][2])
    assert encode_request_bin2(message, interner) == second
    table = StringTable()
    assert decode_request_bin2(first, table) == message
    assert decode_request_bin2(second, table) == message
