"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload passes --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a separate traced run (see ``layers.py``).  The
last line of standard output is the result object; the line before it
carries the input digest, exact counts and the pinned configuration.
A run always measures at least one whole lap, so ``--seconds 0`` runs
exactly one; ``--size smoke`` generates a small input.  The tests use
both.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Candidate tail percentiles; the highest with at least ten samples
#: beyond it in one lap is reported as ``op_us_tail``.  p99.9 is not a
#: candidate: no lap has more than 10,000 ops, so it would rest on ten
#: samples a lap, too few to hold steady from run to run.
TAIL_LADDER = (90, 99)
#: In each phase of a traced run, at most this share of the timed calls'
#: time may fall outside every named layer (the root spans' own self
#: time); more means a layer's entry point is not wrapped.
ACCOUNTING_TOLERANCE = 0.05

#: Per-layer metric -> the end-to-end metric (and workload) it should move.
MOVES = {
    "frontend.compile_s": "setup_s, all workloads",
    "setup.core.prepare.calls": "setup_s, all workloads",
    "setup.core.prepare_s": "setup_s, all workloads",
    "setup.client.construct_s": "setup_s, all workloads",
    "setup.persist.attach_s": "setup_s on serve_write",
    "setup.trace.named_share": "none: share of traced set-up time inside named layers",
    "core.prepare.calls": "ops_per_s and op_us_tail on passes and serve_write",
    "core.prepare_s": "ops_per_s and op_us_tail on passes and serve_write",
    "core.query.calls": "op_us_p50 on serve_read, ops_per_s on passes",
    "core.query_s": "op_us_p50 on serve_read, ops_per_s on passes",
    "core.incremental.calls": "op_us_tail on serve_write",
    "core.incremental_s": "op_us_tail on serve_write",
    "core.incremental.delta_calls": "op_us_tail on serve_write",
    "core.incremental.applied_ratio": (
        "op_us_tail on serve_write (base: core.incremental.delta_calls)"
    ),
    "service.hit_rate": "ops_per_s on serve_write; stays 1.0 on serve_read (base: service.lookups)",
    "service.lookups": "ops_per_s on serve_write",
    "service.misses": "ops_per_s on serve_write",
    "service.evictions": "ops_per_s on serve_write",
    "service.checker_s": "ops_per_s on serve_write",
    "client.dispatch_self_s": "op_us_p50 on serve_read and serve_write",
    "sharded.dispatch_self_s": "op_us_p50 on serve_read and serve_write",
    "codec.server_self_s": "op_us_p50 on serve_read and serve_write",
    "codec.client_s": "op_us_p50 on serve_read and serve_write",
    "codec.bytes_per_op": "op_us_p50 on serve_read and serve_write (base: trace.ops)",
    "ssadestruct.destruct_self_s": "ops_per_s and out_insts on passes",
    "ssadestruct.coalesced_ratio": "ops_per_s and out_insts on passes (base: ssadestruct.pairs_inserted)",
    "ssadestruct.pairs_inserted": "ops_per_s and out_insts on passes",
    "ssadestruct.interference_tests": "ops_per_s and out_insts on passes",
    "regalloc.allocate_self_s": "ops_per_s, op_us_tail and out_insts on passes",
    "regalloc.prepares_per_fn": "ops_per_s, op_us_tail and out_insts on passes (base: regalloc.functions)",
    "regalloc.functions": "ops_per_s on passes",
    "regalloc.spilled": "ops_per_s, op_us_tail and out_insts on passes",
    "persist.wal.appends": "op_us_p50 and setup_s on serve_write",
    "persist.wal_append_s": "op_us_p50 and setup_s on serve_write",
    "persist.wal_bytes": "op_us_p50 and setup_s on serve_write",
    "persist.snapshot_s": "op_us_p50 and setup_s on serve_write",
    "trace.overhead_ratio": "none: untraced over traced ops_per_s, this workload",
    "trace.ops": "base of the per-lap figures",
    "trace.wall_s": "base of trace.named_share",
    "trace.named_share": "none: share of traced op time inside named layers",
}
#: CFG-notification outcomes (``repro.core.incremental.UpdateResult.reason``).
REASONS = (
    "incremental", "no-op", "full-invalidation", "restored", "block-edit", "strategy", "unknown-node",
    "edge-into-entry", "dfs-change", "tree-edge-removed", "dominators-changed",
)
for _reason in REASONS:
    MOVES[f"core.incremental.reason.{_reason}"] = "op_us_tail on serve_write"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("passes", "serve_read", "serve_write"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    return parser.parse_args(argv)


def _environment(engine: str) -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "engine": engine,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
    }


def _git_sha() -> str | None:
    """HEAD's commit id read from ``.git``, without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _reset_peak_rss() -> None:
    # Writing 5 to clear_refs resets VmHWM to the current RSS, so the
    # peak excludes the input generator's transient memory.
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def _peak_rss_mb() -> float:
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _tail_percentile(lap_ops: int) -> int:
    """Highest ladder percentile with >= 10 samples beyond it in one lap."""
    best = TAIL_LADDER[0]
    for pct in TAIL_LADDER:
        if lap_ops * (100 - pct) >= 1000:
            best = pct
    return best


def _nearest_rank(sorted_values, pct: float) -> float:
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def _run_laps(workload, recorder, seconds: float) -> int:
    done = 0
    while done == 0 or recorder.timed < seconds:
        workload.lap(recorder)
        done += 1
    return done


def _end_to_end(args, inputs, cls, clock):
    from hostspeed import HostSpeed
    from workloads import Recorder

    host = HostSpeed(clock)
    gc.collect()
    _reset_peak_rss()
    setups, raw_setups = [], []
    workload = cls(inputs)
    try:
        for attempt in range(SETUPS):
            if attempt:
                workload.close()
                workload = cls(inputs)
            gc.collect()
            timer = Recorder(clock, host=host)
            workload.setup(timer)
            setups.append(sum(timer.adjusted()))
            raw_setups.append(timer.timed)
        workload.after_setup()
        gc.collect()
        recorder = Recorder(clock, host=host)
        laps = _run_laps(workload, recorder, args.seconds)
        peak = _peak_rss_mb()
        samples = sorted(recorder.adjusted())
        raw = sorted(recorder.seconds)
        tail_pct = _tail_percentile(recorder.attempted // laps)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_s": (len(samples) / sum(samples), "1/s"),
            "op_us_p50": (statistics.median(samples) * 1e6, "us"),
            "op_us_tail": (_nearest_rank(samples, tail_pct) * 1e6, "us"),
            "peak_rss_mb": (peak, "MB"),
            "out_insts": (workload.out_insts(), "count"),
        }
        info = {
            "laps": laps,
            "counts": dict(workload.counts),
            "tail_pct": tail_pct,
            "samples": len(samples),
            "beyond_tail": len(samples) - math.ceil(tail_pct / 100.0 * len(samples)),
            "raw": {
                "setup_s": statistics.median(raw_setups),
                "ops_per_s": len(raw) / sum(raw),
                "op_us_p50": statistics.median(raw) * 1e6,
                "op_us_tail": _nearest_rank(raw, tail_pct) * 1e6,
            },
            "host_kernel_us": statistics.median(host.seconds) * 1e6,
            "failures": recorder.failures,
        }
        return metrics, recorder, info
    finally:
        workload.close()


def _per_layer(args, inputs, cls, clock):
    from hostspeed import HostSpeed
    from layers import LayerTracer
    from workloads import Recorder

    # Untraced reference for the overhead ratio, from its own set-up.
    host = HostSpeed(clock)
    workload = cls(inputs)
    try:
        workload.setup(Recorder(clock))
        workload.after_setup()
        gc.collect()
        plain = Recorder(clock, host=host)
        laps = _run_laps(workload, plain, args.seconds / 2)
    finally:
        workload.close()
    gc.collect()

    tracer = LayerTracer(clock)
    workload = cls(inputs)
    tracer.install()
    try:
        # The same timed calls as an end-to-end set-up, each a root span.
        tracer.phase = "setup"
        workload.setup(Recorder(clock, tracer))
        workload.after_setup()
        tracer.phase = "ops"
        before_stats = workload.service_stats()
        before_bytes = workload.wire_bytes()
        before_wal = workload.wal_bytes()
        gc.collect()
        traced = Recorder(clock, tracer, host)
        for _ in range(laps):
            workload.lap(traced)
        after_stats = workload.service_stats()
        wire = workload.wire_bytes() - before_bytes
        wal = workload.wal_bytes() - before_wal
        counts = dict(workload.counts)
    finally:
        tracer.uninstall()
        workload.close()

    unattributed = {phase: 1.0 - tracer.named_share(phase) for phase in ("setup", "ops")}

    def per_lap(value):
        return value / laps

    def self_s(layer, phase="ops"):
        return tracer.layer_self(phase, layer)

    def calls(layer, phase="ops"):
        return tracer.layer_calls(phase, layer)

    lookups = (after_stats["hits"] - before_stats["hits"]) + (
        after_stats["misses"] - before_stats["misses"]
    )
    hits = after_stats["hits"] - before_stats["hits"]
    notifications = calls("core.incremental")
    deltas = tracer.delta_calls["ops"]
    applied = tracer.reasons.get(("ops", "incremental"), 0) + tracer.reasons.get(
        ("ops", "no-op"), 0
    )
    allocations = calls("regalloc.allocate")
    pairs = tracer.destruct["pairs_inserted"]
    # Both rates at the reference host's speed: the two runs are apart in
    # time, and the host's speed may differ between them.
    untraced_rate = plain.attempted / sum(plain.adjusted())
    traced_rate = traced.attempted / sum(traced.adjusted())
    metrics = {
        "frontend.compile_s": (self_s("frontend.compile", "setup"), "s"),
        "setup.core.prepare.calls": (calls("core.prepare", "setup"), "count"),
        "setup.core.prepare_s": (self_s("core.prepare", "setup"), "s"),
        "setup.client.construct_s": (self_s("client.construct", "setup"), "s"),
        "setup.persist.attach_s": (self_s("persist.attach", "setup"), "s"),
        "setup.trace.named_share": (tracer.named_share("setup"), "ratio"),
        "core.prepare.calls": (per_lap(calls("core.prepare")), "count"),
        "core.prepare_s": (per_lap(self_s("core.prepare")), "s"),
        "core.query.calls": (per_lap(calls("core.query")), "count"),
        "core.query_s": (per_lap(self_s("core.query")), "s"),
        "core.incremental.calls": (per_lap(notifications), "count"),
        "core.incremental.delta_calls": (per_lap(deltas), "count"),
        "core.incremental_s": (per_lap(self_s("core.incremental")), "s"),
        "core.incremental.applied_ratio": (applied / deltas if deltas else 0.0, "ratio"),
        "service.hit_rate": (hits / lookups if lookups else 0.0, "ratio"),
        "service.lookups": (per_lap(lookups), "count"),
        "service.misses": (per_lap(after_stats["misses"] - before_stats["misses"]), "count"),
        "service.evictions": (
            per_lap(after_stats["evictions"] - before_stats["evictions"]), "count"
        ),
        "service.checker_s": (per_lap(self_s("service.checker")), "s"),
        "client.dispatch_self_s": (per_lap(self_s("client.dispatch")), "s"),
        "sharded.dispatch_self_s": (per_lap(self_s("sharded.dispatch")), "s"),
        "codec.server_self_s": (per_lap(self_s("codec.server")), "s"),
        "codec.client_s": (per_lap(self_s("codec.client")), "s"),
        "codec.bytes_per_op": (wire / traced.attempted, "B"),
        "ssadestruct.destruct_self_s": (per_lap(self_s("ssadestruct.destruct")), "s"),
        "ssadestruct.coalesced_ratio": (
            tracer.destruct["pairs_coalesced"] / pairs if pairs else 0.0, "ratio"
        ),
        "ssadestruct.pairs_inserted": (per_lap(pairs), "count"),
        "ssadestruct.interference_tests": (
            per_lap(tracer.destruct["interference_tests"]), "count"
        ),
        "regalloc.allocate_self_s": (per_lap(self_s("regalloc.allocate")), "s"),
        "regalloc.prepares_per_fn": (
            tracer.prepares_in_allocate / allocations if allocations else 0.0, "ratio"
        ),
        "regalloc.functions": (per_lap(allocations), "count"),
        "regalloc.spilled": (per_lap(counts.get("spilled", 0)), "count"),
        "persist.wal.appends": (per_lap(calls("persist.wal_append")), "count"),
        "persist.wal_append_s": (per_lap(self_s("persist.wal_append")), "s"),
        "persist.wal_bytes": (per_lap(wal), "B"),
        "persist.snapshot_s": (self_s("persist.snapshot", "setup"), "s"),
        "trace.overhead_ratio": (untraced_rate / traced_rate, "ratio"),
        "trace.ops": (per_lap(traced.attempted), "count"),
        "trace.wall_s": (per_lap(traced.timed), "s"),
        "trace.named_share": (tracer.named_share("ops"), "ratio"),
    }
    for reason in REASONS:
        metrics[f"core.incremental.reason.{reason}"] = (
            per_lap(tracer.reasons.get(("ops", reason), 0)), "count"
        )
    info = {
        "laps": laps,
        "counts": counts,
        "reasons": {
            reason: count for (phase, reason), count in sorted(tracer.reasons.items())
            if phase == "ops"
        },
        "unattributed_share": unattributed,
        "accounting_tolerance": ACCOUNTING_TOLERANCE,
        "untraced_ops": plain.attempted,
        "moves": MOVES,
        "failures": (plain.failures + traced.failures)[:5],
    }
    accounted = all(share <= ACCOUNTING_TOLERANCE for share in unattributed.values())
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    return metrics, (attempted, failed, accounted), info


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    engine = os.environ.get("REPRO_ENGINE")
    if engine not in (None, "", "fast"):
        # LivenessService reads REPRO_ENGINE when no engine is passed;
        # the benchmark measures the default engine and nothing else.
        print(f"perfbench: refusing to run with REPRO_ENGINE={engine!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from inputs import build_inputs
    from workloads import WORKLOADS

    from repro.service import LivenessService

    clock = time.perf_counter
    inputs = build_inputs(args.seed, args.workload, args.size)
    cls = WORKLOADS[args.workload]
    if args.trace:
        metrics, (attempted, failed, accounted), info = _per_layer(args, inputs, cls, clock)
        correct = failed == 0 and accounted
    else:
        metrics, recorder, info = _end_to_end(args, inputs, cls, clock)
        attempted, failed = recorder.attempted, recorder.failed
        correct = failed == 0
    info.update(
        workload=args.workload,
        seed=args.seed,
        size=args.size,
        digest=inputs.digest(),
        env=_environment(LivenessService().engine),
    )
    print(json.dumps(info, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
