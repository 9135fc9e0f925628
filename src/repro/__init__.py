"""repro — Fast Liveness Checking for SSA-Form Programs.

A full reproduction of Boissinot, Hack, Grund, Dupont de Dinechin and
Rastello, *Fast Liveness Checking for SSA-Form Programs* (CGO 2008),
including every substrate the paper relies on: a small SSA IR with
construction and destruction passes, the CFG analyses (DFS, dominance,
reducibility, loop forests), conventional liveness baselines, and the
paper's liveness checker itself with its bitset engineering, plus the
benchmark harness reproducing the paper's tables.

Typical use::

    from repro import compile_source, FastLivenessChecker

    module = compile_source('''
    func count(n) {
        s = 0;
        while (n > 0) { s = s + n; n = n - 1; }
        return s;
    }
    ''')
    function = module.function("count")
    checker = FastLivenessChecker(function)
    s = function.variable_by_name("s.3")
    print(checker.is_live_in(s, "bb2"))

See ``DESIGN.md`` for the module map and ``EXPERIMENTS.md`` for the
reproduction of the paper's evaluation.
"""

from repro.api import (
    ApiError,
    CompilerClient,
    EngineSpec,
    ErrorCode,
    FunctionHandle,
    QueryKind,
    StatsRequest,
    StatsResponse,
    available_engines,
    get_engine,
    register_engine,
)
from repro.cfg import (
    ControlFlowGraph,
    DepthFirstSearch,
    DominanceFrontiers,
    DominatorTree,
    EdgeKind,
    LoopNestingForest,
    PostDominatorTree,
    is_reducible,
)
from repro.concurrent import (
    ProcClient,
    ShardedClient,
    ShardedService,
    WireServer,
    serve_loop,
)
from repro.core import (
    BitsetChecker,
    FastLivenessChecker,
    LivenessPrecomputation,
    LoopForestChecker,
    ReducedReachability,
    SetBasedChecker,
    TargetSets,
    TransformationSession,
)
from repro.frontend import compile_function, compile_source
from repro.ir import (
    BasicBlock,
    Function,
    FunctionBuilder,
    Instruction,
    Module,
    ParallelCopy,
    Phi,
    Variable,
    parse_function,
    print_function,
    verify_ssa,
)
from repro.liveness import (
    CountingOracle,
    DataflowLiveness,
    LivenessOracle,
    PathExplorationLiveness,
)
from repro.obs import MetricsRegistry, Observability, Tracer, to_prometheus
from repro.regalloc import (
    Allocation,
    allocate,
    color_function,
    compute_pressure,
    max_live,
    verify_allocation,
)
from repro.service import LivenessRequest, LivenessService, ServiceStats
from repro.ssa import (
    CopyCoalescer,
    DefUseChains,
    InterferenceChecker,
    construct_ssa,
)
from repro.ssadestruct import (
    DestructReport,
    destruct,
    verify_conventional_ssa,
    verify_destructed,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # api (the versioned front door)
    "ApiError",
    "CompilerClient",
    "EngineSpec",
    "ErrorCode",
    "FunctionHandle",
    "QueryKind",
    "StatsRequest",
    "StatsResponse",
    "available_engines",
    "get_engine",
    "register_engine",
    # cfg
    "ControlFlowGraph",
    "DepthFirstSearch",
    "EdgeKind",
    "DominatorTree",
    "DominanceFrontiers",
    "PostDominatorTree",
    "LoopNestingForest",
    "is_reducible",
    # ir
    "Variable",
    "Instruction",
    "Phi",
    "ParallelCopy",
    "BasicBlock",
    "Function",
    "Module",
    "FunctionBuilder",
    "parse_function",
    "print_function",
    "verify_ssa",
    # ssa
    "DefUseChains",
    "construct_ssa",
    "InterferenceChecker",
    "CopyCoalescer",
    # ssadestruct (the staged out-of-SSA client)
    "destruct",
    "DestructReport",
    "verify_conventional_ssa",
    "verify_destructed",
    # liveness
    "LivenessOracle",
    "CountingOracle",
    "DataflowLiveness",
    "PathExplorationLiveness",
    # core (the paper)
    "LivenessPrecomputation",
    "ReducedReachability",
    "TargetSets",
    "SetBasedChecker",
    "BitsetChecker",
    "FastLivenessChecker",
    "LoopForestChecker",
    "TransformationSession",
    # regalloc (the query-driven client)
    "Allocation",
    "allocate",
    "color_function",
    "compute_pressure",
    "max_live",
    "verify_allocation",
    # obs (metrics, tracing, wire-drivable introspection)
    "MetricsRegistry",
    "Observability",
    "Tracer",
    "to_prometheus",
    # service (multi-function front door)
    "LivenessService",
    "LivenessRequest",
    "ServiceStats",
    # concurrent (sharded thread-safe + multi-process serving)
    "ProcClient",
    "ShardedClient",
    "ShardedService",
    "WireServer",
    "serve_loop",
    # frontend
    "compile_source",
    "compile_function",
]
