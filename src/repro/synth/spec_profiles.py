"""SPEC2000 CINT benchmark profiles (Tables 1 and 2 of the paper).

The paper evaluates ten integer SPEC2000 benchmarks compiled by the LAO
code generator.  We cannot run that compiler, but the paper itself
publishes the structural statistics of the workload (Table 1) and the
query counts of the SSA-destruction pass (Table 2).  This module encodes
those published numbers and provides generators that synthesise procedure
populations whose block-count distribution matches each benchmark's
profile, so the benchmark harness can regenerate the tables with the same
row structure and compare measured columns against the paper's.

Scaling: generating all 4 823 procedures per run would make the pytest
benchmarks take far too long in pure Python, so the harness generates a
scaled-down population per benchmark (``scale`` procedures) while keeping
the per-procedure size distribution faithful; EXPERIMENTS.md records the
scale used for each table.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass

from repro.frontend.compile import compile_source
from repro.ir.function import Function
from repro.synth.program_gen import ProgramGeneratorConfig, random_program_source


@dataclass(frozen=True)
class BenchmarkProfile:
    """Published per-benchmark statistics (Tables 1 and 2)."""

    name: str
    #: Table 2: number of compiled procedures.
    procedures: int
    #: Table 1: average number of basic blocks per procedure.
    avg_blocks: float
    #: Table 1: total number of basic blocks.
    sum_blocks: int
    #: Table 1: percentage of procedures with at most 32 blocks.
    pct_blocks_le_32: float
    #: Table 1: percentage of procedures with at most 64 blocks.
    pct_blocks_le_64: float
    #: Table 1: maximum block count.
    max_blocks: int
    #: Table 1: uses-per-variable CDF (% of variables with ≤ 1, 2, 3, 4 uses).
    pct_uses_le: tuple[float, float, float, float]
    #: Table 2: native (data-flow) precomputation cycles per procedure.
    native_precompute_cycles: float
    #: Table 2: new (checker) precomputation cycles per procedure.
    new_precompute_cycles: float
    #: Table 2: precomputation speed-up reported by the paper.
    precompute_speedup: float
    #: Table 2: number of liveness queries during SSA destruction.
    queries: int
    #: Table 2: native cycles per query.
    native_query_cycles: float
    #: Table 2: new cycles per query.
    new_query_cycles: float
    #: Table 2: query "speed-up" (below 1: the checker's query is slower).
    query_speedup: float
    #: Table 2: combined speed-up (precomputation + queries).
    combined_speedup: float


#: The ten benchmarks of the paper, in table order.
SPEC_PROFILES: tuple[BenchmarkProfile, ...] = (
    BenchmarkProfile(
        "164.gzip", 82, 33.35, 2735, 69.51, 85.36, 51,
        (65.64, 86.38, 92.81, 95.94),
        174000.82, 55054.62, 3.12, 90659, 86.84, 162.23, 0.53, 1.16,
    ),
    BenchmarkProfile(
        "175.vpr", 225, 34.45, 7752, 68.88, 84.44, 75,
        (70.36, 88.90, 93.93, 96.28),
        116963.18, 54291.50, 2.17, 55670, 85.71, 179.38, 0.48, 1.41,
    ),
    BenchmarkProfile(
        "176.gcc", 2019, 38.96, 78666, 72.85, 86.03, 422,
        (73.99, 87.81, 92.42, 94.84),
        205923.64, 67310.79, 3.03, 1109202, 88.17, 339.54, 0.26, 1.00,
    ),
    BenchmarkProfile(
        "181.mcf", 26, 20.31, 528, 84.61, 100.00, 46,
        (66.91, 83.50, 89.33, 94.46),
        65544.73, 35696.62, 1.85, 2369, 84.09, 190.37, 0.44, 1.39,
    ),
    BenchmarkProfile(
        "186.crafty", 109, 69.28, 7551, 59.63, 76.14, 620,
        (72.98, 90.09, 93.85, 95.75),
        437037.94, 156418.57, 2.78, 858121, 81.07, 166.14, 0.49, 0.73,
    ),
    BenchmarkProfile(
        "197.parser", 323, 23.60, 7623, 84.82, 93.49, 96,
        (65.12, 86.75, 94.26, 96.62),
        85194.79, 40392.45, 2.13, 38719, 86.54, 177.81, 0.49, 1.54,
    ),
    BenchmarkProfile(
        "254.gap", 852, 32.89, 28020, 67.60, 87.44, 156,
        (70.46, 85.95, 91.26, 94.54),
        191000.39, 55515.27, 3.45, 245540, 87.38, 168.82, 0.52, 2.08,
    ),
    BenchmarkProfile(
        "255.vortex", 923, 26.46, 24425, 77.57, 90.68, 254,
        (65.99, 90.80, 95.02, 96.97),
        71444.18, 42651.30, 1.67, 88554, 85.09, 187.21, 0.45, 1.32,
    ),
    BenchmarkProfile(
        "256.bzip2", 74, 22.97, 1700, 78.37, 91.89, 36,
        (69.89, 89.89, 94.47, 96.17),
        137544.10, 40178.87, 3.45, 10100, 95.00, 184.86, 0.51, 2.32,
    ),
    BenchmarkProfile(
        "300.twolf", 190, 56.97, 10825, 59.47, 77.36, 165,
        (69.71, 87.59, 93.23, 95.92),
        446186.87, 94197.44, 4.76, 184621, 94.89, 193.81, 0.49, 1.92,
    ),
)

#: Totals row of Tables 1/2 (for reporting convenience).
TOTAL_PROFILE = BenchmarkProfile(
    "Total", 4823, 35.21, 169825, 72.71, 87.18, 620,
    (71.30, 87.85, 92.76, 95.31),
    177655.50, 60375.69, 2.94, 2683555, 86.09, 241.06, 0.36, 1.16,
)


def profile_by_name(name: str) -> BenchmarkProfile:
    """Look up a profile by benchmark name (e.g. ``"176.gcc"``)."""
    for profile in SPEC_PROFILES:
        if profile.name == name:
            return profile
    raise KeyError(f"unknown benchmark {name!r}")


# ----------------------------------------------------------------------
# Block-count sampling
# ----------------------------------------------------------------------
def sample_block_count(rng: random.Random, profile: BenchmarkProfile) -> int:
    """Draw a procedure block count matching the profile's distribution.

    The paper only publishes the mean, two CDF points (≤32, ≤64) and the
    maximum, so the sampler uses a log-normal shape — the textbook model
    for procedure sizes — whose median is tuned to hit the ≤32 percentile
    and whose spread is tuned to the mean, then clips at the published
    maximum.  The Table 1 benchmark asserts that the *measured* statistics
    of the generated population land near the published columns.
    """
    import math

    # Choose sigma so that P(X <= 32) matches the published percentile for
    # a log-normal with the published mean:  mean = exp(mu + sigma^2/2).
    mean = profile.avg_blocks
    target = max(min(profile.pct_blocks_le_32 / 100.0, 0.995), 0.05)
    # Solve for sigma with a small fixed-point search (the relationship is
    # monotone in sigma for the sizes involved).
    best_sigma = 0.8
    best_error = float("inf")
    for step in range(5, 30):
        sigma = step / 10.0
        mu = math.log(mean) - sigma * sigma / 2.0
        z = (math.log(32) - mu) / sigma
        cdf = 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
        error = abs(cdf - target)
        if error < best_error:
            best_error = error
            best_sigma = sigma
    sigma = best_sigma
    mu = math.log(mean) - sigma * sigma / 2.0
    value = int(round(rng.lognormvariate(mu, sigma)))
    return max(3, min(value, profile.max_blocks))


def _config_for_statements(
    statements: int, target_blocks: int, rng: random.Random
) -> ProgramGeneratorConfig:
    """Generator knobs for a given top-level statement budget."""
    return ProgramGeneratorConfig(
        num_statements=max(1, statements),
        max_depth=2 if target_blocks < 40 else 3,
        num_variables=min(4 + target_blocks // 10, 12),
        assign_weight=0.34,
        if_weight=0.26,
        while_weight=0.20,
        dowhile_weight=0.06,
        print_weight=0.07,
        call_weight=0.07,
    )


def generate_function_with_blocks(
    rng: random.Random,
    target_blocks: int,
    name: str,
    max_blocks: int | None = None,
    attempts: int = 4,
) -> Function:
    """Generate one SSA-form function with roughly ``target_blocks`` blocks.

    Program size is controlled indirectly (through the number of
    control-flow statements), so the generator compiles a candidate,
    measures the actual block count and re-scales the statement budget
    until it lands within ~35 % of the target (or attempts run out, in
    which case the closest candidate wins).  An optional hard ``max_blocks``
    cap mirrors the per-benchmark maxima of Table 1.
    """
    statements = max(1, round(target_blocks / 6))
    best: Function | None = None
    best_error = float("inf")
    for _ in range(attempts):
        config = _config_for_statements(statements, target_blocks, rng)
        source = random_program_source(rng, config, name=name)
        function = next(iter(compile_source(source, verify=False)))
        blocks = len(function.blocks)
        over_cap = max_blocks is not None and blocks > max_blocks
        error = abs(blocks - target_blocks) / max(target_blocks, 1)
        if not over_cap and error < best_error:
            best, best_error = function, error
        if not over_cap and error <= 0.35:
            break
        # Re-scale the statement budget proportionally to the miss.
        ratio = target_blocks / max(blocks, 1)
        statements = max(1, round(statements * ratio)) or 1
        if over_cap and statements > 1:
            statements -= 1
    if best is None:
        # Every attempt blew through the cap: fall back to the smallest
        # possible program so the cap is honoured.
        config = _config_for_statements(1, target_blocks, rng)
        source = random_program_source(rng, config, name=name)
        best = next(iter(compile_source(source, verify=False)))
    return best


#: One benchmark procedure in this many is generated over an *irreducible*
#: CFG.  The paper's §6.1 found 60 irreducible back edges across all of
#: SPEC2000 CINT — rare but present — and a workload without any would
#: never exercise the checker's loop-forest fallback (the multi-candidate
#: ``T_q`` loop of Algorithm 3), leaving that path untested by the tables.
IRREDUCIBLE_PERIOD = 12


def generate_benchmark_functions(
    profile: BenchmarkProfile,
    scale: int,
    seed: int = 0,
) -> list[Function]:
    """Generate ``scale`` SSA-form functions shaped like one benchmark.

    The block counts are drawn from :func:`sample_block_count`; most
    bodies come from the terminating program generator and are compiled
    through the normal front-end + SSA pipeline (with a feedback loop that
    keeps the realised block counts close to the sampled targets), and
    every :data:`IRREDUCIBLE_PERIOD`-th procedure is instead generated
    over an irreducible CFG so the population, like SPEC, is not purely
    reducible.
    """
    # crc32, not hash(): str hashes follow PYTHONHASHSEED, and the
    # generated corpus must be the same in every process.
    rng = random.Random((zlib.crc32(profile.name.encode("utf-8")) & 0xFFFF) * 7919 + seed)
    functions: list[Function] = []
    for index in range(scale):
        target_blocks = sample_block_count(rng, profile)
        name = f"proc_{profile.name.replace('.', '_')}_{index}"
        if index % IRREDUCIBLE_PERIOD == IRREDUCIBLE_PERIOD - 1:
            functions.append(
                _irreducible_procedure(rng, target_blocks, name)
            )
            continue
        functions.append(
            generate_function_with_blocks(
                rng,
                target_blocks,
                name=name,
                max_blocks=int(profile.max_blocks * 1.2),
            )
        )
    return functions


def _irreducible_procedure(
    rng: random.Random, target_blocks: int, name: str
) -> Function:
    """One procedure over an (almost certainly) irreducible CFG.

    Uses the random-CFG function generator with irreducibility enabled,
    retrying a few times because tiny graphs occasionally stay reducible
    after the goto-like edges are added; a reducible straggler is kept
    rather than looping forever (the regression test asserts the
    *population* contains irreducible members, not every sample).
    """
    from repro.cfg.reducibility import is_reducible
    from repro.synth.random_function import random_ssa_function

    blocks = max(6, min(target_blocks, 60))
    best = None
    for _ in range(8):
        function = random_ssa_function(
            rng,
            num_blocks=blocks,
            num_variables=4,
            instructions_per_block=4,
            force_irreducible=True,
            name=name,
        )
        # Without φs the procedure would record no destruction queries at
        # all, defeating the purpose of including it in the workload.
        if function.phis() and not is_reducible(function.build_cfg()):
            return function
        if best is None or (function.phis() and not best.phis()):
            best = function
    return best
