"""Seeded inputs for the benchmark: the corpus, the op streams, the answers.

Everything here is a pure function of ``random.Random(seed)``.  It never
calls ``hash()`` and never iterates a set of IR objects, so the inputs do
not depend on ``PYTHONHASHSEED``; ``digest()`` fingerprints them and the
determinism test compares that digest across processes.

The expected answers come from the ``dataflow`` engine
(``repro.liveness.dataflow``) run on the generator's own compiled copy of
each function, with every edit applied exactly as the benchmark later
applies it to the served IR.  The engine under test (the fast checker)
never contributes to an expectation.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

from repro.cfg.dominance import DominatorTree
from repro.frontend.compile import compile_source
from repro.ir.instruction import Instruction, Opcode
from repro.ir.value import Constant
from repro.liveness.dataflow import DataflowLiveness
from repro.synth.program_gen import ProgramGeneratorConfig, random_program_source
from repro.synth.spec_profiles import SPEC_PROFILES, sample_block_count

#: Block-count cap: the 64-block point of the profiles' published CDFs,
#: below which 76-100% of each profile's procedures lie.  Allocation
#: cost grows faster than size (more variables, more spills), so without
#: a cap one 400-block draw from 176.gcc would be most of a lap, and a
#: lap's time would swing with the few largest functions of each seed.
CAP_BLOCKS = 64
#: Block-count draws per profile; the corpus takes evenly spaced order
#: statistics of them, so every seed gets nearly the same size mix.
SIZE_DRAWS = 2048
#: Register budget of every ``passes`` allocation.  Functions near the
#: cap spill at this budget; the small and middle ones, whose cost sets
#: the median op, do not, which keeps that cost steady.
PASSES_REGISTERS = 12
#: Queries in one ``BatchLiveness`` request.
BATCH_QUERIES = 8
#: Liveness queries a ``serve_write`` episode issues between do and undo.
EPISODE_QUERIES = 2
#: Pick weight of a hot ``serve_write`` function (cold ones weigh 1): a
#: hot quarter of the module at weight 9 draws 3 picks in 4.
HOT_WEIGHT = 9.0


@dataclass(frozen=True)
class Size:
    """How much input one run generates."""

    #: Functions drawn from each of the ten SPEC profiles for the serve
    #: workloads, and for ``passes``.  ``passes`` takes more: its tail
    #: op is set by the few functions at the size cap, so it needs many
    #: of them to hold steady from seed to seed (NOTES.md).  The serve
    #: workloads are steady without them, and their set-up would double.
    per_profile: int
    passes_per_profile: int
    #: Ops in one lap of ``serve_read``.
    read_lap: int
    #: Ops in one lap of ``serve_write`` (the last episode may overrun it).
    write_lap: int


SIZES = {
    "full": Size(per_profile=20, passes_per_profile=40, read_lap=10000, write_lap=4000),
    "smoke": Size(per_profile=2, passes_per_profile=2, read_lap=300, write_lap=200),
}


@dataclass
class Inputs:
    """One seed's corpus and op stream for one workload, with the answers."""

    #: ``(function name, source text)`` in compile order.
    sources: list[tuple[str, str]]
    #: ``passes``: corpus indices in lap order.
    passes_order: list[int] = field(default_factory=list)
    #: ``serve_read`` / ``serve_write``: one lap of op tuples each (see
    #: ``read_stream`` and ``write_stream``).
    read_ops: list[tuple] = field(default_factory=list)
    write_ops: list[tuple] = field(default_factory=list)
    #: ``serve_write``: resident-checker budget, below the function count.
    write_capacity: int = 1

    def digest(self) -> str:
        """SHA-256 over the corpus and every op stream, in order."""
        h = hashlib.sha256()
        for item in (
            self.sources,
            self.passes_order,
            self.read_ops,
            self.write_ops,
            self.write_capacity,
            PASSES_REGISTERS,
        ):
            h.update(repr(item).encode())
            h.update(b"\0")
        return h.hexdigest()


# ----------------------------------------------------------------------
# Corpus
# ----------------------------------------------------------------------
def _config(statements: int, target_blocks: int) -> ProgramGeneratorConfig:
    # The knobs repro.synth.spec_profiles uses for SPEC-shaped procedures.
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


def _source_with_blocks(rng: random.Random, target: int, name: str) -> str:
    """Source of one function whose compiled CFG has about ``target`` blocks.

    Retries with a rescaled statement budget until the block count is
    within 10% (or one block) of the target; the closest candidate wins
    when no attempt lands.  The tight tolerance keeps the per-seed spread
    of a lap's total work small.
    """
    statements = max(1, round(target / 6))
    best, best_error = "", None
    for _ in range(12):
        source = random_program_source(rng, _config(statements, target), name=name)
        blocks = len(next(iter(compile_source(source, to_ssa=False, verify=False))).blocks)
        error = abs(blocks - target)
        if best_error is None or error < best_error:
            best, best_error = source, error
        if error <= max(1, target // 10):
            break
        statements = max(1, round(statements * (target / max(blocks, 1)) ** 0.7))
    return best


def corpus_sources(rng: random.Random, per_profile: int) -> list[tuple[str, str]]:
    """``per_profile`` functions shaped like each SPEC profile.

    Sizes are evenly spaced order statistics of ``SIZE_DRAWS`` draws from
    the profile's published block-count distribution, capped at
    ``CAP_BLOCKS``.
    """
    sources = []
    for profile in SPEC_PROFILES:
        draws = sorted(sample_block_count(rng, profile) for _ in range(SIZE_DRAWS))
        short = profile.name.split(".", 1)[1]
        for index in range(per_profile):
            rank = (2 * index + 1) * SIZE_DRAWS // (2 * per_profile)
            target = min(CAP_BLOCKS, draws[rank])
            name = f"{short}_{index}"
            sources.append((name, _source_with_blocks(rng, target, name)))
    return sources


# ----------------------------------------------------------------------
# Edits: the shapes of repro.core.invalidation.TransformationSession
# ----------------------------------------------------------------------
# An edit is ("branch", s, t), ("branch-bare", s, t) or ("use", var, b).
# "branch" turns the jump ending block s into ``branch 1, old, t`` (the
# session's add_branch_target: the new edge is appended after the old
# successor) and is undone by removing that arm again; t strictly
# dominates s, so the dominator tree, and with it strict SSA, survives.
# "branch-bare" is the same edit notified without a CfgDelta (a full
# invalidation).  "use" appends ``store var, var`` before the terminator
# of a block the definition of var dominates (the session's add_use).
def do_edit(function, edit):
    """Apply ``edit`` to ``function`` in place; returns the undo token."""
    kind, first, second = edit
    if kind == "use":
        var = function.variable_by_name(first)
        inst = Instruction(Opcode.STORE, operands=[var, var])
        function.block(second).insert_before_terminator(inst)
        return inst
    block = function.block(first)
    jump = block.terminator()
    block.remove(jump)
    block.append(
        Instruction(
            Opcode.BRANCH, operands=[Constant(1)], targets=[jump.targets[0], second]
        )
    )
    return None


def undo_edit(function, edit, token) -> None:
    """Revert ``do_edit``; the function prints identically afterwards."""
    kind, first, _second = edit
    if kind == "use":
        function.block(token.block.name).remove(token)
        return
    block = function.block(first)
    branch = block.terminator()
    block.remove(branch)
    block.append(Instruction(Opcode.JUMP, targets=[branch.targets[0]]))


def _edit_candidates(function) -> tuple[list, list]:
    """``(branch (s, t) pairs, use (var, block) pairs)`` in block order."""
    domtree = DominatorTree(function.build_cfg())
    names = [block.name for block in function]
    entry = function.entry.name
    phi_free = {block.name for block in function if not block.phis()}
    branches = []
    for block in function:
        jump = block.terminator()
        if jump is None or jump.opcode != Opcode.JUMP:
            continue
        for target in names:
            if (
                target != entry
                and target != block.name
                and target in phi_free
                and target not in jump.targets
                and domtree.dominates(target, block.name)
            ):
                branches.append((block.name, target))
    def_block = {}
    for param in function.parameters:
        def_block[param.name] = entry
    for block in function:
        for inst in block.instructions:
            for var in inst.defined_variables():
                def_block[var.name] = block.name
    uses = [
        (var, target)
        for var, home in def_block.items()
        for target in names
        if target != home and domtree.dominates(home, target)
    ]
    return branches, uses


# ----------------------------------------------------------------------
# Expected answers
# ----------------------------------------------------------------------
class _Facts:
    """Dataflow liveness of one function state, keyed by names."""

    def __init__(self, function) -> None:
        sets = DataflowLiveness(function).live_sets()
        self.blocks = [block.name for block in function]
        self.variables = [var.name for var in function.variables()]
        self.live = {
            True: {b: {v.name for v in vs} for b, vs in sets.live_in.items()},
            False: {b: {v.name for v in vs} for b, vs in sets.live_out.items()},
        }
        self.live_pairs = sorted(
            (want_in, block, var)
            for want_in in (True, False)
            for block, names in self.live[want_in].items()
            for var in names
        )

    def query(self, rng: random.Random) -> tuple[bool, str, str, bool]:
        """``(want_in, variable, block, expected)``; half are live pairs."""
        if self.live_pairs and rng.random() < 0.5:
            want_in, block, var = rng.choice(self.live_pairs)
        else:
            want_in = rng.random() < 0.5
            block = rng.choice(self.blocks)
            var = rng.choice(self.variables)
        return want_in, var, block, var in self.live[want_in][block]

    def live_set(self, rng: random.Random) -> tuple[bool, str, tuple[str, ...]]:
        want_in = rng.random() < 0.5
        block = rng.choice(self.blocks)
        return want_in, block, tuple(sorted(self.live[want_in][block]))


def _read_op(rng, names, weights, facts) -> tuple:
    """One read: ~80% query, ~15% batch, ~5% live set.

    ``weights`` is the popularity of ``names`` (``None``: uniform).
    """
    roll = rng.random()
    if roll < 0.80:
        name = rng.choices(names, weights)[0]
        return ("query", name, *facts[name].query(rng))
    if roll < 0.95:
        items, expected = [], []
        for name in rng.choices(names, weights, k=BATCH_QUERIES):
            want_in, var, block, value = facts[name].query(rng)
            items.append((name, want_in, var, block))
            expected.append(value)
        return ("batch", tuple(items), tuple(expected))
    name = rng.choices(names, weights)[0]
    return ("liveset", name, *facts[name].live_set(rng))


def read_stream(rng, names, facts, length) -> list[tuple]:
    """One ``serve_read`` lap: reads spread evenly over the module."""
    return [_read_op(rng, names, None, facts) for _ in range(length)]


def write_stream(rng, functions, facts, length) -> list[tuple]:
    """One ``serve_write`` lap: reads plus do/undo edit episodes.

    A seeded quarter of the functions is hot and draws three picks in
    four; the cold rest keeps missing in an LRU smaller than the module.
    No single function carries much of the traffic, so which functions
    a seed makes hot moves the lap's cost little.  About one op in three
    belongs to an edit episode: do, ``EPISODE_QUERIES`` queries on the
    edited function with answers computed on the edited IR, undo.  The
    three edit kinds take turns.
    """
    names = sorted(functions)
    rng.shuffle(names)
    hot = len(names) // 4
    weights = [HOT_WEIGHT if rank < hot else 1.0 for rank in range(len(names))]
    candidates = {}
    kinds = ("branch", "branch-bare", "use")
    ops: list[tuple] = []
    episode = 0
    while len(ops) < length:
        if rng.random() >= 0.10:
            ops.append(_read_op(rng, names, weights, facts))
            continue
        kind = kinds[episode % len(kinds)]
        name, edit = _pick_edit(rng, names, weights, functions, candidates, kind)
        if edit is None:
            continue
        episode += 1
        function = functions[name]
        token = do_edit(function, edit)
        edited = _Facts(function)
        undo_edit(function, edit, token)
        ops.append(("edit", name, edit, True))
        for _ in range(EPISODE_QUERIES):
            ops.append(("query", name, *edited.query(rng)))
        ops.append(("edit", name, edit, False))
    return ops


def _pick_edit(rng, names, weights, functions, candidates, kind):
    for _ in range(64):
        name = rng.choices(names, weights)[0]
        if name not in candidates:
            candidates[name] = _edit_candidates(functions[name])
        branches, uses = candidates[name]
        pool = uses if kind == "use" else branches
        if pool:
            first, second = rng.choice(pool)
            return name, (kind, first, second)
    return None, None


# ----------------------------------------------------------------------
# Front door
# ----------------------------------------------------------------------
def build_inputs(seed: int, workload: str, size: str = "full") -> Inputs:
    """Generate every input of one run of ``workload`` from ``seed``."""
    shape = SIZES[size]
    rng = random.Random(seed)
    if workload == "passes":
        sources = corpus_sources(rng, shape.passes_per_profile)
        order = list(range(len(sources)))
        rng.shuffle(order)
        return Inputs(sources=sources, passes_order=order)
    sources = corpus_sources(rng, shape.per_profile)
    functions = {name: next(iter(compile_source(source))) for name, source in sources}
    facts = {name: _Facts(function) for name, function in functions.items()}
    if workload == "serve_read":
        names = [name for name, _source in sources]
        return Inputs(sources=sources, read_ops=read_stream(rng, names, facts, shape.read_lap))
    return Inputs(
        sources=sources,
        write_ops=write_stream(rng, functions, facts, shape.write_lap),
        write_capacity=max(1, len(sources) // 2),
    )
