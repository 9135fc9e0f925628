"""Property test: the Budimlić interference test equals live-range overlap.

The interference test used by SSA destruction and coalescing answers
"do the live ranges of ``a`` and ``b`` intersect?" with a constant number
of liveness queries plus a local scan.  This test checks it against a
deliberately naive oracle on ≥100 random SSA functions: materialise the
full live range of every variable — every (block, instruction) point where
its value is still needed, plus its definition point — from an independent
data-flow analysis, and intersect the ranges wholesale.
"""

from __future__ import annotations

import itertools

import pytest

from repro.core.live_checker import FastLivenessChecker
from repro.ir.value import Variable
from repro.liveness.dataflow import DataflowLiveness
from repro.ssadestruct.interference import InterferenceChecker
from tests.support.genfn import GenSpec, generate_function


def _live_ranges(function) -> dict[Variable, set[tuple[str, int]]]:
    """Every variable's live range as a set of (block, index) points.

    A point ``(B, i)`` belongs to the range of ``v`` when ``v`` is still
    needed *after* instruction ``i`` of ``B``; the definition point itself
    is always included (the value is written there, so the variable
    occupies a register at that point even if never read).  Block-level
    liveness comes from the conventional data-flow engine; the in-block
    refinement is a backward scan adding non-φ operand uses and removing
    definitions, mirroring the paper's Definition 1 (φ operands are uses
    in the predecessor, φ results plain definitions).
    """
    sets = DataflowLiveness(function).live_sets()
    ranges: dict[Variable, set[tuple[str, int]]] = {}

    def record(var: Variable, block: str, index: int) -> None:
        ranges.setdefault(var, set()).add((block, index))

    for block in function:
        live = set(sets.live_out[block.name])
        for index in range(len(block.instructions) - 1, -1, -1):
            for var in live:
                record(var, block.name, index)
            inst = block.instructions[index]
            if inst.result is not None:
                live.discard(inst.result)
                record(inst.result, block.name, index)
            if not inst.is_phi():
                for value in inst.operands:
                    if isinstance(value, Variable):
                        live.add(value)
    return ranges


def _check_function(function, oracle) -> int:
    checker = InterferenceChecker(function, oracle)
    ranges = _live_ranges(function)
    variables = checker.defuse.variables()
    pairs = 0
    for a, b in itertools.combinations(variables, 2):
        expected = bool(ranges.get(a, set()) & ranges.get(b, set()))
        assert checker.interfere(a, b) == expected, (
            f"{a.name} vs {b.name}: Budimlić test says "
            f"{not expected}, live-range overlap says {expected}"
        )
        # The test must also be symmetric.
        assert checker.interfere(b, a) == expected
        pairs += 1
    return pairs


@pytest.mark.parametrize("seed", range(100))
def test_interference_equals_live_range_overlap(seed):
    function = generate_function(
        31000 + seed,
        GenSpec(
            blocks=3 + seed % 9,
            pool_variables=2 + seed % 4,
            instructions_per_block=1 + seed % 3,
            loop_depth=seed % 4,
            phi_density=0.3 + 0.15 * (seed % 4),
            irreducible=(seed % 3 == 0),
        ),
    )
    pairs = _check_function(function, FastLivenessChecker(function))
    assert pairs > 0


@pytest.mark.parametrize("seed", range(10))
def test_interference_with_dataflow_oracle(seed):
    function = generate_function(32000 + seed, GenSpec(blocks=3 + seed % 7))
    _check_function(function, DataflowLiveness(function))


def test_interference_on_structured_programs(gcd_function, nested_function):
    for function in (gcd_function, nested_function):
        _check_function(function, FastLivenessChecker(function))
