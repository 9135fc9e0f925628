"""Chordal coloring: validity against the Budimlić test, optimality vs MaxLive."""

from __future__ import annotations

import itertools
import random

import pytest

from repro.core.live_checker import FastLivenessChecker
from repro.regalloc.chordal import color_function
from repro.regalloc.pressure import compute_pressure
from repro.ssadestruct.interference import InterferenceChecker


@pytest.mark.parametrize("seed", range(20))
def test_interfering_variables_get_distinct_colors(seed):
    from repro.synth.random_function import random_ssa_function

    rng = random.Random(5100 + seed)
    function = random_ssa_function(
        rng, num_blocks=rng.randrange(4, 12), allow_irreducible=(seed % 2 == 0)
    )
    checker = FastLivenessChecker(function)
    coloring = color_function(function, checker)
    interference = InterferenceChecker(function, checker)
    variables = coloring.order
    assert set(map(id, variables)) == set(map(id, function.variables()))
    for a, b in itertools.combinations(variables, 2):
        if interference.interfere(a, b):
            assert coloring.color_of[a] != coloring.color_of[b], (
                f"{a.name} and {b.name} interfere but share "
                f"r{coloring.color_of[a]}"
            )


@pytest.mark.parametrize("seed", range(20))
def test_coloring_is_optimal(seed):
    from repro.synth.random_function import random_ssa_function

    rng = random.Random(5300 + seed)
    function = random_ssa_function(rng, num_blocks=rng.randrange(4, 14))
    checker = FastLivenessChecker(function)
    info = compute_pressure(function, checker)
    coloring = color_function(function, checker)
    assert coloring.num_colors == info.max_live


def test_colors_are_dense_and_zero_based(gcd_function):
    checker = FastLivenessChecker(gcd_function)
    coloring = color_function(gcd_function, checker)
    used = set(coloring.color_of.values())
    assert used == set(range(coloring.num_colors))


def test_straightline_code_reuses_registers():
    from repro.frontend import compile_source

    function = compile_source(
        """
        func chain(a) {
            b = a + 1;
            c = b + 1;
            d = c + 1;
            return d;
        }
        """
    ).function("chain")
    checker = FastLivenessChecker(function)
    coloring = color_function(function, checker)
    # Each value dies feeding the next, so two registers suffice
    # (the defined value briefly coexists with its operand).
    assert coloring.num_colors == compute_pressure(function, checker).max_live
    assert coloring.num_colors <= 2
