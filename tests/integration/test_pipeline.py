"""End-to-end pipeline tests: source → SSA → liveness → destruction → run."""

import pytest

from repro.core import FastLivenessChecker
from repro.frontend import compile_source
from repro.ir import verify_function, verify_ssa
from repro.ir.interp import execute
from repro.liveness import CountingOracle, DataflowLiveness, PathExplorationLiveness
from repro.ssa import DefUseChains
from repro.ssadestruct import destruct, phi_related_variables
from repro.synth import generate_benchmark_functions
from repro.synth.spec_profiles import profile_by_name

MATMUL_SOURCE = """
func dot3(a0, a1) {
    total = 0;
    i = 0;
    while (i < 3) {
        x = a0 + i;
        y = a1 - i;
        total = total + x * y;
        i = i + 1;
    }
    return total;
}
"""

COLLATZ_SOURCE = """
func collatz(n) {
    steps = 0;
    while (n != 1) {
        if (n % 2 == 0) {
            n = n / 2;
        } else {
            n = 3 * n + 1;
        }
        steps = steps + 1;
        if (steps > 1000) { break; }
    }
    return steps;
}
"""


class TestFullPipeline:
    @pytest.mark.parametrize(
        "source,args,expected",
        [
            (MATMUL_SOURCE, [2, 5], 2 * 5 + 3 * 4 + 4 * 3),
            (COLLATZ_SOURCE, [6], 8),
            (COLLATZ_SOURCE, [27], 111),
        ],
    )
    def test_compile_analyse_destruct_execute(self, source, args, expected):
        function = list(compile_source(source))[0]
        verify_ssa(function)

        # All three liveness engines agree on every query.
        checker = FastLivenessChecker(function)
        dataflow = DataflowLiveness(function)
        reference = PathExplorationLiveness(function)
        for var in checker.live_variables():
            for block in function.blocks:
                answers = {
                    engine.is_live_in(var, block)
                    for engine in (checker, dataflow, reference)
                }
                assert len(answers) == 1

        # The program computes the right thing before and after destruction.
        assert execute(function, args).return_value == expected
        destruct(function)
        verify_function(function)
        assert execute(function, args).return_value == expected

    def test_spec_shaped_workload_end_to_end(self):
        functions = generate_benchmark_functions(profile_by_name("256.bzip2"), scale=3)
        for function in functions:
            checker = CountingOracle(FastLivenessChecker(function))
            report = destruct(function, oracle_factory=lambda fn, checker=checker: checker)
            verify_function(function)
            assert report.phis_isolated >= 0
            # Each Budimlić test issues at most one block-level liveness
            # query; tests decided structurally (same parallel copy,
            # dominance-unrelated definitions) issue none.
            assert checker.total_queries <= report.interference_tests
            if report.phis_isolated:
                assert checker.total_queries > 0

    def test_queries_per_variable_is_in_plausible_range(self):
        """Table 2 reports ~5 queries per variable on average for SSA
        destruction; our pass should be in the same order of magnitude."""
        functions = generate_benchmark_functions(profile_by_name("164.gzip"), scale=4)
        total_queries = 0
        total_phi_vars = 0
        for function in functions:
            counting = CountingOracle(FastLivenessChecker(function))
            related = phi_related_variables(function)
            destruct(function, oracle_factory=lambda fn, counting=counting: counting)
            total_queries += counting.total_queries
            total_phi_vars += max(len(related), 1)
        ratio = total_queries / total_phi_vars
        assert 0.3 < ratio < 60

    def test_def_use_statistics_match_paper_shape(self):
        """Table 1 shape: the overwhelming majority of variables have at
        most four uses."""
        functions = generate_benchmark_functions(profile_by_name("254.gap"), scale=6)
        few_uses = 0
        total = 0
        for function in functions:
            chains = DefUseChains(function)
            for var in chains.variables():
                total += 1
                if chains.num_uses(var) <= 4:
                    few_uses += 1
        assert few_uses / total > 0.85
