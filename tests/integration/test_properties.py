"""Hypothesis property tests over randomly generated programs and graphs.

The strategies draw RNG seeds and size knobs; the actual structures come
from the library's own generators — functions through the suite's shared
:mod:`tests.support.genfn` — so shrinking a failing example reduces to
shrinking a seed + size pair, which stays readable.
"""

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import FastLivenessChecker, LivenessPrecomputation, SetBasedChecker
from repro.ir import verify_function, verify_ssa
from repro.ir.interp import execute
from repro.liveness import DataflowLiveness, PathExplorationLiveness
from repro.ssadestruct import destruct
from repro.synth import random_cfg
from tests.conftest import reference_is_live_in, reference_is_live_out
from tests.support.genfn import GenSpec, generate_function, structured_function

SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

seeds = st.integers(min_value=0, max_value=10_000)
sizes = st.integers(min_value=2, max_value=18)


@given(seed=seeds, size=sizes)
@SETTINGS
def test_node_level_checker_matches_brute_force(seed, size):
    """Algorithms 1/2 equal the path-based Definitions 2/3 on random CFGs."""
    rng = random.Random(seed)
    graph = random_cfg(rng, size)
    pre = LivenessPrecomputation(graph)
    checker = SetBasedChecker(pre)
    nodes = graph.nodes()
    for _ in range(6):
        def_node = rng.choice(nodes)
        uses = {
            node
            for node in (rng.choice(nodes) for _ in range(3))
            if pre.domtree.dominates(def_node, node)
        }
        for query in nodes:
            assert checker.is_live_in(def_node, uses, query) == reference_is_live_in(
                graph, def_node, uses, query
            )
            assert checker.is_live_out(def_node, uses, query) == reference_is_live_out(
                graph, def_node, uses, query
            )


@given(seed=seeds, size=st.integers(min_value=3, max_value=14))
@SETTINGS
def test_function_level_engines_agree(seed, size):
    """The checker, the data-flow baseline and the path-exploration engine
    answer identically for every (variable, block) pair."""
    function = generate_function(
        seed, GenSpec(blocks=size, pool_variables=4, irreducible=(seed % 3 == 0))
    )
    verify_ssa(function)
    checker = FastLivenessChecker(function)
    dataflow = DataflowLiveness(function)
    reference = PathExplorationLiveness(function)
    for var in checker.live_variables():
        for block in function.blocks:
            expected = reference.is_live_in(var, block)
            assert checker.is_live_in(var, block) == expected
            assert dataflow.is_live_in(var, block) == expected
            expected_out = reference.is_live_out(var, block)
            assert checker.is_live_out(var, block) == expected_out
            assert dataflow.is_live_out(var, block) == expected_out


@given(seed=seeds)
@SETTINGS
def test_compiled_random_programs_round_trip_through_the_pipeline(seed):
    """front-end → SSA → destruction preserves observable behaviour."""
    rng = random.Random(seed)
    function = structured_function(seed, target_blocks=3 + seed % 20)
    args = [rng.randrange(-5, 6), rng.randrange(0, 6)]
    before = execute(function, args).observable()
    destruct(function)
    verify_function(function)
    assert execute(function, args).observable() == before


@given(seed=seeds, size=sizes)
@SETTINGS
def test_precomputation_invariants(seed, size):
    """Structural invariants: R monotone along reduced edges, T_q members
    below q's dominators, numbering consistent."""
    rng = random.Random(seed)
    graph = random_cfg(rng, size)
    pre = LivenessPrecomputation(graph)
    for node in graph.nodes():
        assert pre.node_of(pre.num(node)) == node
        assert pre.num(node) <= pre.maxnum(node)
        # q itself is always in T_q (the trivial candidate).
        assert node in pre.targets.target_nodes(node)
        for target in pre.targets.target_nodes(node):
            if target != node:
                # Every non-trivial member of T_q is a back-edge target.
                assert pre.is_back_edge_target(target)
    for source, target in graph.edges():
        if not pre.dfs.is_back_edge(source, target):
            assert pre.reach.bitset(target).issubset(pre.reach.bitset(source))
