"""Out-of-SSA translation driven by liveness *queries* (the flagship client).

The paper's pitch is that passes like SSA destruction ask many scattered
``is_live_out(q, a)`` questions and never need whole live sets; this
package is that pass, built so every interference decision is a pair of
checker queries:

* :mod:`repro.ssadestruct.isolate` — φ isolation into
  :class:`~repro.ir.instruction.ParallelCopy` instructions (establishes
  conventional SSA);
* :mod:`repro.ssadestruct.coalesce` — congruence classes plus aggressive
  copy coalescing with pluggable interference strategies (liveness
  queries vs. a full interference graph);
* :mod:`repro.ssadestruct.sequential` — class renaming and parallel-copy
  sequentialisation with cycle breaking;
* :mod:`repro.ssadestruct.verify` — conventional-SSA and output verifiers;
* :mod:`repro.ssadestruct.pipeline` — the :func:`destruct` driver tying
  the stages together per backend.

* :mod:`repro.ssadestruct.interference` — the Budimlić interference
  test and the conservative copy coalescer.
"""

from repro.ssadestruct.coalesce import (
    CoalesceDecision,
    CoalesceReport,
    CongruenceClasses,
    GraphInterference,
    QueryInterference,
    coalesce_parallel_copies,
)
from repro.ssadestruct.interference import (
    CoalescingReport,
    CopyCoalescer,
    InterferenceChecker,
)
from repro.ssadestruct.isolate import IsolationReport, isolate_phis
from repro.ssadestruct.names import NameAllocator
from repro.ssadestruct.pipeline import (
    BACKENDS,
    DestructReport,
    destruct,
    phi_related_variables,
)
from repro.ssadestruct.sequential import LoweringReport, apply_renaming_and_lower
from repro.ssadestruct.verify import (
    ConventionalSSAError,
    phi_congruence_classes,
    verify_conventional_ssa,
    verify_destructed,
)

__all__ = [
    "BACKENDS",
    "CoalesceDecision",
    "CoalesceReport",
    "CoalescingReport",
    "CopyCoalescer",
    "InterferenceChecker",
    "CongruenceClasses",
    "ConventionalSSAError",
    "DestructReport",
    "GraphInterference",
    "IsolationReport",
    "LoweringReport",
    "NameAllocator",
    "QueryInterference",
    "apply_renaming_and_lower",
    "coalesce_parallel_copies",
    "destruct",
    "isolate_phis",
    "phi_related_variables",
    "phi_congruence_classes",
    "verify_conventional_ssa",
    "verify_destructed",
]
