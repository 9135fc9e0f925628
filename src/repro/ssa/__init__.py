"""SSA machinery: def–use chains, construction and destruction.

* :class:`~repro.ssa.defuse.DefUseChains` — the per-variable ``def(a)`` /
  ``uses(a)`` information the checker consumes, with φ uses attributed to
  predecessor blocks per Definition 1 of the paper.
* :func:`~repro.ssa.construction.construct_ssa` — Cytron-style SSA
  construction (φ placement at iterated dominance frontiers + renaming).
* out-of-SSA translation lives in :mod:`repro.ssadestruct`
  (:func:`repro.ssadestruct.destruct`).
* :class:`~repro.ssadestruct.interference.CopyCoalescer` — Budimlić-style
  interference tests and copy coalescing on top of any liveness oracle
  (re-exported from its new home for compatibility).
"""

from repro.ssa.construction import construct_ssa
from repro.ssa.defuse import DefUseChains, VariableDefUse
from repro.ssadestruct.interference import CopyCoalescer, InterferenceChecker

__all__ = [
    "DefUseChains",
    "VariableDefUse",
    "construct_ssa",
    "CopyCoalescer",
    "InterferenceChecker",
]
