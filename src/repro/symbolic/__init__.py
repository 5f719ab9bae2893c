"""Symbolic boolean algebra: a hash-consed BDD engine + relations.

* :mod:`repro.symbolic.bdd` -- a hash-consed ROBDD engine over integer
  variables (fixed ascending variable order, memoized ``ite``), so
  semantically equal functions are pointer-equal;
* :mod:`repro.symbolic.relation` -- quantification, variable-pairing
  substitution and the ``and_exists`` relational product with
  early-quantification image scheduling.

The package has no production caller.  Its one user is
:func:`repro.automata.reachable_set_summary`, which is off the verify
path and kept only because the benchmark's traced layer table wraps it;
both go together once that table stops doing so.  The VHDL guard
rewrite (:mod:`repro.automata.simplify`) works on per-state truth
tables and needs no BDD.
"""

from .bdd import FALSE, TRUE, BddEngine, BddError
from .relation import (VariablePairing, and_exists, exists, forall,
                       reachable_states, relational_image, rename)

__all__ = [
    "FALSE", "TRUE", "BddEngine", "BddError",
    "VariablePairing", "and_exists", "exists", "forall",
    "reachable_states", "relational_image", "rename",
]
