"""Symbolic boolean algebra: hash-consed BDDs + two-level covers.

Kernel transition guards are conjunctions of positive literals
(:attr:`repro.automata.Transition.conditions`); this package is the
algebra the two symbolic consumers build on:

* :mod:`repro.symbolic.bdd` -- a hash-consed ROBDD engine over interned
  signal IDs (fixed ascending variable order, memoized ``ite``), so
  semantically equal functions are pointer-equal and implication /
  tautology are cheap;
* :mod:`repro.symbolic.cover` -- ESPRESSO-lite two-level covers
  (Minato-Morreale ISOP, expand, irredundant) for emitting compact
  sum-of-products expressions;
* :mod:`repro.symbolic.relation` -- quantification, variable-pairing
  substitution and the ``and_exists`` relational product with
  early-quantification image scheduling, the substrate of the symbolic
  verification tier (:mod:`repro.automata.symbolic`).

The one guard rewrite lives at VHDL emission:
:func:`repro.codegen.fsm_to_vhdl` with ``simplify=True`` re-covers each
state's cascade through :mod:`repro.automata.simplify`.
"""

from .bdd import FALSE, TRUE, BddEngine, BddError
from .cover import (Cube, cover_literals, cover_node, cube_node,
                    expand_cubes, irredundant_cover, isop, minimal_cover)
from .relation import (VariablePairing, and_exists, exists, forall,
                       reachable_states, relational_image, rename)

__all__ = [
    "FALSE", "TRUE", "BddEngine", "BddError",
    "Cube", "cover_literals", "cover_node", "cube_node", "expand_cubes",
    "irredundant_cover", "isop", "minimal_cover",
    "VariablePairing", "and_exists", "exists", "forall",
    "reachable_states", "relational_image", "rename",
]
