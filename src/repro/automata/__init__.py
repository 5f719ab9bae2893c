"""Shared automaton kernel: one core, one minimizer, one executor.

``repro.stg`` and ``repro.controllers.fsm`` are thin views over this
package; see :mod:`repro.automata.core` for the design notes.
"""

from .bisim import BisimResult, distinguishing_trace, weak_bisimilar
from .core import (AutomataError, Automaton, AutomatonBuilder, SymbolTable,
                   Transition)
from .encoding import encode_automaton, encode_names
from .executor import Firing, SequentialRunner, TokenExecutor
from .minimize import (PartitionRefinement, minimize_automaton, quotient,
                       refine_partition)
from .product import (CompositionConfig, ProductEnvironment,
                      SynchronousComposition, internal_signals,
                      reachable_automaton, synchronous_product)
from .symbolic import (ClassVerdict, LazyStepSystem, SymbolicEquivalence,
                       reachable_set_summary, symbolic_trace_equivalence)

__all__ = [
    "AutomataError", "Automaton", "AutomatonBuilder", "SymbolTable",
    "Transition", "encode_automaton", "encode_names", "Firing",
    "SequentialRunner", "TokenExecutor", "PartitionRefinement",
    "minimize_automaton", "quotient", "refine_partition",
    "BisimResult", "distinguishing_trace", "weak_bisimilar",
    "CompositionConfig", "ProductEnvironment", "SynchronousComposition",
    "internal_signals", "reachable_automaton", "synchronous_product",
    "ClassVerdict", "LazyStepSystem", "SymbolicEquivalence",
    "reachable_set_summary", "symbolic_trace_equivalence",
]
