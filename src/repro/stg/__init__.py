"""State/transition graph co-synthesis: builder, minimizer, memory map."""

from .states import StateKind, Stg, StgError, StgState, StgTransition
from .builder import (GLOBAL_DONE_NAME, GLOBAL_EXEC_NAME, GLOBAL_RESET_NAME,
                      build_stg, done_name, exec_name, global_state,
                      wait_name)
from .interp import StgExecutor
from .minimize import MinimizationReport, minimize_stg
from .memory import MemoryCell, MemoryError, MemoryMap, allocate_memory
from .render import memory_map_text, stg_summary_text, stg_to_dot

__all__ = [
    "StateKind", "Stg", "StgError", "StgState", "StgTransition",
    "build_stg", "done_name", "exec_name", "wait_name", "global_state",
    "GLOBAL_RESET_NAME", "GLOBAL_EXEC_NAME", "GLOBAL_DONE_NAME",
    "StgExecutor", "MinimizationReport", "minimize_stg",
    "MemoryCell", "MemoryError", "MemoryMap", "allocate_memory",
    "memory_map_text", "stg_summary_text", "stg_to_dot",
]
