"""Controller synthesis: FSM core, system/datapath/IO controllers, arbiters."""

from .fsm import Fsm, FsmError, FsmTransition, encode_states
from .system_controller import (ControllerHarness, SystemController,
                                controller_composition,
                                synthesize_system_controller)
from .verify import CompositionCheck, verify_composition
from .guards import harvest_care_sets
from .datapath_controller import (DatapathController,
                                  synthesize_datapath_controller)
from .io_controller import IoController, synthesize_io_controller
from .bus_arbiter import Arbiter, FixedPriorityArbiter, RoundRobinArbiter

__all__ = [
    "Fsm", "FsmError", "FsmTransition", "encode_states",
    "ControllerHarness", "SystemController", "controller_composition",
    "synthesize_system_controller",
    "CompositionCheck", "verify_composition",
    "harvest_care_sets",
    "DatapathController", "synthesize_datapath_controller", "IoController",
    "synthesize_io_controller", "Arbiter", "FixedPriorityArbiter",
    "RoundRobinArbiter",
]
