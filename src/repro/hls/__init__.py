"""High-level synthesis substrate (OSCAR-style).

One path per task node: expand it into a DFG, give every used category
one functional unit, list-schedule by ALAP urgency, bind FUs and
registers left-edge, assemble the RTL datapath and price it in CLBs.
All nodes on one FPGA share a datapath (:func:`synthesize_resource`).
"""

from .dfg import Dfg, DfgOp, HlsError
from .expand import expand_node
from .schedule import (HlsSchedule, alap_schedule, allocate_minimal,
                       asap_schedule, list_schedule_ops)
from .binding import Binding, bind
from .rtl import RtlDatapath, RtlFu, build_rtl
from .area import controller_area_clbs, datapath_area_clbs
from .driver import (HlsResult, SharedDatapathResult, synthesize_node,
                     synthesize_resource)

__all__ = [
    "Dfg", "DfgOp", "HlsError", "expand_node", "HlsSchedule",
    "alap_schedule", "asap_schedule", "allocate_minimal",
    "list_schedule_ops", "Binding", "bind", "RtlDatapath", "RtlFu",
    "build_rtl", "controller_area_clbs", "datapath_area_clbs", "HlsResult",
    "SharedDatapathResult", "synthesize_node", "synthesize_resource",
]
