"""XC4000-class CLB area model for RTL datapaths.

Prices an :class:`repro.hls.rtl.RtlDatapath` for a concrete FPGA: the
functional units from the device's operator table (scaled from the
16-bit reference width), registers at the device's flip-flop density,
2:1 multiplexer slices in front of shared units, and the data-path
controller's state cost.
"""

from __future__ import annotations

from math import ceil, log2

from ..platform.fpgas import Fpga
from .rtl import RtlDatapath

__all__ = ["datapath_area_clbs", "controller_area_clbs",
           "mux_area_clbs", "register_area_clbs"]

#: CLBs of one 2:1 mux bit-slice (two function generators per CLB).
MUX_CLBS_PER_BIT = 0.5
#: Fan-in above which the mux moves onto the TBUF long lines.
TBUF_THRESHOLD = 4
#: Register count above which storage becomes a LUT-RAM register file.
REGFILE_THRESHOLD = 4


def mux_area_clbs(inputs: int, width: int) -> float:
    """CLB cost of an ``inputs``-to-1 mux of ``width`` bits.

    Small muxes are LUT trees; wide ones use the XC4000 tristate long
    lines (TBUFs), whose CLB cost is only the enable decoding.
    """
    if inputs <= 1:
        return 0.0
    if inputs <= TBUF_THRESHOLD:
        return (inputs - 1) * MUX_CLBS_PER_BIT * width
    return 2.0 + 0.25 * inputs


def register_area_clbs(count: int, width: int, fpga: Fpga) -> float:
    """CLB cost of ``count`` result registers of ``width`` bits.

    Few values live in CLB flip-flops; larger sets become a distributed
    LUT-RAM register file (a 16x1 RAM per function generator -- the
    signature feature of the XC4000 family) plus addressing.
    """
    if count <= 0:
        return 0.0
    if count <= REGFILE_THRESHOLD:
        return count * fpga.register_clbs_per_bit * width
    banks = ceil(count / 16)
    return banks * (width / 2.0) + 2.0


def datapath_area_clbs(rtl: RtlDatapath, fpga: Fpga) -> int:
    """Total CLB area of one synthesized datapath."""
    width_scale = rtl.width / 16.0
    area = 0.0
    for fu in rtl.fus:
        area += fpga.area_for(fu.category) * width_scale
        area += mux_area_clbs(fu.mux_inputs, rtl.width)
    area += register_area_clbs(rtl.register_count, rtl.width, fpga)
    return max(1, ceil(area))


def controller_area_clbs(n_states: int, fpga: Fpga) -> int:
    """CLB cost of a binary-encoded controller FSM with ``n_states`` states."""
    if n_states <= 0:
        return 0
    flops = max(1, ceil(log2(max(n_states, 2))))
    area = flops * fpga.register_clbs_per_bit \
        + n_states * fpga.controller_clbs_per_state
    return max(1, ceil(area))
