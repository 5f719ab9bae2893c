"""Hardware processing units (FPGAs / ASICs).

An :class:`Fpga` models an XC4000-class device: a CLB capacity, a system
clock, per-operation latencies (in clock cycles, as produced by high-level
synthesis) and per-operator CLB area costs.  The paper's board carries two
Xilinx XC4005 devices with 196 CLBs each; :mod:`repro.platform.presets`
instantiates exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..graph.semantics import OP_CATEGORIES
from .processors import PlatformError

__all__ = ["Fpga"]

#: Default operator latencies in FPGA clock cycles (XC4000-class, 16 bit).
_DEFAULT_LATENCY = {
    "mov": 1, "add": 1, "mul": 2, "mac": 2, "div": 8,
    "cmp": 1, "shift": 1, "logic": 1,
}

#: Default operator CLB areas (XC4000-class, 16-bit operands).  A CLB of
#: the XC4000 family holds two 4-input LUTs + two flip-flops; a 16-bit
#: ripple adder needs ~9 CLBs, a 16x16 multiplier is far larger.
_DEFAULT_AREA = {
    "mov": 0, "add": 9, "mul": 42, "mac": 48, "div": 60,
    "cmp": 5, "shift": 6, "logic": 4,
}


@dataclass(frozen=True)
class Fpga:
    """A field-programmable hardware resource.

    Parameters
    ----------
    name:
        Unique resource name, e.g. ``"fpga0"``.
    model:
        Device model string, e.g. ``"XC4005"``.
    clb_capacity:
        Number of configurable logic blocks available for datapaths and
        controllers mapped onto this device.
    clock_hz:
        Clock of the synthesized design.
    latency / area:
        Optional overrides for the per-operator latency (cycles) and area
        (CLBs) tables.
    register_clbs_per_bit:
        Area cost of one register bit, in CLBs (two flip-flops per CLB in
        the XC4000 family -> 0.5 CLB per bit).
    controller_clbs_per_state:
        Area contribution of one controller state (state register +
        next-state logic share).
    """

    name: str
    model: str
    clb_capacity: int
    clock_hz: float
    latency: tuple = field(default_factory=tuple)
    area: tuple = field(default_factory=tuple)
    register_clbs_per_bit: float = 0.5
    controller_clbs_per_state: float = 1.5

    def __post_init__(self) -> None:
        if not self.name:
            raise PlatformError("fpga name must be non-empty")
        if self.clb_capacity <= 0:
            raise PlatformError(f"fpga {self.name!r}: CLB capacity must be positive")
        if self.clock_hz <= 0:
            raise PlatformError(f"fpga {self.name!r}: clock must be positive")
        for table_name, table in (("latency", self.latency), ("area", self.area)):
            unknown = {op for op, _ in table} - set(OP_CATEGORIES)
            if unknown:
                raise PlatformError(
                    f"fpga {self.name!r}: unknown categories in {table_name}: "
                    f"{sorted(unknown)}")
        for op, cycles in self.latency:
            if cycles < 1:
                raise PlatformError(
                    f"fpga {self.name!r}: latency of {op!r} must be at "
                    f"least 1 cycle, got {cycles}")
        for op, clbs in self.area:
            if clbs < 0:
                raise PlatformError(
                    f"fpga {self.name!r}: area of {op!r} must be "
                    f"non-negative, got {clbs}")

    @property
    def latency_table(self) -> dict[str, int]:
        table = dict(_DEFAULT_LATENCY)
        table.update(dict(self.latency))
        return table

    @property
    def area_table(self) -> dict[str, float]:
        table = dict(_DEFAULT_AREA)
        table.update(dict(self.area))
        return table

    def latency_for(self, op: str) -> int:
        if op not in OP_CATEGORIES:
            raise PlatformError(f"unknown op category {op!r}")
        return self.latency_table[op]

    def area_for(self, op: str) -> float:
        if op not in OP_CATEGORIES:
            raise PlatformError(f"unknown op category {op!r}")
        return self.area_table[op]

    def seconds(self, cycles: int) -> float:
        return cycles / self.clock_hz

    @property
    def is_software(self) -> bool:
        return False

    @property
    def is_hardware(self) -> bool:
        return True
