"""Target architectures: the multi-processor / multi-ASIC boards COOL maps to.

A :class:`TargetArchitecture` bundles processors, FPGAs, one shared memory
and one system bus.  It is consumed by estimation, partitioning,
scheduling, memory allocation, controller synthesis and co-simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..fingerprint import content_hash
from .bus import Bus
from .fpgas import Fpga
from .memory import MemoryDevice
from .processors import PlatformError, Processor

__all__ = ["TargetArchitecture"]


@dataclass(frozen=True)
class TargetArchitecture:
    """A complete co-design target platform.

    Parameters
    ----------
    name:
        Board name, e.g. ``"cool_board"``.
    processors / fpgas:
        The programmable and the hardware resources.  At least one
        resource in total is required; the paper's board has one DSP and
        two FPGAs.
    memory:
        The shared communication memory.
    bus:
        The system bus connecting everything.
    """

    name: str
    processors: tuple[Processor, ...] = ()
    fpgas: tuple[Fpga, ...] = ()
    memory: MemoryDevice = field(default_factory=lambda: MemoryDevice("sram", 65536))
    bus: Bus = field(default_factory=lambda: Bus("sysbus"))

    def __post_init__(self) -> None:
        names = [p.name for p in self.processors] + [f.name for f in self.fpgas]
        names += [self.memory.name, self.bus.name, "io"]
        if len(names) != len(set(names)):
            raise PlatformError(f"architecture {self.name!r}: duplicate resource names")
        if not self.processors and not self.fpgas:
            raise PlatformError(f"architecture {self.name!r}: no processing resources")

    # ------------------------------------------------------------------
    @property
    def processor_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.processors)

    @property
    def fpga_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.fpgas)

    @property
    def resource_names(self) -> tuple[str, ...]:
        """All processing resource names, software first."""
        return self.processor_names + self.fpga_names

    def processor(self, name: str) -> Processor:
        for proc in self.processors:
            if proc.name == name:
                return proc
        raise PlatformError(f"unknown processor {name!r}")

    def fpga(self, name: str) -> Fpga:
        for dev in self.fpgas:
            if dev.name == name:
                return dev
        raise PlatformError(f"unknown fpga {name!r}")

    def resource(self, name: str) -> Processor | Fpga:
        """Look up any processing resource by name."""
        for proc in self.processors:
            if proc.name == name:
                return proc
        for dev in self.fpgas:
            if dev.name == name:
                return dev
        raise PlatformError(f"unknown resource {name!r}")

    def is_software(self, name: str) -> bool:
        return name in self.processor_names

    def is_hardware(self, name: str) -> bool:
        return name in self.fpga_names

    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Content hash of the complete platform description.

        All components are frozen dataclasses, so their ``repr`` is a
        deterministic function of their content; two boards built with
        the same parameters fingerprint identically.  The flow pipeline
        keys architecture-dependent stage caches on this.
        """
        return content_hash((self.name, self.processors, self.fpgas,
                             self.memory, self.bus))

    def describe(self) -> str:
        """Human-readable one-paragraph architecture summary."""
        procs = ", ".join(f"{p.name} ({p.model}, {p.clock_hz / 1e6:.0f} MHz)"
                          for p in self.processors) or "none"
        fpgas = ", ".join(f"{f.name} ({f.model}, {f.clb_capacity} CLBs)"
                          for f in self.fpgas) or "none"
        return (f"architecture {self.name}: processors: {procs}; "
                f"fpgas: {fpgas}; memory: {self.memory.size_bytes // 1024} kB "
                f"@0x{self.memory.base_address:04X}; bus: {self.bus.width_bits}-bit "
                f"{self.bus.clock_hz / 1e6:.0f} MHz")
