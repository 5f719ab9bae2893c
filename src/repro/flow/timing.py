"""Design-time model: where does implementation time go?

The paper's headline process result: "the time to execute the complete
design flow from system specification to an implementation on the
prototyping board took not more than about 60 minutes.  The
time-consuming factor was always the hardware synthesis which consumed
more than 90% of the design time."

We obviously cannot run 1998's OSCAR + Synopsys + XACT place&route, so
the flow reports two kinds of time:

* **measured** -- real wall-clock seconds of every reproduced stage
  (partitioning, co-synthesis, code generation, co-simulation), read
  from the stage spans of the run;
* **modelled** -- the downstream tool times, calibrated to mid-90s
  workstation throughput: logic synthesis + place&route at
  :data:`SYNTHESIS_SECONDS_PER_CLB` per occupied CLB plus a fixed
  per-device overhead, and C compilation per processor.

The fuzzy-controller benchmark checks the *shape*: total below ~60
minutes and hardware synthesis above 90 % of the total.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["DesignTimeModel", "DesignTimeReport",
           "SYNTHESIS_SECONDS_PER_CLB"]

#: Logic synthesis + technology mapping + place&route throughput
#: (Synopsys + XACT on a mid-90s workstation), seconds per occupied CLB.
SYNTHESIS_SECONDS_PER_CLB = 8.0
#: Fixed per-FPGA overhead: netlist I/O, bitstream generation, download.
PER_DEVICE_OVERHEAD_S = 150.0
#: C compilation + linking + download per processor.
SW_COMPILE_SECONDS = 45.0
#: Board bring-up constant (cabling, memory test).
BOARD_SETUP_SECONDS = 60.0


@dataclass
class DesignTimeReport:
    """Breakdown of one implementation's design time."""

    measured_stages: dict[str, float] = field(default_factory=dict)
    hw_synthesis_s: float = 0.0
    sw_compile_s: float = 0.0
    board_setup_s: float = BOARD_SETUP_SECONDS

    @property
    def measured_total_s(self) -> float:
        return sum(self.measured_stages.values())

    @property
    def total_s(self) -> float:
        return (self.measured_total_s + self.hw_synthesis_s
                + self.sw_compile_s + self.board_setup_s)

    @property
    def hw_fraction(self) -> float:
        total = self.total_s
        return self.hw_synthesis_s / total if total else 0.0

    def rows(self) -> list[tuple[str, float]]:
        out = [(f"flow: {k}", v) for k, v in self.measured_stages.items()]
        out.append(("hw synthesis (modelled)", self.hw_synthesis_s))
        out.append(("sw compile (modelled)", self.sw_compile_s))
        out.append(("board setup (modelled)", self.board_setup_s))
        return out


class DesignTimeModel:
    """Prices the modelled downstream stages of one implementation."""

    def __init__(self,
                 seconds_per_clb: float = SYNTHESIS_SECONDS_PER_CLB,
                 per_device_s: float = PER_DEVICE_OVERHEAD_S,
                 sw_compile_s: float = SW_COMPILE_SECONDS) -> None:
        self.seconds_per_clb = seconds_per_clb
        self.per_device_s = per_device_s
        self.sw_compile_s = sw_compile_s

    def hardware_seconds(self, clbs_per_device: dict[str, int]) -> float:
        """Synthesis time of all FPGAs that host logic."""
        total = 0.0
        for clbs in clbs_per_device.values():
            if clbs > 0:
                total += self.per_device_s + self.seconds_per_clb * clbs
        return total

    def software_seconds(self, n_programs: int) -> float:
        return self.sw_compile_s * n_programs
