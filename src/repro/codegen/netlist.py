"""Board-level netlist generation (paper Fig. 4).

The generated netlist wires the processing units (processor cards,
FPGAs, the memory card, the bus card) to the synthesized pieces: system
controller, data-path controllers, I/O controller and bus arbiter.  The
paper's Fig. 4 shows exactly this picture; :func:`generate_netlist`
reproduces it for any partitioned system, and :func:`netlist_text`
renders the component/net listing the benchmarks print.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..comm.refine import CommPlan
from ..controllers.system_controller import SystemController
from ..graph.partition import IO_RESOURCE, Partition
from ..platform.architecture import TargetArchitecture

__all__ = ["Component", "Net", "Netlist", "generate_netlist", "netlist_text"]


@dataclass(frozen=True)
class Component:
    """One board-level component instance."""

    name: str
    kind: str      # processor | fpga | memory | bus | controller | arbiter
    device: str    # device/model or host resource


@dataclass(frozen=True)
class Net:
    """One named connection from a driver pin to sink pins."""

    name: str
    driver: str            # "component.pin"
    sinks: tuple[str, ...]  # ("component.pin", ...)


@dataclass
class Netlist:
    """A complete generated net-list."""

    name: str
    components: list[Component] = field(default_factory=list)
    nets: list[Net] = field(default_factory=list)

    def component(self, name: str) -> Component:
        for c in self.components:
            if c.name == name:
                return c
        raise KeyError(f"no component {name!r}")

    def add_component(self, component: Component) -> None:
        if any(c.name == component.name for c in self.components):
            raise ValueError(f"duplicate component {component.name!r}")
        self.components.append(component)

    def add_net(self, net: Net) -> None:
        known = {c.name for c in self.components}
        for endpoint in (net.driver,) + net.sinks:
            component = endpoint.split(".", 1)[0]
            if component not in known:
                raise ValueError(f"net {net.name!r} references unknown "
                                 f"component {component!r}")
        self.nets.append(net)

    def validate(self) -> list[str]:
        problems = []
        names = [n.name for n in self.nets]
        if len(names) != len(set(names)):
            problems.append("duplicate net names")
        connected = {e.split(".", 1)[0]
                     for n in self.nets
                     for e in (n.driver,) + n.sinks}
        for component in self.components:
            if component.name not in connected:
                problems.append(f"component {component.name!r} is "
                                f"unconnected")
        return problems

    def stats(self) -> dict:
        kinds: dict[str, int] = {}
        for c in self.components:
            kinds[c.kind] = kinds.get(c.kind, 0) + 1
        return {"components": len(self.components), "nets": len(self.nets),
                "by_kind": kinds}


def _unit_component(resource: str, arch: TargetArchitecture) -> str:
    """Netlist component name hosting a processing resource."""
    if resource == IO_RESOURCE:
        return "io_controller"
    return resource


def generate_netlist(partition: Partition, arch: TargetArchitecture,
                     controller: SystemController,
                     plan: CommPlan) -> Netlist:
    """Build the Fig. 4 netlist of one implementation."""
    graph = partition.graph
    netlist = Netlist(f"board_{graph.name}")

    # -- components -----------------------------------------------------
    netlist.add_component(Component("sysctl", "controller",
                                    controller.name))
    netlist.add_component(Component("io_controller", "controller", "ioc"))
    netlist.add_component(Component("arbiter", "arbiter", "bus_arbiter"))
    for proc in arch.processors:
        netlist.add_component(Component(proc.name, "processor", proc.model))
    for fpga in arch.fpgas:
        netlist.add_component(Component(fpga.name, "fpga", fpga.model))
        if partition.nodes_on(fpga.name):
            netlist.add_component(Component(
                f"dpc_{fpga.name}", "controller", fpga.name))
    netlist.add_component(Component(arch.memory.name, "memory",
                                    f"{arch.memory.size_bytes // 1024}kB"))
    netlist.add_component(Component(arch.bus.name, "bus",
                                    f"{arch.bus.width_bits}-bit"))

    # -- control nets: start/done per node, reset per unit ---------------
    for node in graph.nodes:
        resource = partition.resource_of(node.name)
        unit = _unit_component(resource, arch)
        target = f"dpc_{unit}" if arch.is_hardware(resource) else unit
        netlist.add_net(Net(f"start_{node.name}",
                            driver=f"sysctl.start_{node.name}",
                            sinks=(f"{target}.start_{node.name}",)))
        netlist.add_net(Net(f"done_{node.name}",
                            driver=f"{target}.done_{node.name}",
                            sinks=(f"sysctl.done_{node.name}",)))
    for resource in partition.resources_used:
        unit = _unit_component(resource, arch)
        target = f"dpc_{unit}" if arch.is_hardware(resource) else unit
        netlist.add_net(Net(f"reset_{resource}",
                            driver=f"sysctl.reset_{resource}",
                            sinks=(f"{target}.rst",)))

    # -- board wiring: every processing card sits on the bus ------------
    on_bus = ["io_controller"] + [p.name for p in arch.processors] \
        + [f.name for f in arch.fpgas]
    for unit in on_bus:
        netlist.add_net(Net(f"bus_attach_{unit}",
                            driver=f"{unit}.bus_port",
                            sinks=(f"{arch.bus.name}.port_{unit}",)))
    netlist.add_net(Net("bus_memory",
                        driver=f"{arch.bus.name}.mem_port",
                        sinks=(f"{arch.memory.name}.bus",)))

    # -- bus masters: units with memory-mapped channels + the controller -
    masters: list[str] = ["sysctl"]
    for channel in plan.memory_mapped():
        for resource in (channel.channel.producer_unit,
                         channel.channel.consumer_unit):
            unit = _unit_component(resource, arch)
            if unit not in masters:
                masters.append(unit)
    for master in masters:
        netlist.add_net(Net(f"req_{master}",
                            driver=f"{master}.bus_req",
                            sinks=("arbiter.req_" + master,)))
        netlist.add_net(Net(f"gnt_{master}",
                            driver=f"arbiter.gnt_{master}",
                            sinks=(f"{master}.bus_gnt",)))
    if "sysctl" not in on_bus:
        netlist.add_net(Net("bus_attach_sysctl",
                            driver="sysctl.bus_port",
                            sinks=(f"{arch.bus.name}.port_sysctl",)))

    # -- direct point-to-point channels ----------------------------------
    for channel in plan.direct():
        producer = _unit_component(channel.channel.producer_unit, arch)
        consumer = _unit_component(channel.channel.consumer_unit, arch)
        netlist.add_net(Net(f"direct_{channel.edge}",
                            driver=f"{producer}.d_{channel.edge}",
                            sinks=(f"{consumer}.d_{channel.edge}",)))

    # -- environment ports ------------------------------------------------
    for node in graph.inputs():
        netlist.add_net(Net(f"pad_{node.name}",
                            driver=f"io_controller.pad_{node.name}",
                            sinks=(f"io_controller.port_{node.name}",)))
    for node in graph.outputs():
        netlist.add_net(Net(f"pad_{node.name}",
                            driver=f"io_controller.port_{node.name}",
                            sinks=(f"io_controller.pad_{node.name}",)))

    problems = netlist.validate()
    if problems:
        raise ValueError("generated inconsistent netlist:\n  - "
                         + "\n  - ".join(problems))
    return netlist


def netlist_text(netlist: Netlist) -> str:
    """Readable component + net listing (the Fig. 4 artefact)."""
    lines = [f"netlist {netlist.name}", "", "components:"]
    for c in netlist.components:
        lines.append(f"  {c.name:<16} {c.kind:<11} {c.device}")
    lines.append("")
    lines.append(f"nets ({len(netlist.nets)}):")
    for n in netlist.nets:
        sinks = ", ".join(n.sinks)
        lines.append(f"  {n.name:<28} {n.driver} -> {sinks}")
    return "\n".join(lines)
