"""OBS: observability containment rules.

The tracing half of :mod:`repro.obs` exists to measure the pipeline,
not to participate in it: every span carries a wall-clock start, a
duration and a pid, all of which vary per run and per process.  If any
of that reached a fingerprint or a stage body, the stage cache and the
shard planner would silently split across hosts -- the exact failure
mode DET102 guards against, arriving through a new door.

``OBS501`` keeps that door shut: inside fingerprint-reachable code and
pipeline stage bodies, no name imported from the tracing API
(:data:`~repro.analysis.config.OBS_TRACING_NAMES`) may be called.
Instrumentation belongs *around* the pipeline -- the executor, the flow
driver, the batch runner, the store -- never inside what a fingerprint
can see.  The event counters (``Counter``) are timestamp-free and
deliberately exempt, as is the obs package itself
(:data:`~repro.analysis.config.OBS_EXEMPT_PATHS`).
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator, Mapping

from ..config import (FINGERPRINT_SEED_NAMES, OBS_EXEMPT_PATHS,
                      OBS_MODULE_NAME, OBS_TRACING_NAMES)
from ..findings import Finding
from ..registry import rule
from .common import root_name, walk_scope
from .det import _stage_run_names

if TYPE_CHECKING:  # pragma: no cover
    from ..engine import ModuleContext
    from ..project import ProjectIndex


def _obs_exempt(path: str) -> bool:
    """True for modules inside the obs package itself."""
    normalized = path.replace("\\", "/")
    return any(fragment in normalized for fragment in OBS_EXEMPT_PATHS)


def _tracing_imports(imports: "Mapping[str, str]"
                     ) -> tuple[dict[str, str], set[str]]:
    """Split obs imports into tracing aliases and whole-package names.

    Returns ``(aliases, packages)``: ``aliases`` maps a local name to
    the tracing member it binds (``obs_span`` -> ``obs.span``);
    ``packages`` holds local names bound to the obs package itself
    (``import repro.obs`` / ``from repro import obs``), through which
    any tracing member is reachable by attribute access.
    """
    aliases: dict[str, str] = {}
    packages: set[str] = set()
    for name, origin in imports.items():
        parts = origin.split(".")
        if parts[-1] == OBS_MODULE_NAME:
            packages.add(name)
        elif OBS_MODULE_NAME in parts[:-1] \
                and parts[-1] in OBS_TRACING_NAMES:
            aliases[name] = origin
    return aliases, packages


@rule("OBS501",
      "tracing API used in fingerprint-reachable or stage-body code",
      "spans carry wall-clock starts, durations and pids: instrument "
      "around the pipeline (executor, driver, runner), never inside "
      "what a fingerprint can see")
def obs501_tracing_in_fingerprint(module: "ModuleContext",
                                  index: "ProjectIndex") -> Iterator[Finding]:
    if _obs_exempt(module.path):
        # repro.obs IS the tracing API; banning it from itself would be
        # circular.  Nothing in the obs package computes fingerprints.
        return
    imports = module.module_imports()
    aliases, packages = _tracing_imports(imports)
    if not aliases and not packages:
        return

    functions: dict[ast.FunctionDef, str] = {
        node: module.enclosing_symbol(node)
        for node in ast.walk(module.tree)
        if isinstance(node, ast.FunctionDef)}
    by_name: dict[str, list[ast.FunctionDef]] = {}
    for function in functions:
        by_name.setdefault(function.name, []).append(function)

    seeds = [function for function in functions
             if function.name in FINGERPRINT_SEED_NAMES]
    for stage_run in _stage_run_names(module.tree):
        seeds.extend(by_name.get(stage_run, ()))

    # same-module reachability over direct calls (self.x() and f()),
    # mirroring DET102 so the two rules agree on what "reachable" means
    reachable: set[ast.FunctionDef] = set()
    worklist = list(seeds)
    while worklist:
        function = worklist.pop()
        if function in reachable:
            continue
        reachable.add(function)
        for node in walk_scope(function):
            if not isinstance(node, ast.Call):
                continue
            callee = None
            if isinstance(node.func, ast.Name):
                callee = node.func.id
            elif isinstance(node.func, ast.Attribute) \
                    and isinstance(node.func.value, ast.Name) \
                    and node.func.value.id in ("self", "cls"):
                callee = node.func.attr
            if callee is not None:
                worklist.extend(by_name.get(callee, ()))

    for function in sorted(reachable, key=lambda f: f.lineno):
        symbol = functions[function]
        for node in walk_scope(function):
            use = _tracing_use(node, aliases, packages)
            if use is not None:
                yield module.finding(
                    node, "OBS501",
                    f"tracing call {use} inside {symbol!r}, which is "
                    f"fingerprint-reachable (or a pipeline stage body): "
                    f"span timestamps/pids vary per run and per process",
                    hint="lift the span to the caller (executor, flow "
                         "driver, batch runner); metrics counters are "
                         "timestamp-free and allowed")


def _tracing_use(node: ast.AST, aliases: "Mapping[str, str]",
                 packages: set[str]) -> str | None:
    """Describe the tracing-API use ``node`` makes, if any."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Name) and func.id in aliases:
        return f"{aliases[func.id]} (imported as {func.id})"
    if isinstance(func, ast.Attribute) \
            and func.attr in OBS_TRACING_NAMES:
        root = root_name(func)
        if root in packages:
            return f"{root}.{func.attr}"
    return None
