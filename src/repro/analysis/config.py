"""Repo-specific knowledge the rules are parameterized on.

Everything the rule bodies need to know about *this* codebase -- which
classes are shard payloads, which are immutable kernel objects, which
names seed fingerprint reachability -- lives here, so the rule logic
itself stays generic and the contract is auditable in one place.  Each
entry names the invariant it encodes; ``docs/INVARIANTS.md`` carries
the long-form rationale per rule ID.
"""

from __future__ import annotations

__all__ = [
    "FINGERPRINT_SEED_NAMES", "NONDETERMINISTIC_MODULES",
    "NONDETERMINISTIC_BUILTINS", "SEEDED_RANDOM_FACTORIES",
    "ORDER_INSENSITIVE_CONSUMERS",
    "PAYLOAD_CLASSES", "PAYLOAD_SAFE_TYPES", "PAYLOAD_ATOMS",
    "KERNEL_CLASSES", "KERNEL_BUILDER_METHODS", "KERNEL_MEMO_ATTRIBUTES",
    "CONSTRUCTOR_METHODS", "STAGE_FACTORY_NAME", "MODULE_LEVEL_IO_CALLS",
    "OS_ENVIRONMENT_READS", "SANCTIONED_IO_PATHS",
    "OBS_MODULE_NAME", "OBS_TRACING_NAMES", "OBS_EXEMPT_PATHS",
]

# ---------------------------------------------------------------- DET
#: Functions whose bodies (and same-module callees) must be
#: deterministic: they feed the content fingerprints that key the stage
#: cache and the shard planner.  Matched by bare function name; stage
#: ``run`` bodies are discovered structurally from ``Stage(...)`` calls.
FINGERPRINT_SEED_NAMES = frozenset({
    "fingerprint", "fingerprint_of", "derived_fingerprint", "content_hash",
})

#: Modules whose call results vary across runs/processes.  Any
#: attribute call on these inside fingerprint-reachable code is a DET
#: finding (``random.Random(seed)`` with an explicit seed is exempt).
NONDETERMINISTIC_MODULES = frozenset({
    "time", "random", "uuid", "secrets", "datetime",
})

#: Builtins whose value depends on the process: memory addresses,
#: siphash salting, interpreter environment.
NONDETERMINISTIC_BUILTINS = frozenset({
    "id", "hash", "vars", "globals", "locals", "input",
})

#: Callables that are deterministic *when explicitly seeded*:
#: ``random.Random("stable-key")`` is the repo's sanctioned pattern.
SEEDED_RANDOM_FACTORIES = frozenset({"Random"})

#: ``os`` attributes that read the environment (per-host state).
OS_ENVIRONMENT_READS = frozenset({"environ", "getenv", "urandom"})

#: Callables that consume an iterable order-insensitively, so feeding
#: them an unordered set is safe: ``sorted(set(...))`` is the fix DET101
#: recommends, and these are the contexts where no fix is needed.
ORDER_INSENSITIVE_CONSUMERS = frozenset({
    "sorted", "set", "frozenset", "sum", "min", "max", "any", "all",
    "len", "Counter",
})

# ---------------------------------------------------------------- PKL
#: Classes that cross the shard/process boundary by pickle.  Their
#: fields must be statically picklable and compact -- the
#: definition-time complement of the runtime ``payload_check``.
#: Subclasses (the WorkloadSpec families) inherit the obligation.
PAYLOAD_CLASSES = frozenset({
    "JobPayload", "JobSummary", "Shard", "ShardOutcome", "DesignPoint",
    "WorkloadSpec",
})

#: Domain classes allowed as payload field types: each is pickle-clean
#: by construction and exercised by the shard round-trip tests
#: (``tests/test_flow_shard.py``).  ``payload_check`` still guards the
#: runtime hatch for exotic *instances* (e.g. a Partitioner subclass
#: holding a lambda).
PAYLOAD_SAFE_TYPES = frozenset({
    "TaskGraph", "TargetArchitecture", "Partitioner", "WorkloadSpec",
    "DesignPoint", "JobPayload", "JobSummary",
})

#: Builtin/typing atoms allowed in payload annotations.
PAYLOAD_ATOMS = frozenset({
    "int", "float", "str", "bool", "bytes", "None", "tuple", "frozenset",
    "dict", "list", "Mapping", "Sequence", "Optional", "Union",
})

# ---------------------------------------------------------------- FRZ
#: Kernel classes that are immutable once built (``Automaton``) or
#: mutable only through their builder API (``Stg``/``Fsm``).  Policy:
#: *strict* -- no external attribute writes at all; *internals* --
#: external writes to underscore attributes are forbidden, public
#: attributes are builder API.
KERNEL_CLASSES: dict[str, str] = {
    "Automaton": "strict",
    "Stg": "internals",
    "Fsm": "internals",
}

#: Per-class methods allowed to assign ``self`` attributes beyond the
#: constructors: the sanctioned mutation API.
KERNEL_BUILDER_METHODS: dict[str, frozenset[str]] = {
    "Automaton": frozenset(),
    "Stg": frozenset({"add_state", "add_transition"}),
    "Fsm": frozenset({"add_state", "add_transition"}),
}

#: Derived caches a kernel class may fill lazily: each is invisible to
#: equality and fingerprints (pure memo of already-frozen content), so
#: writing it does not breach immutability.
#:
#: The composition verifier deliberately keeps its caches OFF the
#: kernel classes: ``StepSystem`` owns its interned rows, and the
#: fingerprint-keyed step-system cache is module state in
#: ``repro.controllers.verify`` -- neither hangs new memo slots on
#: ``Automaton``/``Stg``/``Fsm``, so no new entries (and no
#: suppressions) are needed here for the verifier.
KERNEL_MEMO_ATTRIBUTES: dict[str, frozenset[str]] = {
    "Automaton": frozenset({"_fingerprint", "_obs_summary", "_reads"}),
    "Stg": frozenset({"_automaton_cache"}),
    "Fsm": frozenset({"_kernel_cache"}),
}

#: Methods of any class where attribute assignment (including the
#: ``object.__setattr__`` escape hatch) is construction, not mutation.
CONSTRUCTOR_METHODS = frozenset({
    "__init__", "__post_init__", "__new__", "__setstate__",
})

# ---------------------------------------------------------------- PUR
#: The pipeline stage constructor whose declared inputs/outputs the
#: PUR rules check stage bodies against.
STAGE_FACTORY_NAME = "Stage"

#: Calls that perform I/O when executed at module import time.
#: Importing a module must stay side-effect free: shard workers import
#: the flow modules in every worker process.
MODULE_LEVEL_IO_CALLS = frozenset({"open", "print", "exec", "eval"})

#: Path fragments of modules whose *purpose* is file I/O: the
#: persistent artifact store (``repro.store``) exists to fsync, rename,
#: lock and mtime-clock files on disk, so the I/O-hostility of PUR405
#: (no module-level I/O) and the clock/environment reach of DET102
#: would condemn its reason for existing.  The carve-out is deliberately
#: a *path* whitelist, not a rule switch: everything outside these
#: paths keeps the full rule set, which is what keeps the flow layers
#: pure -- they receive persistence by injection (``store_path=`` /
#: ``store=``) instead of touching the filesystem themselves.  Order
#: determinism (DET101/DET103) still applies inside the store: on-disk
#: layout and eviction order must not depend on set iteration.
#: ``tests/test_analysis.py`` proves the scope: the same I/O-bearing
#: source lints clean under ``repro/store/`` and is flagged anywhere
#: else.
SANCTIONED_IO_PATHS = ("repro/store/",)

# ---------------------------------------------------------------- OBS
#: Package name of the observability subsystem (:mod:`repro.obs`).
#: Imports whose origin ends in this module are obs imports.
OBS_MODULE_NAME = "obs"

#: The *tracing* half of the obs API: spans carry wall-clock starts,
#: durations and pids, so any value derived from them is
#: nondeterministic by construction.  OBS501 bans these names from
#: fingerprint-reachable and stage-body code -- instrumentation must
#: wrap the pipeline from the outside (executor, flow driver, batch
#: runner), never sit inside what a fingerprint can see.  The event
#: counters (``Counter``) are timestamp-free and deliberately NOT
#: listed.
OBS_TRACING_NAMES = frozenset({
    "span", "record", "Span", "Tracer", "activate", "current_tracer",
    "tracing_active",
})

#: The obs package itself is exempt from OBS501 (it *is* the tracing
#: API), mirroring the SANCTIONED_IO_PATHS pattern: a path carve-out,
#: not a rule switch.
OBS_EXEMPT_PATHS = ("repro/obs/",)
