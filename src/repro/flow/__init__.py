"""The end-to-end COOL design flow (paper Fig. 1) and its pipeline engine."""

from ..store import (ArtifactStore, PersistentCache, TieredCache)
from .pipeline import (CacheTier, FlowContext, PipelineError,
                       PipelineExecutor, Stage, StageCache, fingerprint_of)
from .cool import CoolFlow, FlowResult, build_flow_stages, \
    select_eviction_victim
from .batch import (BatchRunner, DesignPoint, DesignSpaceExplorer,
                    ExplorationResult, FlowJob, JobOutcome, design_point_of,
                    payload_check)
from .shard import (Shard, ShardError, ShardOutcome, ShardPlanner,
                    ShardSweepStats, SweepResult, map_reduce_sweep,
                    reduce_shards, sharded_sweep)
from .timing import (DesignTimeModel, DesignTimeReport,
                     SYNTHESIS_SECONDS_PER_CLB)

__all__ = ["CoolFlow", "FlowResult", "build_flow_stages",
           "select_eviction_victim", "DesignTimeModel", "DesignTimeReport",
           "SYNTHESIS_SECONDS_PER_CLB", "Stage", "FlowContext",
           "PipelineExecutor", "PipelineError", "StageCache",
           "fingerprint_of", "BatchRunner", "FlowJob", "JobOutcome",
           "DesignPoint", "ExplorationResult", "DesignSpaceExplorer",
           "payload_check", "design_point_of",
           "ShardPlanner", "Shard", "ShardError", "ShardOutcome",
           "ShardSweepStats", "SweepResult", "sharded_sweep",
           "reduce_shards", "map_reduce_sweep",
           "CacheTier", "ArtifactStore", "PersistentCache", "TieredCache"]
