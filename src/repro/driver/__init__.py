"""The verification driver subsystem: parallel scheduling, content-
addressed result caching, per-phase metrics, and dependency-aware
incremental re-verification for RefinedC checking.

See DESIGN.md ("The verification driver") for why per-function
parallelism — and function-granular incremental re-verification — is
sound, and README.md for the user-facing flags, the cache layout and
the metrics JSON schema.
"""

from .cache import (CACHE_FORMAT_VERSION, DEFAULT_CACHE_DIR, ResultCache,
                    atomic_write_json)
from .depgraph import (DepGraph, build_depgraph, engine_fingerprint,
                       transitive_key)
from .incremental import IncrementalState, plan_unit
from .metrics import (DriverMetrics, FunctionMetrics, PhaseTimings,
                      merge_metrics)
from .pool import (DriverConfig, FunctionPlan, PoolSession, Unit, UnitPlan,
                   reset_fresh_counters, run_units)

__all__ = [
    "CACHE_FORMAT_VERSION", "DEFAULT_CACHE_DIR", "DepGraph",
    "DriverConfig", "DriverMetrics", "FunctionMetrics", "FunctionPlan",
    "IncrementalState", "PhaseTimings", "PoolSession", "ResultCache",
    "Unit", "UnitPlan", "atomic_write_json", "build_depgraph",
    "engine_fingerprint", "merge_metrics", "plan_unit",
    "reset_fresh_counters", "run_units", "transitive_key",
]
