"""Dynamic load-balance adaptation (Section 2.4).

The basic idea: break the geographical association between an owner node
and the region it owns, and dynamically adjust node-to-region assignments
in a geographical vicinity according to the workload distribution.

Three rules order the eight mechanisms:

1. local adaptations are cheaper than remote ones;
2. moving/switching *secondary* peers is cheaper than primaries;
3. region splitting and merging are the most expensive and tried last
   among their locality class.

A node starts adapting only when its workload index exceeds ``sqrt(2)``
times the lowest index among its neighbors (and a cooldown prevents the
same area from adapting repeatedly in a short window, as the paper
prescribes).
"""

from repro.loadbalance.workload import WorkloadIndexCalculator
from repro.loadbalance.trigger import TriggerRule
from repro.loadbalance.search import SearchResult, ttl_search
from repro.loadbalance.base import (
    AdaptationContext,
    AdaptationPlan,
    AdaptationRecord,
    Mechanism,
)
from repro.loadbalance.config import AdaptationConfig
from repro.loadbalance.engine import AdaptationEngine, RoundReport
from repro.loadbalance.mechanisms import default_mechanisms
from repro.loadbalance.routing_load import RoutingLoadReport, RoutingLoadTracker

__all__ = [
    "WorkloadIndexCalculator",
    "TriggerRule",
    "ttl_search",
    "SearchResult",
    "AdaptationContext",
    "AdaptationPlan",
    "AdaptationRecord",
    "Mechanism",
    "AdaptationConfig",
    "AdaptationEngine",
    "RoundReport",
    "default_mechanisms",
    "RoutingLoadTracker",
    "RoutingLoadReport",
]
