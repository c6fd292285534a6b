"""Overload control plane: capacity-aware ingress admission.

GeoGrid's load-balance mechanisms (paper §4) rebalance *regions*, but
rebinding a hot region to a stronger node takes at least one stat
window plus the switch handshake.  In between, a flash crowd would melt
the primary: every inbound message was processed unboundedly regardless
of the node's ``capacity``.  This module supplies the missing graceful
middle ground:

* **Priority classes.**  Every wire kind maps to one of five classes --
  control > reliability acks > store/sub data > queries > gossip.
  Control traffic (membership, failover, switches) and reliability acks
  are never shed: dropping a JOIN_GRANT loses the sole copy of a store
  half, and dropping an ack only provokes a retry storm.  Everything
  else is sheddable, with lower classes cut off at progressively lower
  queue depths so queries degrade before committed data and gossip
  degrades before queries.

* **Capacity-scaled budgets.**  A node's admission budget scales with
  its ``capacity`` (the same scalar the sqrt(2) trigger compares), so a
  capacity-100 server absorbs the burst a capacity-1 edge node sheds.

* **Deterministic shedding.**  Admission consults the transport's
  in-flight count for the node -- the simulation analogue of an ingress
  queue depth -- so at a given depth the same message is always shed.
  Shed requests that carry an origin get a SHED NACK with a
  depth-scaled retry-after hint; reliable-wrapped data is shed
  silently, because the sender's retry/backoff schedule *is* the
  retry-after mechanism.

Shedding buys time; adaptation fixes the cause.  Sustained shedding
escalates to :meth:`ProtocolNode._consider_switch` (see
``node._roll_stat_window``), handing the hotspot to the paper's
mechanisms.
"""

from __future__ import annotations

import gc
import math
import random
import statistics
import time
from typing import Any, Dict, List, Tuple

from repro.protocol import messages as m

__all__ = [
    "PRIORITY_CONTROL",
    "PRIORITY_ACK",
    "PRIORITY_DATA",
    "PRIORITY_QUERY",
    "PRIORITY_GOSSIP",
    "PRIORITY_OF",
    "CLASS_HEADROOM",
    "admission_budget",
    "admission_limits",
    "wire_priority",
    "OVERLOAD_OVERHEAD_BUDGET",
    "measure_overload_overhead",
]

#: Membership, failover, and adaptation traffic.  Never shed: these
#: messages are either the sole copy of transferred state (JOIN_GRANT
#: carries store halves) or the signals that *fix* overload.
PRIORITY_CONTROL = 0
#: Reliable-channel acknowledgements.  Never shed: dropping an ack
#: converts one message of load into a whole retry schedule of load.
PRIORITY_ACK = 1
#: Committed data motion: store writes, replication, pub/sub fan-out.
PRIORITY_DATA = 2
#: Read-path traffic: routed requests, lookups, query fan-out.
PRIORITY_QUERY = 3
#: Repairs and probes that other planes re-derive on their own.
PRIORITY_GOSSIP = 4

#: Fraction of the admission budget available to each sheddable class.
#: Classes absent from this map are always admitted.  Queries are cut
#: off at 75% depth and gossip at 50%, so under a mounting burst the
#: node degrades in strict priority order: gossip first, then queries,
#: and committed data only once the full budget is exhausted.
CLASS_HEADROOM: Dict[int, float] = {
    PRIORITY_DATA: 1.0,
    PRIORITY_QUERY: 0.75,
    PRIORITY_GOSSIP: 0.5,
}

PRIORITY_OF: Dict[str, int] = {}
for _kind in (
    m.JOIN_REQUEST,
    m.JOIN_GRANT,
    m.GRANT_DECLINE,
    m.HEARTBEAT,
    m.NEIGHBOR_UPDATE,
    m.SYNC_STATE,
    m.DEPART,
    m.SECONDARY_RELEASED,
    m.SWITCH_REQUEST,
    m.SWITCH_ACCEPT,
    m.SWITCH_REJECT,
    m.SHED,
):
    PRIORITY_OF[_kind] = PRIORITY_CONTROL
PRIORITY_OF[m.RELIABLE_ACK] = PRIORITY_ACK
for _kind in (
    m.STORE_UPDATE,
    m.STORE_REMOVE,
    m.STORE_ACK,
    m.STORE_SYNC,
    m.STORE_PULL,
    m.STORE_REPAIR,
    m.STORE_REPLICATE,
    m.REPLICATE,
    m.PUBLISH,
    m.SUBSCRIBE,
    m.SUB_FANOUT,
    m.SUB_ACK,
    m.SUB_REPLICATE,
    m.SUB_SYNC,
    m.NOTIFY,
):
    PRIORITY_OF[_kind] = PRIORITY_DATA
for _kind in (
    m.ROUTE,
    m.ROUTE_DELIVERED,
    m.QUERY,
    m.QUERY_FANOUT,
    m.QUERY_RESULT,
    m.STORE_LOOKUP,
    m.STORE_FANOUT,
    m.STORE_RESULT,
):
    PRIORITY_OF[_kind] = PRIORITY_QUERY
for _kind in (m.MISROUTE, m.PERIMETER_PROBE):
    PRIORITY_OF[_kind] = PRIORITY_GOSSIP
del _kind


def wire_priority(kind: str, body: Any = None) -> int:
    """Priority class of a wire message, unwrapping envelopes.

    A RELIABLE envelope is classed by its payload (a reliable-wrapped
    JOIN_GRANT is still control traffic), and a shortcut hop or
    misroute bounce by the routed request it carries (a shortcut-hopped
    STORE_UPDATE is still data).  Unknown kinds default to the data
    class: sheddable, but only at full budget.
    """
    if kind == m.RELIABLE and body is not None:
        kind, body = body.kind, body.body
    if kind in (m.SHORTCUT_HOP, m.MISROUTE) and body is not None:
        inner = getattr(body, "kind", None)
        if inner is not None:
            kind = inner
    return PRIORITY_OF.get(kind, PRIORITY_DATA)


def admission_budget(capacity: float, floor: int, scale: float) -> int:
    """Ingress budget for a node: ``max(floor, scale * capacity)``.

    The floor keeps tiny nodes functional (a capacity-1 node must still
    absorb its own control fan-in); the scale term gives strong servers
    proportionally deeper inboxes, mirroring how the workload index
    already normalises served load by capacity.
    """
    return max(int(floor), int(scale * capacity))


def admission_limits(budget: int) -> Dict[str, int]:
    """Per-kind admission depth cut-offs for a given budget.

    Returns a flat ``kind -> max queue depth`` map covering only the
    sheddable kinds; control kinds and acks are deliberately absent so
    a plain ``dict.get`` miss means "always admit".  Envelope kinds
    (RELIABLE, SHORTCUT_HOP, MISROUTE) are also absent -- callers must
    classify those by their unwrapped payload via :func:`wire_priority`.
    """
    limits: Dict[str, int] = {}
    for kind, priority in PRIORITY_OF.items():
        headroom = CLASS_HEADROOM.get(priority)
        if headroom is None:
            continue
        limits[kind] = max(1, int(budget * headroom))
    return limits


#: The PR's wall-clock overhead contract: a cluster with admission
#: control enabled must stay under this ratio vs ``overload_enabled=
#: False`` on both the routing and store workloads.
OVERLOAD_OVERHEAD_BUDGET = 1.10


def measure_overload_overhead(
    population: int = 10,
    sim_seconds: float = 20.0,
    ops_per_step: int = 8,
    step: float = 0.5,
    seed: int = 7,
    repeats: int = 33,
) -> Dict[str, Dict[str, float]]:
    """Wall-clock cost of the overload plane on routing + store benches.

    Same harness as ``telemetry.measure_telemetry_overhead`` (see there
    for why rounds interleave slice-by-slice and the reported ratio is
    the median of per-round ratios): identical seeded workloads with
    ``NodeConfig.overload_enabled`` on vs off.  The enabled side pays
    the real admission check on every delivery plus the pressure
    arithmetic on every heartbeat; under ambient (non-storm) load it
    should shed nothing, so the measured ratio is the pure bookkeeping
    tax.  The PR contract is ratio < 1.10 for both workloads.
    """
    from repro.geometry import Point, Rect
    from repro.protocol.cluster import ProtocolCluster
    from repro.protocol.node import NodeConfig

    bounds = Rect(0.0, 0.0, 64.0, 64.0)

    def build(enabled: bool) -> Tuple[Any, Any, list]:
        cluster = ProtocolCluster(
            bounds,
            seed=seed,
            drop_probability=0.01,
            config=NodeConfig(overload_enabled=enabled),
        )
        rng = random.Random(seed * 7919 + 13)
        for _ in range(population):
            cluster.join_node(
                Point(
                    rng.uniform(0.0, bounds.width),
                    rng.uniform(0.0, bounds.height),
                )
            )
        cluster.run_for(30.0)
        live = [n for n in cluster.nodes.values() if n.alive]
        live.sort(key=lambda n: n.address)
        return cluster, rng, live

    def paired_round(
        sides: Dict[bool, Tuple[Any, Any, list]],
        store: bool,
        round_number: int,
    ) -> Tuple[float, float]:
        """Accumulated (disabled, enabled) wall time over interleaved slices."""
        totals = {False: 0.0, True: 0.0}
        steps_per_round = int(sim_seconds / step)
        gc.collect()
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            for step_number in range(steps_per_round):
                order = (
                    (False, True) if step_number % 2 == 0 else (True, False)
                )
                for enabled in order:
                    cluster, rng, live = sides[enabled]
                    started = time.perf_counter()
                    for offset in range(ops_per_step):
                        index = (
                            round_number * steps_per_round + step_number
                        ) * ops_per_step + offset
                        origin = rng.choice(live)
                        target = Point(
                            rng.uniform(0.0, bounds.width),
                            rng.uniform(0.0, bounds.height),
                        )
                        if store:
                            origin.store_update(
                                object_id=f"oovh-{index}", point=target
                            )
                        else:
                            origin.send_to_point(target, "oovh")
                    cluster.run_for(step)
                    totals[enabled] += time.perf_counter() - started
            return totals[False], totals[True]
        finally:
            if gc_was_enabled:
                gc.enable()

    results: Dict[str, Dict[str, float]] = {}
    for name, store in (("routing", False), ("store", True)):
        sides = {enabled: build(enabled) for enabled in (False, True)}
        paired_round(sides, store, 0)  # warm allocators and code paths
        enabled_s = math.inf
        disabled_s = math.inf
        ratios: List[float] = []
        for round_number in range(1, repeats + 1):
            d, e = paired_round(sides, store, round_number)
            disabled_s = min(disabled_s, d)
            enabled_s = min(enabled_s, e)
            ratios.append(e / d if d else 0.0)
        results[name] = {
            "enabled_s": round(enabled_s, 4),
            "disabled_s": round(disabled_s, 4),
            "ratio": round(statistics.median(ratios), 3),
        }
    return results
