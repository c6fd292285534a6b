"""Wall-clock cost of the continuous-query subscription plane.

The PR contract behind ``NodeConfig.sub_enabled`` is that a cluster
*serving* standing queries still costs < 1.10x on its regular routing
and store workloads.  :func:`measure_sub_overhead` makes that claim
machine-checkable the same way ``measure_telemetry_overhead`` does for
the telemetry plane: identical seeded workloads with the plane on vs
off, timed in interleaved slices so machine-speed drift taxes both
modes equally, with the enabled side additionally carrying a seeded
population of live registrations -- so the measured ratio includes the
per-update match sweep and the NOTIFY pushes, not just the disabled
branch of the gate.
"""

from __future__ import annotations

import gc
import math
import random
import statistics
import time
from typing import Any, Dict, List, Tuple

__all__ = ["SUB_OVERHEAD_BUDGET", "measure_sub_overhead"]

#: The PR's wall-clock overhead contract: a cluster serving standing
#: queries must stay under this ratio vs ``sub_enabled=False`` on both
#: the routing and store workloads.
SUB_OVERHEAD_BUDGET = 1.10


def measure_sub_overhead(
    population: int = 10,
    sim_seconds: float = 20.0,
    ops_per_step: int = 8,
    step: float = 0.5,
    seed: int = 7,
    repeats: int = 33,
    subscriptions: int = 6,
) -> Dict[str, Dict[str, float]]:
    """Wall-clock cost of the subscription plane on routing + store benches.

    Same harness as ``telemetry.measure_telemetry_overhead`` (see there
    for why rounds interleave slice-by-slice and the reported ratio is
    the median of per-round ratios): identical seeded workloads with
    ``NodeConfig.sub_enabled`` on vs off.  The enabled cluster registers
    a :class:`~repro.workload.subscriptions.SubscriptionWorkload`
    population before the timed rounds, so the store side pays the real
    match-and-notify tax on every update landing inside watched ground.
    The disabled side cannot register anything (the gate raises), which
    is exactly the ablation: a build without the plane.  The PR contract
    is ratio < 1.10 for both workloads.
    """
    from repro.geometry import Point, Rect
    from repro.protocol.cluster import ProtocolCluster
    from repro.protocol.node import NodeConfig
    from repro.workload.subscriptions import SubscriptionWorkload

    bounds = Rect(0.0, 0.0, 64.0, 64.0)

    def build(enabled: bool) -> Tuple[Any, Any, list]:
        """One settled cluster plus its op-injection rng and live list.

        Both modes use identical seeds.  The subscription registrations
        on the enabled side draw from their own dedicated rng, so the
        two sides' op-injection rngs stay in lockstep and the clusters
        evolve through identical membership and client traffic.
        """
        cluster = ProtocolCluster(
            bounds,
            seed=seed,
            drop_probability=0.01,
            config=NodeConfig(sub_enabled=enabled),
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
        if enabled and live:
            workload = SubscriptionWorkload(
                bounds,
                subscriptions=subscriptions,
                rng=random.Random(f"{seed}:overhead:pubsub"),
                duration=1_000_000.0,
            )
            for op in workload.initial_subscriptions():
                origin = live[op.subscriber % len(live)]
                cluster.subscribe(
                    origin.node.node_id, op.rect, duration=op.duration
                )
            cluster.settle(10.0)
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
                                object_id=f"sovh-{index}", point=target
                            )
                        else:
                            origin.send_to_point(target, "sovh")
                    cluster.run_for(step)
                    totals[enabled] += time.perf_counter() - started
            return totals[False], totals[True]
        finally:
            if gc_was_enabled:
                gc.enable()

    results: Dict[str, Dict[str, float]] = {}
    for name, store in (("routing", False), ("store", True)):
        sides = {enabled: build(enabled) for enabled in (False, True)}
        # Registration advances the enabled side's sim clock; realign so
        # both sides step through the timed slices at identical
        # heartbeat/sync phases.
        horizon = max(s[0].scheduler.now for s in sides.values())
        for cluster, _, _ in sides.values():
            if cluster.scheduler.now < horizon:
                cluster.run_for(horizon - cluster.scheduler.now)
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
