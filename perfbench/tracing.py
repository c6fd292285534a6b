"""The traced run: spans around calls into each layer, and the per-layer table.

:func:`install` wraps public entry points of the program's classes (the
scheduler's ``run_until`` and the callbacks handed to ``at``/``every``,
the transport's ``send`` and the handler handed to ``register``, the
node client API, the reliable channel, the grid and subscription
indexes, the health view and vitals roll, overlay routing and joins, the
overlay store and the adaptation engine) so that every call records a
span: name, start, end, parent span and trace id (the id of the
outermost span on the stack).  Spans stay in memory and are written to
``perfbench/out/`` when the run ends.  ``uninstall`` restores the
originals; untraced runs never call :func:`install`.

Geometry is deliberately not wrapped: it is called millions of times
per run, and a wrapper there would measure itself.
"""

from __future__ import annotations

import gzip
import os
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

from common import CheckFailed, percentile

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")



def spans_path(workload: str, seed: int) -> str:
    """Where a traced run writes its spans."""
    return os.path.join(OUT_DIR, f"spans-{workload}-{seed}.tsv.gz")


#: Span-name prefix of a handler dispatch; the message kind follows.
DISPATCH = "protocol.node.dispatch."
#: Span-name prefix of a periodic timer callback; its name follows.
TIMER = "protocol.node.timer."


class Tracer:
    """An in-memory span recorder (one thread)."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.parents = array("l")
        self.traces = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: List[int] = []
        #: Span index range of the timed phase.
        self.timed_first = 0
        self.timed_last = 0
        #: Program objects the runner exposes for public-state counts.
        self.state: Dict[str, Any] = {}
        self.before: Dict[str, Any] = {}
        self.after: Dict[str, Any] = {}
        self.join_events: List[int] = []

    def current(self) -> Optional[str]:
        """Name of the innermost open span, if any."""
        return self.names[self._stack[-1]] if self._stack else None

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        index = len(self.names)
        stack = self._stack
        parent = stack[-1] if stack else -1
        self.names.append(name)
        self.parents.append(parent)
        self.traces.append(self.traces[parent] if parent >= 0 else index)
        self.starts.append(0.0)
        self.ends.append(0.0)
        stack.append(index)
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[index] = time.perf_counter()
            self.starts[index] = started
            stack.pop()

    # -- timed phase ----------------------------------------------------
    def begin_timed(self, **state: Any) -> None:
        """Mark the start of the timed phase and snapshot counters."""
        self.state = state
        self.before = public_counts(state)
        self.timed_first = len(self.names)

    def end_timed(self) -> None:
        """Mark the end of the timed phase."""
        self.timed_last = len(self.names)
        self.after = public_counts(self.state)

    def write(self, path: str) -> None:
        """Write every span as one gzipped tab-separated line.

        A span's id is its line number (from 0); times are microseconds
        since the first span started.
        """
        os.makedirs(os.path.dirname(path), exist_ok=True)
        origin = self.starts[0] if self.starts else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("parent\ttrace\tname\tstart_us\tend_us\n")
            out.writelines(
                f"{parent}\t{trace}\t{name}\t{(start - origin) * 1e6:.1f}\t{(end - origin) * 1e6:.1f}\n"
                for parent, trace, name, start, end in zip(
                    self.parents, self.traces, self.names, self.starts, self.ends
                )
            )


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def self_times(
    starts: "array | List[float]",
    ends: "array | List[float]",
    parents: "array | List[int]",
) -> List[float]:
    """Each span's duration minus the part of it its children cover.

    Children may overlap each other or stick out of their parent (spans
    from another clock, hand-built trees); the covered part is the union
    of the children's intervals clipped to the parent's.
    """
    children: Dict[int, List[int]] = {}
    for i, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append(i)
    out = [ends[i] - starts[i] for i in range(len(starts))]
    for parent, kids in children.items():
        lo, hi = starts[parent], ends[parent]
        covered = 0.0
        run_start = run_end = None
        for start, end in sorted((max(lo, starts[k]), min(hi, ends[k])) for k in kids):
            if end <= start:
                continue
            if run_end is None or start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = start, end
            elif end > run_end:
                run_end = end
        if run_end is not None:
            covered += run_end - run_start
        out[parent] -= covered
    return out


# ----------------------------------------------------------------------
# Installing the wrappers
# ----------------------------------------------------------------------
def _patch(undo: List[Tuple[type, str, Any]], cls: type, name: str, make: Callable) -> None:
    original = cls.__dict__[name]
    undo.append((cls, name, original))
    setattr(cls, name, make(original))


def _span(tracer: Tracer, name: str):
    def make(original):
        def wrapper(*args, **kwargs):
            return tracer.call(name, original, *args, **kwargs)

        return wrapper

    return make


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap the program's public entry points; returns the undo function."""
    from repro.core.overlay import BasicGeoGrid
    from repro.core.space import Space
    from repro.loadbalance.engine import AdaptationEngine
    from repro.loadbalance.workload import WorkloadIndexCalculator
    from repro.obs.health import NeighborHealthView
    from repro.obs.telemetry import VitalsFrame
    from repro.protocol.cluster import ProtocolCluster
    from repro.protocol.node import ProtocolNode
    from repro.protocol.reliable import ReliableChannel
    from repro.sim.scheduler import EventScheduler
    from repro.sim.transport import SimNetwork
    from repro.store.overlay_store import OverlayStore
    from repro.store.spatial import GridIndex
    from repro.sub.index import SubIndex

    undo: List[Tuple[type, str, Any]] = []
    call = tracer.call

    def make_at(original):
        def at(self, when, callback):
            # A callback scheduled from inside a send is that message's
            # delivery; everything else is a plain event.
            if tracer.current() == "sim.transport.send":
                name = "sim.transport.deliver"
            else:
                name = "sim.scheduler.event"
            return original(self, when, lambda: call(name, callback))

        return at

    def make_every(original):
        def every(self, interval, callback, *args, **kwargs):
            name = TIMER + getattr(callback, "__name__", "callback")
            return original(self, interval, lambda: call(name, callback), *args, **kwargs)

        return every

    def make_register(original):
        def register(self, address, coord, handler):
            def traced(message):
                return call(DISPATCH + message.kind, handler, message)

            return original(self, address, coord, traced)

        return register

    def make_on_receive(original):
        def on_receive(self, message, dispatch):
            def traced(kind, body, envelope):
                return call(DISPATCH + kind, dispatch, kind, body, envelope)

            return call("protocol.reliable.on_receive", original, self, message, traced)

        return on_receive

    def make_join_node(original):
        def join_node(self, *args, **kwargs):
            fired = self.scheduler.fired
            try:
                return call("protocol.cluster.join", original, self, *args, **kwargs)
            finally:
                tracer.join_events.append(self.scheduler.fired - fired)

        return join_node

    _patch(undo, EventScheduler, "run_until", _span(tracer, "sim.scheduler.run_until"))
    _patch(undo, EventScheduler, "at", make_at)
    _patch(undo, EventScheduler, "every", make_every)
    _patch(undo, SimNetwork, "send", _span(tracer, "sim.transport.send"))
    _patch(undo, SimNetwork, "register", make_register)
    _patch(undo, ProtocolCluster, "join_node", make_join_node)
    for api in ("send_to_point", "store_update", "store_lookup", "subscribe"):
        _patch(undo, ProtocolNode, api, _span(tracer, f"protocol.node.api.{api}"))
    _patch(undo, ReliableChannel, "send", _span(tracer, "protocol.reliable.send"))
    _patch(undo, ReliableChannel, "on_receive", make_on_receive)
    _patch(undo, ReliableChannel, "on_ack", _span(tracer, "protocol.reliable.on_ack"))
    for method in ("upsert", "query", "remove"):
        _patch(undo, GridIndex, method, _span(tracer, f"store.grid_index.{method}"))
    for method in ("upsert", "match", "touching"):
        _patch(undo, SubIndex, method, _span(tracer, f"sub.index.{method}"))
    _patch(undo, NeighborHealthView, "observe", _span(tracer, "obs.health.observe"))
    _patch(undo, VitalsFrame, "roll", _span(tracer, "obs.telemetry.roll"))
    _patch(undo, BasicGeoGrid, "route_from", _span(tracer, "core.overlay.route_from"))
    _patch(undo, BasicGeoGrid, "join", _span(tracer, "core.overlay.join"))
    _patch(undo, Space, "split_region", _span(tracer, "core.space.split"))
    _patch(undo, OverlayStore, "update", _span(tracer, "store.overlay.update"))
    _patch(undo, OverlayStore, "lookup", _span(tracer, "store.overlay.lookup"))
    _patch(undo, AdaptationEngine, "run_round", _span(tracer, "loadbalance.round"))
    _patch(undo, WorkloadIndexCalculator, "summary", _span(tracer, "loadbalance.summary"))

    def uninstall() -> None:
        for cls, name, original in reversed(undo):
            setattr(cls, name, original)

    return uninstall


# ----------------------------------------------------------------------
# Public-state counts
# ----------------------------------------------------------------------
def public_counts(state: Dict[str, Any]) -> Dict[str, Any]:
    """Counters read from the program's public state."""
    from repro.protocol import messages as m
    from repro.protocol.reliable import tally_stats

    counts: Dict[str, Any] = {}
    cluster = state.get("cluster")
    if cluster is not None:
        stats = cluster.network.stats
        nodes = list(cluster.nodes.values())
        counts.update(
            sent=stats.sent,
            delivered=stats.delivered,
            dropped=stats.dropped_random + stats.dropped_dead + stats.dropped_partition + stats.dropped_gray,
            heartbeats=stats.by_kind.get(m.HEARTBEAT, 0),
            shortcut_hits=sum(n.shortcuts.hits for n in nodes),
            shortcut_misses=sum(n.shortcuts.misses for n in nodes),
            shortcut_repairs=sum(n.shortcuts.repairs for n in nodes),
            sheds=sum(n.sheds for n in nodes),
            notifications=sum(len(n.notifications) for n in nodes),
            events=cluster.scheduler.fired,
            **{f"reliable.{k}": v for k, v in tally_stats(n.reliable for n in nodes).items()},
        )
    engine = state.get("engine")
    if engine is not None:
        counts.update(
            adaptations=engine.total_adaptations,
            triggered=sum(r.triggered for r in engine.round_reports),
            search_messages=engine.search_messages,
        )
    return counts


# ----------------------------------------------------------------------
# The per-layer table
# ----------------------------------------------------------------------
def _us(values: List[float], q: float = 50) -> float:
    return percentile(values, q) * 1e6 if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer: Tracer, route_hops: List[int], peak_pending: int, peak_in_flight: int) -> Dict[str, Tuple[float, str]]:
    """Derive the per-layer metrics of one traced run."""
    from repro.protocol import messages as m
    from repro.protocol.overload import PRIORITY_DATA, PRIORITY_QUERY, PRIORITY_OF

    names, starts, ends, parents = tracer.names, tracer.starts, tracer.ends, tracer.parents
    selfs = self_times(starts, ends, parents)
    timed = range(tracer.timed_first, tracer.timed_last)
    durations: Dict[str, List[float]] = {}
    own: Dict[str, List[float]] = {}
    for i in timed:
        durations.setdefault(names[i], []).append(ends[i] - starts[i])
        own.setdefault(names[i], []).append(selfs[i])
    setup_durations: Dict[str, List[float]] = {}
    for i, name in enumerate(names):
        if name in ("protocol.cluster.join", "core.overlay.join", "core.space.split"):
            setup_durations.setdefault(name, []).append(ends[i] - starts[i])

    def spans(name: str) -> List[float]:
        return durations.get(name, [])

    def prefixed(prefix: str) -> List[float]:
        return [d for name, ds in durations.items() if name.startswith(prefix) for d in ds]

    program_s = sum(spans("sim.scheduler.run_until"))
    events = len(spans("sim.scheduler.event")) + len(spans("sim.transport.deliver"))
    run_until_self = sum(own.get("sim.scheduler.run_until", []))
    heartbeat = spans(DISPATCH + m.HEARTBEAT)
    dispatched = {name[len(DISPATCH):]: len(ds) for name, ds in durations.items() if name.startswith(DISPATCH)}
    data_query = sum(
        count for kind, count in dispatched.items()
        if PRIORITY_OF.get(kind) in (PRIORITY_DATA, PRIORITY_QUERY)
    )
    before, after = tracer.before, tracer.after

    def delta(key: str) -> float:
        return after.get(key, 0) - before.get(key, 0)

    notify_in = dispatched.get(m.NOTIFY, 0)
    joins = setup_durations.get("protocol.cluster.join", [])
    rounds = spans("loadbalance.round")
    obs_s = sum(spans("obs.health.observe")) + sum(spans("obs.telemetry.roll"))
    hb_share = _ratio(delta("heartbeats"), delta("sent"))
    layers = {
        "sim.scheduler.events": (events, "count"),
        "sim.scheduler.self_us_per_event": (_ratio(run_until_self, events) * 1e6, "us"),
        "sim.scheduler.peak_pending": (peak_pending, "count"),
        "sim.transport.sent": (delta("sent"), "count"),
        "sim.transport.delivered": (delta("delivered"), "count"),
        "sim.transport.dropped": (delta("dropped"), "count"),
        "sim.transport.heartbeat_share": (hb_share, "ratio"),
        "sim.transport.send_us_p50": (_us(spans("sim.transport.send")), "us"),
        "sim.transport.deliver_self_us_p50": (_us(own.get("sim.transport.deliver", [])), "us"),
        "sim.transport.peak_in_flight": (peak_in_flight, "count"),
        "protocol.cluster.join_s_p50": (percentile(joins, 50) if joins else 0.0, "s"),
        "protocol.cluster.join_s_p90": (percentile(joins, 90) if joins else 0.0, "s"),
        "protocol.cluster.join_events_p50": (percentile(tracer.join_events, 50) if tracer.join_events else 0, "count"),
        "protocol.node.heartbeat.count": (len(heartbeat), "count"),
        "protocol.node.heartbeat.us_p50": (_us(heartbeat), "us"),
        "protocol.node.heartbeat.us_p99": (_us(heartbeat, 99), "us"),
        "protocol.node.heartbeat.time_share": (_ratio(sum(heartbeat), program_s), "ratio"),
        "protocol.node.route.us_p50": (_us(spans(DISPATCH + m.ROUTE)), "us"),
        "protocol.node.store_update.us_p50": (_us(spans(DISPATCH + m.STORE_UPDATE)), "us"),
        "protocol.node.timer.us_p50": (_us(prefixed(TIMER)), "us"),
        "protocol.node.route.hops_p50": (percentile(route_hops, 50) if route_hops else 0, "hops"),
        "protocol.node.route.hops_p99": (percentile(route_hops, 99) if route_hops else 0, "hops"),
        "protocol.node.switch_msgs": (
            sum(dispatched.get(k, 0) for k in (m.SWITCH_REQUEST, m.SWITCH_ACCEPT, m.SWITCH_REJECT)),
            "count",
        ),
        "protocol.shortcuts.hit_ratio": (
            _ratio(delta("shortcut_hits"), delta("shortcut_hits") + delta("shortcut_misses")),
            "ratio",
        ),
        "protocol.shortcuts.repairs": (delta("shortcut_repairs"), "count"),
        "protocol.reliable.sent": (delta("reliable.sent"), "count"),
        "protocol.reliable.retries": (delta("reliable.retries"), "count"),
        "protocol.reliable.dead_letters": (delta("reliable.dead_lettered"), "count"),
        "protocol.reliable.duplicates": (delta("reliable.duplicates"), "count"),
        "protocol.reliable.ack_ratio": (_ratio(delta("reliable.acked"), delta("reliable.sent")), "ratio"),
        "protocol.overload.sheds": (delta("sheds"), "count"),
        "protocol.overload.shed_ratio": (_ratio(delta("sheds"), data_query), "ratio"),
        "store.grid_index.upsert_us_p50": (_us(spans("store.grid_index.upsert")), "us"),
        "store.grid_index.query_us_p50": (_us(spans("store.grid_index.query")), "us"),
        "store.overlay.update_us_p50": (_us(spans("store.overlay.update")), "us"),
        "store.overlay.lookup_us_p50": (_us(spans("store.overlay.lookup")), "us"),
        "sub.index.match_us_p50": (_us(spans("sub.index.match")), "us"),
        "sub.notify.dup_ratio": (_ratio(notify_in - delta("notifications"), notify_in), "ratio"),
        "obs.health.observe_us_p50": (_us(spans("obs.health.observe")), "us"),
        "obs.telemetry.roll_us_p50": (_us(spans("obs.telemetry.roll")), "us"),
        "obs.time_share": (_ratio(obs_s, program_s), "ratio"),
        "core.overlay.route_us_p50": (_us(spans("core.overlay.route_from")), "us"),
        "core.overlay.join_us_p50": (_us(setup_durations.get("core.overlay.join", [])), "us"),
        "core.space.splits": (len(setup_durations.get("core.space.split", [])), "count"),
        "loadbalance.round_s_p50": (percentile(rounds, 50) if rounds else 0.0, "s"),
        "loadbalance.adaptations": (delta("adaptations"), "count"),
        "loadbalance.useful_ratio": (_ratio(delta("adaptations"), delta("triggered")), "ratio"),
        "loadbalance.search_messages": (delta("search_messages"), "count"),
        "loadbalance.summary_us_p50": (_us(spans("loadbalance.summary")), "us"),
    }
    return layers


def traced_run(runner, load, seed: int, seconds: float):
    """Run untraced, then traced, and return the traced result.

    Both runs set up once and do the same seeded work, so the ratio of
    their timed phases is the tracing overhead.
    """
    plain = runner(load, seed, seconds, setups=1)
    tracer = Tracer()
    uninstall = install(tracer)
    try:
        result = runner(load, seed, seconds, setups=1, tracer=tracer)
    finally:
        uninstall()
    if result.deterministic != plain.deterministic:
        raise CheckFailed("the traced run did different work than the untraced one")
    layers = per_layer(
        tracer,
        result.trace_inputs.get("route_hops", []),
        result.trace_inputs.get("peak_pending", 0),
        result.trace_inputs.get("peak_in_flight", 0),
    )
    layers["workload.gen_s"] = result.layers["workload.gen_s"]
    layers["bench.trace_overhead"] = (
        sum(result.chunk_host_s) / sum(plain.chunk_host_s),
        "ratio",
    )
    result.layers = layers
    tracer.write(spans_path(load.name, seed))
    return result
