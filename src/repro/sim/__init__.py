"""Discrete-event simulation substrate.

The paper evaluated GeoGrid on a simulated 64 mi x 64 mi service area; this
package is that substrate, built from scratch:

* :mod:`repro.sim.scheduler` -- the virtual clock and event queue;
* :mod:`repro.sim.rng` -- named, independently-seeded random streams so
  every experiment is exactly reproducible;
* :mod:`repro.sim.latency` -- per-message latency models (constant,
  uniform, geographic-distance-proportional);
* :mod:`repro.sim.transport` -- the simulated network: endpoints,
  message delivery with latency, loss, and partitions;
* :mod:`repro.sim.churn` -- join/departure/failure processes;
* :mod:`repro.sim.chaos` -- seeded fault campaigns (asymmetric
  partitions, gray failures, crash-restart, regional outages, churn
  storms) driven to quiescence under the invariant auditor.

The message-level GeoGrid protocol (:mod:`repro.protocol`) runs on top of
this; the overlay model used by the paper-scale experiments does not need
it (it is synchronous by construction).
"""

from repro.sim.scheduler import Event, EventScheduler, Periodic
from repro.sim.rng import RngStreams
from repro.sim.latency import (
    ConstantLatency,
    DistanceLatency,
    LatencyModel,
    UniformLatency,
)
from repro.sim.transport import (
    Endpoint,
    GrayFailure,
    Message,
    SimNetwork,
    TransportStats,
)
from repro.sim.churn import ChurnConfig, ChurnProcess

__all__ = [
    "Event",
    "EventScheduler",
    "Periodic",
    "RngStreams",
    "LatencyModel",
    "ConstantLatency",
    "UniformLatency",
    "DistanceLatency",
    "SimNetwork",
    "Message",
    "Endpoint",
    "GrayFailure",
    "TransportStats",
    "ChurnConfig",
    "ChurnProcess",
]
