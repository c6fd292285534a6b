"""``repro.store`` -- the replicated location-state plane.

GeoGrid is a *location service network*: the routing fabric exists so
that per-region service state -- the positions of millions of moving
objects -- can be stored at, replicated within, and handed between
regions as the partition shifts underneath it.  This package holds the
store's data structures and its overlay-model incarnation; the
message-level incarnation lives inside :mod:`repro.protocol.node` (the
``STORE_*`` message kinds of :mod:`repro.protocol.messages`).

* :class:`~repro.store.spatial.ObjectRecord` -- one stored object:
  ``(object_id, position, payload, version)``, last-writer-wins.
* :class:`~repro.store.spatial.GridIndex` -- the per-region
  grid-bucketed spatial index, with bucket digests for the bounded
  anti-entropy exchange between dual peers.
* :class:`~repro.store.overlay_store.OverlayStore` -- the store bound to
  the in-memory overlay model, used by the paper-scale experiments and
  the ``paper_adapt`` benchmark workload.
"""

from repro.store.spatial import DEFAULT_CELL, GridIndex, ObjectRecord
from repro.store.overlay_store import OverlayStore, OverlayStoreStats

__all__ = [
    "DEFAULT_CELL",
    "GridIndex",
    "ObjectRecord",
    "OverlayStore",
    "OverlayStoreStats",
]
