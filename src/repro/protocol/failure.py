"""The failure detector: each node's periodic failure sweep.

Every ``CHECK_INTERVAL`` tick the sweep of a region owner expires the
claim ledger, evicts a silent secondary (or, on a secondary, takes over
from a silent primary), drops shortcuts whose first hop went unacked,
and on a primary passes over the neighbor table and expires stale
workload statistics.  Every one of these acts only once some stamp is
older than its timeout (``FAILURE_HORIZON`` or ``PEER_TIMEOUT``), so the
sweep's timer sleeps through the ticks at which none can be, and is
woken by the writes that can bring one forward (see
:meth:`FailureSweep._sleep_sweep`).

:class:`FailureSweep` is a mixin over :class:`~repro.protocol.node.ProtocolNode`
state; the node owns the fields it reads and writes.
"""

from __future__ import annotations

import math
from typing import Optional

from repro import obs
from repro.core.node import NodeAddress
from repro.obs import causal

#: Interval of heartbeats between neighbor primaries.
HEARTBEAT_INTERVAL = 5.0
#: Interval of heartbeats inside a dual-peer pair ("higher frequency
#: than among the primary nodes of different regions", Section 2.3).
PEER_HEARTBEAT_INTERVAL = 2.0
#: A peer is suspected after this many missed intervals.
FAILURE_TIMEOUT_MULTIPLIER = 4.0
#: How long a silent neighbor primary stays credible: past it the
#: neighbor is suspected, its stats expire, and its claims and split
#: announcements are forgotten.
FAILURE_HORIZON = HEARTBEAT_INTERVAL * FAILURE_TIMEOUT_MULTIPLIER
#: How long a silent dual-peer partner stays credible.  Must exceed one
#: round trip across the service area, or a freshly granted secondary
#: gets evicted before its first heartbeat can arrive.
PEER_TIMEOUT = PEER_HEARTBEAT_INTERVAL * FAILURE_TIMEOUT_MULTIPLIER
#: Period of the local failure-detection sweep.
CHECK_INTERVAL = 1.0


class FailureSweep:
    """The failure sweep of :class:`~repro.protocol.node.ProtocolNode`."""

    def _check_failures(self) -> None:
        if not self.alive or self.owned is None:
            return
        now = self.scheduler.now
        self._sweep_failures(now)
        self._sleep_sweep(now)

    def _sleep_sweep(self, now: float) -> None:
        """Sleep the sweep's timer through the ticks that would be no-ops.

        A tick acts only once a stamp below is past its timeout, by the
        passes' own strict ``>`` on the timer's lattice floats.  Stamps
        only grow between ticks, and one written later is at least
        ``now``, which caps the sleep; the writes that can bring a pass
        forward otherwise (a view bump, a peer or role change) wake the
        timer.
        """
        owned, timer = self.owned, self._sweep_timer
        if owned is None or timer is None:
            return
        oldest = min(
            now, self._claims_oldest,
            *(sent for _, sent in self._shortcut_unacked.values()),
        )
        if owned.role == "primary":
            if (
                self._sweep_key != (self._view_epoch, owned.peer)
                or len(self._neighbor_stats_at) != len(self.neighbor_stats)
            ):
                return
            oldest = min(oldest, self._sweep_oldest, self._stats_oldest)
        seen = math.inf if owned.peer is None else self.last_seen.get(owned.peer, now)
        tick, skip = timer.due, 0
        while not (tick - oldest > FAILURE_HORIZON or tick - seen > PEER_TIMEOUT):
            tick += timer.interval
            skip += 1
        timer.sleep(skip)

    def _sweep_failures(self, now: float) -> None:
        """One failure-detection pass over the clocks below."""
        assert self.owned is not None
        # Expire witnessed claims older than the failure horizon (the
        # witness itself ignores them; this only bounds the ledger).
        # Every stamp is >= _claims_oldest, so while that bound is inside
        # the horizon nothing can expire and the rebuild is skipped.
        if now - self._claims_oldest > FAILURE_HORIZON:
            self._claims_heard = {
                rect: claim for rect, claim in self._claims_heard.items()
                if now - claim[1] <= FAILURE_HORIZON
            }
            self._claims_oldest = min(
                (claim[1] for claim in self._claims_heard.values()),
                default=math.inf,
            )
        # 0. A primary evicts a silent secondary so the slot can be
        #    refilled by a later join (the paper: the region is marked
        #    "half full" again).
        if (
            self.owned.role == "primary"
            and self.owned.peer is not None
        ):
            seen = self.last_seen.get(self.owned.peer)
            if seen is not None and now - seen > PEER_TIMEOUT:
                causal.annotate(
                    "peer_evicted",
                    primary=str(self.address),
                    peer=str(self.owned.peer),
                    rect=str(self.owned.rect),
                )
                self._suspect(self.owned.peer)
                self._set_peer(None)
                self._announce_self()
        # 0b. Drop the shortcuts whose delivery ack did not come back
        #     within the failure timeout (see _route_forward).
        if self._shortcut_unacked:
            for request_id, (rect, sent) in list(
                self._shortcut_unacked.items()
            ):
                if now - sent > FAILURE_HORIZON:
                    del self._shortcut_unacked[request_id]
                    self.shortcuts.invalidate_rect(rect)
        # 1. Dual-peer failover: the secondary watches its primary at the
        #    fast heartbeat frequency.
        if self.owned.role == "secondary" and self.owned.peer is not None:
            seen = self.last_seen.get(self.owned.peer)
            if seen is not None and now - seen > PEER_TIMEOUT:
                self._take_over_primary()
                return
        # 2. Neighbor failure detection at the slow frequency.  The pass
        #    acts only on a silent primary or one naming our peer; while
        #    the table and peer are unchanged and the oldest primary
        #    ``last_seen`` (which only grows) is inside the horizon, it
        #    would do nothing and is skipped.
        if self.owned.role != "primary":
            return
        peer = self.owned.peer
        if (
            self._sweep_key != (self._view_epoch, peer)
            or now - self._sweep_oldest > FAILURE_HORIZON
        ):
            self._sweep_neighbors(now, peer)
        # 3. Expire stale neighbor workload statistics: an entry whose
        #    heartbeats stopped (crash, departure, region re-granted
        #    under a different rect) must not pin switch-candidate and
        #    deflection decisions with its last-reported load forever.
        #    Same timeout and clock-start discipline as the neighbor
        #    sweep; skipped while no entry can have expired.
        stats_at = self._neighbor_stats_at
        if (
            now - self._stats_oldest <= FAILURE_HORIZON
            and len(stats_at) == len(self.neighbor_stats)
        ):
            return
        for rect in list(self.neighbor_stats):
            # An entry without a timestamp starts its clock now.
            if now - stats_at.setdefault(rect, now) <= FAILURE_HORIZON:
                continue
            del self.neighbor_stats[rect]
            stats_at.pop(rect, None)
            self.neighbor_pressure.pop(rect, None)
            obs.inc("adapt.stats.expired")
        # Over an empty ledger the bound is ``now``, not ``inf``: an
        # entry written later must still come up for expiry.
        self._stats_oldest = min(stats_at.values(), default=now)

    def _sweep_neighbors(self, now: float, peer: Optional[NodeAddress]) -> None:
        """The failure sweep's pass over the neighbor table."""
        for rect, info in list(self.neighbor_table.items()):
            # Our secondary serves our region only, so a claim naming it
            # as another region's primary is stale whatever its clock says.
            if info.primary != peer:
                if not self._silent(info.primary, now):
                    continue
                # Only the transition matters: an entry whose secondary
                # keeps it (below) stays in the table, and re-suspecting
                # its primary every tick would rescan the cache for
                # nothing.
                self._suspect(info.primary)
            # Neither we nor our own secondary can be promoted into
            # another region.
            backed = info.secondary not in (None, self.address, peer)
            if backed and not self._silent(info.secondary, now):
                # The secondary will promote itself and announce; route via
                # the secondary in the meantime.  A promotion announces a
                # newer claim well inside the horizon, so a secondary
                # still unheard of past it died with its primary.
                continue
            self._table_drop(rect)
            if self._outclaimed(rect, info.stamp):
                # Not a dead region: a stale claim a newer one replaced.
                continue
            # Last owner of the region is gone: become a caretaker until a
            # join fills the hole.
            causal.annotate(
                "caretake_adopt",
                caretaker=str(self.address),
                rect=str(rect),
                suspect=str(info.primary),
            )
            self._caretake(rect, info.stamp)
            if backed:
                # Both owners fell silent.  If the secondary was promoted
                # after all, it announced itself to its replicated table,
                # which can name a dead neighbor instead of us (two
                # secondaries promoted at once): the probe reaches it, and
                # its newer claim releases the hole.
                self._send_probe(rect.center)
        # An entry naming our peer is dropped whatever its clock says:
        # ``-inf`` keeps the pass running while one is left.
        last_seen = self.last_seen
        self._sweep_key = (self._view_epoch, peer)
        self._sweep_oldest = min(
            (
                -math.inf if info.primary == peer
                else last_seen.get(info.primary, -math.inf)
                for info in self.neighbor_table.values()
            ),
            default=math.inf,
        )

    def _silent(self, address: NodeAddress, now: float) -> bool:
        """Whether ``address`` has been silent past the failure horizon.

        An address never heard from starts its clock now, so a neighbor
        that never speaks still times out eventually.
        """
        seen = self.last_seen.get(address)
        if seen is None:
            self.last_seen[address] = now
            return False
        return now - seen > FAILURE_HORIZON

    def _set_peer(self, peer: Optional[NodeAddress]) -> None:
        """Change our region's dual peer; the sweep watches it from the
        next tick."""
        assert self.owned is not None
        self.owned.peer = peer
        self._wake_sweep()

    def _wake_sweep(self) -> None:
        if self._sweep_timer is not None:
            self._sweep_timer.wake()
