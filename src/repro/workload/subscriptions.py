"""Continuous-query traffic for the subscription plane.

The paper's standing queries -- "inform me of the traffic around Exit 89
in the next 30 minutes" (Section 2.2) -- mix three behaviours: clients
registering watch rectangles, leases being renewed or allowed to lapse,
and geo-tagged events being published (some inside watched ground, most
not).  :class:`SubscriptionWorkload` models that mix, engine-agnostic:
it yields :class:`SubscribeOp` / :class:`PublishOp` values describing
*what happens* and leaves delivery to the caller, so the same seeded
trace drives the chaos campaign and the
differential test against the model-layer oracle.

Publish targeting is explicit: each publish step lands a configurable
fraction of events *inside* a currently-watched rectangle (guaranteeing
matches to assert on) and scatters the rest uniformly (exercising the
no-match fast path).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, List

from repro.geometry import Point, Rect

__all__ = ["SubscribeOp", "PublishOp", "SubscriptionWorkload"]


@dataclass(frozen=True)
class SubscribeOp:
    """One subscription to register: a watch rectangle and its lease."""

    #: Stable workload-assigned identity (callers may pass it through as
    #: the protocol ``sub_id`` or map it to their own).
    name: str
    rect: Rect
    duration: float
    #: Index of the subscribing client in ``0..subscriber_count-1``.
    subscriber: int


@dataclass(frozen=True)
class PublishOp:
    """One geo-tagged event to publish."""

    point: Point
    payload: Any
    #: Index of the publishing client in ``0..subscriber_count-1``.
    publisher: int
    #: Whether the point was deliberately aimed inside a watched rect.
    targeted: bool


class SubscriptionWorkload:
    """A seeded population of continuous queries plus event traffic.

    Parameters
    ----------
    bounds:
        The service area; all rects and event points fall inside it.
    subscriptions:
        Number of standing queries registered by :meth:`initial_subscriptions`.
    subscriber_count:
        Number of distinct clients the ops are spread across.
    rng:
        Source of randomness (the trace is deterministic per seed).
    rect_extent:
        ``(min, max)`` side length of watch rectangles, drawn uniformly.
    duration:
        Lease length handed to every subscription.
    hit_ratio:
        Fraction of published events aimed inside a watched rectangle.
    """

    def __init__(
        self,
        bounds: Rect,
        subscriptions: int,
        rng: random.Random,
        subscriber_count: int = 4,
        rect_extent: tuple = (4.0, 12.0),
        duration: float = 600.0,
        hit_ratio: float = 0.5,
    ) -> None:
        if subscriptions <= 0:
            raise ValueError(
                f"subscriptions must be positive, got {subscriptions}"
            )
        if subscriber_count <= 0:
            raise ValueError(
                f"subscriber_count must be positive, got {subscriber_count}"
            )
        lo, hi = rect_extent
        if not (0 < lo <= hi):
            raise ValueError(f"invalid rect extent {rect_extent!r}")
        if not (0.0 <= hit_ratio <= 1.0):
            raise ValueError(f"hit_ratio must be in [0, 1], got {hit_ratio}")
        self.bounds = bounds
        self.rng = rng
        self.subscriber_count = subscriber_count
        self.rect_extent = rect_extent
        self.duration = duration
        self.hit_ratio = hit_ratio
        self._target = subscriptions
        self._seq = 0
        self._events = 0
        #: Rects currently considered live by the workload (the caller's
        #: engine owns actual lease expiry; this is the targeting pool).
        self.live: List[SubscribeOp] = []

    # ------------------------------------------------------------------
    # Subscription side
    # ------------------------------------------------------------------
    def _fresh_subscription(self) -> SubscribeOp:
        lo, hi = self.rect_extent
        width = self.rng.uniform(lo, hi)
        height = self.rng.uniform(lo, hi)
        x = self.rng.uniform(self.bounds.x, self.bounds.x2 - width)
        y = self.rng.uniform(self.bounds.y, self.bounds.y2 - height)
        op = SubscribeOp(
            name=f"sub{self._seq}",
            rect=Rect(x, y, width, height),
            duration=self.duration,
            subscriber=self._seq % self.subscriber_count,
        )
        self._seq += 1
        return op

    def initial_subscriptions(self) -> List[SubscribeOp]:
        """The standing-query population, registered up front."""
        fresh = [self._fresh_subscription() for _ in range(self._target)]
        self.live.extend(fresh)
        return fresh

    def churn_step(self, replace: int = 1) -> List[SubscribeOp]:
        """Drop the oldest ``replace`` queries and register replacements.

        The dropped queries simply stop being targeted (their leases are
        left to lapse at the engine); the replacements keep the live
        population at its configured size.
        """
        del self.live[:replace]
        fresh = [self._fresh_subscription() for _ in range(replace)]
        self.live.extend(fresh)
        return fresh

    # ------------------------------------------------------------------
    # Event side
    # ------------------------------------------------------------------
    def publish_step(self, count: int = 1) -> List[PublishOp]:
        """``count`` events: ``hit_ratio`` of them inside watched ground."""
        ops = []
        for _ in range(count):
            targeted = bool(self.live) and (
                self.rng.random() < self.hit_ratio
            )
            if targeted:
                rect = self.rng.choice(self.live).rect
                point = Point(
                    self.rng.uniform(rect.x, rect.x2),
                    self.rng.uniform(rect.y, rect.y2),
                )
            else:
                point = Point(
                    self.rng.uniform(self.bounds.x, self.bounds.x2),
                    self.rng.uniform(self.bounds.y, self.bounds.y2),
                )
            ops.append(
                PublishOp(
                    point=point,
                    payload=f"event{self._events}",
                    publisher=self._events % self.subscriber_count,
                    targeted=targeted,
                )
            )
            self._events += 1
        return ops

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SubscriptionWorkload(live={len(self.live)}, "
            f"events={self._events}, bounds={self.bounds})"
        )
