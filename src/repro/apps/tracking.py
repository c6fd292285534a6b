"""Continuous queries for moving users.

The paper's opening scenario is a *mobile* user: a commuter driving a
route wants "the traffic around me" continuously, not a one-shot answer.
On GeoGrid this is a sequence of short-lived location queries that follow
the user's position: at each position update the tracker registers a
fresh window subscription around the user (through her proxy) and lets
the previous one lapse.

:class:`RouteTracker` packages that pattern on top of
:class:`~repro.apps.pubsub.GeoPubSub`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Sequence

from repro.geometry import Point
from repro.core.node import Node
from repro.core.query import FilterCondition, LocationQuery, Subscription
from repro.apps.pubsub import GeoPubSub, Notification


@dataclass
class TrackerStep:
    """One position update: where the user was and what she heard."""

    position: Point
    registered_at: float
    subscription: Subscription
    #: Notifications delivered while this step's window was current.
    notifications: List[Notification] = field(default_factory=list)


class RouteTracker:
    """A moving user's continuous location query.

    Parameters
    ----------
    service:
        The pub/sub service of the GeoGrid deployment.
    proxy:
        The user's entry node (her focal object in every query).
    window_radius:
        Radius of the "around me" window, in miles.
    step_duration:
        How long each window stays registered; position updates are
        expected at least this often, so coverage has no gaps.
    condition:
        Optional payload filter (e.g. only ``"traffic"`` events).
    """

    def __init__(
        self,
        service: GeoPubSub,
        proxy: Node,
        window_radius: float = 2.0,
        step_duration: float = 10.0,
        condition: FilterCondition = None,
    ) -> None:
        if window_radius <= 0:
            raise ValueError(
                f"window_radius must be positive, got {window_radius!r}"
            )
        if step_duration <= 0:
            raise ValueError(
                f"step_duration must be positive, got {step_duration!r}"
            )
        self.service = service
        self.proxy = proxy
        self.window_radius = window_radius
        self.step_duration = step_duration
        self.condition = condition
        self.steps: List[TrackerStep] = []

    def move_to(self, position: Point, now: float) -> TrackerStep:
        """Report a new position; registers the next window subscription."""
        query = LocationQuery.around(
            position,
            self.window_radius,
            focal=self.proxy,
            condition=self.condition,
            payload={"tracker": id(self), "step": len(self.steps)},
        )
        subscription = self.service.subscribe(
            query, duration=self.step_duration, now=now
        )
        step = TrackerStep(
            position=position, registered_at=now, subscription=subscription
        )
        self.steps.append(step)
        return step

    def drive(
        self, route: Sequence[Point], start: float = 0.0
    ) -> List[TrackerStep]:
        """Follow a whole route, one window per waypoint."""
        now = start
        steps = []
        for position in route:
            steps.append(self.move_to(position, now))
            now += self.step_duration
        return steps

    def collect(self, since: float = float("-inf")) -> List[Notification]:
        """Pull this user's notifications out of the service inbox.

        Also attributes each notification to the step whose window
        produced it, so tests can ask "what did the user hear at
        waypoint 3?".
        """
        mine: List[Notification] = []
        by_query = {
            step.subscription.query.query_id: step for step in self.steps
        }
        for notification in self.service.delivered:
            if notification.published_at < since:
                continue
            query_id = notification.subscription.query.query_id
            step = by_query.get(query_id)
            if step is None:
                continue
            if notification not in step.notifications:
                step.notifications.append(notification)
            mine.append(notification)
        return mine

    def heard_payloads(self) -> List[Any]:
        """All payloads this user has been notified about, in order."""
        return [notification.payload for notification in self.collect()]
