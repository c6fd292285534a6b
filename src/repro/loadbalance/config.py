"""Configuration of the adaptation engine."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError

#: The paper's trigger ratio: a node adapts once its workload index is
#: "higher than sqrt(2) times of the lowest one among its neighbors".
TRIGGER_RATIO = math.sqrt(2.0)


@dataclass(frozen=True)
class AdaptationConfig:
    """Tunables of the load-balance adaptation process.

    Attributes
    ----------
    trigger_ratio:
        A node adapts when its index exceeds this multiple of the lowest
        neighbor index (paper: sqrt(2)).
    min_index:
        Absolute index floor below which a node never adapts.
    improvement_margin:
        A plan must bring the relevant maximum index strictly below
        ``old_max * improvement_margin``; values < 1 add hysteresis
        against swap oscillation.
    split_capacity_ratio:
        Mechanism (d) splits a full region when
        ``secondary.capacity >= split_capacity_ratio * primary.capacity``
        (the paper illustrates the equal-capacity case; 1.0 reproduces it,
        smaller values relax it).
    search_ttl:
        Hop budget of the TTL-guided remote search (mechanisms f--h).
    cooldown_rounds:
        A region restructured in round ``t`` may not be restructured again
        before round ``t + cooldown_rounds`` -- the paper's "avoid repeated
        triggering within a time window".
    replication_fraction:
        Secondary-serving cost fraction fed to the index calculator.
    max_adaptations_per_round:
        Optional hard cap per round (useful for the per-adaptation
        convergence experiments, Figures 9/10).
    """

    trigger_ratio: float = TRIGGER_RATIO
    min_index: float = 1e-9
    improvement_margin: float = 0.999
    split_capacity_ratio: float = 1.0
    search_ttl: int = 4
    cooldown_rounds: int = 1
    replication_fraction: float = 0.0
    max_adaptations_per_round: Optional[int] = None

    def __post_init__(self) -> None:
        if self.trigger_ratio < 1.0:
            raise ConfigurationError(
                f"trigger_ratio must be >= 1, got {self.trigger_ratio!r}"
            )
        if self.min_index < 0.0:
            raise ConfigurationError(
                f"min_index must be >= 0, got {self.min_index!r}"
            )
        if not (0.0 < self.improvement_margin <= 1.0):
            raise ConfigurationError(
                f"improvement_margin must lie in (0, 1], got "
                f"{self.improvement_margin!r}"
            )
        if self.split_capacity_ratio <= 0.0:
            raise ConfigurationError(
                f"split_capacity_ratio must be positive, got "
                f"{self.split_capacity_ratio!r}"
            )
        if self.search_ttl < 1:
            raise ConfigurationError(
                f"search_ttl must be >= 1, got {self.search_ttl!r}"
            )
        if self.cooldown_rounds < 0:
            raise ConfigurationError(
                f"cooldown_rounds must be >= 0, got {self.cooldown_rounds!r}"
            )
        if not (0.0 <= self.replication_fraction <= 1.0):
            raise ConfigurationError(
                f"replication_fraction must lie in [0, 1], got "
                f"{self.replication_fraction!r}"
            )
        if (
            self.max_adaptations_per_round is not None
            and self.max_adaptations_per_round < 1
        ):
            raise ConfigurationError(
                f"max_adaptations_per_round must be >= 1 when set, got "
                f"{self.max_adaptations_per_round!r}"
            )
