"""The adaptation trigger.

Section 2.4: "A node starts its load balance adaptation process only when
its workload index is higher than sqrt(2) times of the lowest one among
its neighbors and there are no new nodes that are ready to join this
region.  By doing so, we can avoid the load balance adaptation process
being repeatedly triggered within a geographical area in a certain time
window."

The sqrt(2) ratio provides hysteresis; the additional absolute floor
(``min_index``) keeps idle corners of the map (index ~ 0 everywhere) from
triggering on measurement noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.core.node import Node
from repro.loadbalance.config import TRIGGER_RATIO
from repro.loadbalance.workload import IndexTable, WorkloadIndexCalculator


@dataclass(frozen=True)
class TriggerRule:
    """Decides whether a node should start adapting.

    Parameters
    ----------
    ratio:
        The multiplicative threshold over the lowest neighbor index
        (paper: sqrt(2)).
    min_index:
        Absolute floor: a node whose own index is at or below this never
        adapts, no matter how idle its neighbors are.
    """

    ratio: float = TRIGGER_RATIO
    min_index: float = 1e-9

    def __post_init__(self) -> None:
        if self.ratio < 1.0:
            raise ValueError(
                f"trigger ratio below 1 would oscillate, got {self.ratio!r}"
            )
        if self.min_index < 0.0:
            raise ValueError(f"min_index must be >= 0, got {self.min_index!r}")

    def fires(self, index: float, lowest: Optional[float]) -> bool:
        """The trigger over plain numbers: a node's ``index`` against the
        lowest among its neighbors' (``None``: no neighbors)."""
        if index <= self.min_index or lowest is None:
            return False
        return index > self.ratio * lowest

    def should_adapt(
        self, node: Node, calc: Union[WorkloadIndexCalculator, IndexTable]
    ) -> bool:
        """Apply the trigger to ``node`` under the given index oracle: a
        calculator, or the engine's per-round :class:`IndexTable`."""
        index = calc.node_index(node)
        if index <= self.min_index:
            return False  # skip the neighbor scan: the floor already refuses
        return self.fires(index, calc.min_neighbor_index(node))
