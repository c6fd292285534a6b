"""GeoGrid nodes.

Section 2.1: a node is identified by the five-attribute tuple
``<x, y, IP, port, properties>``.  ``(x, y)`` is the node's geographical
coordinate (obtained from GPS or a geolocation service), ``(IP, port)`` is
the endpoint running the GeoGrid middleware, and ``properties`` carries
application-specific information -- most importantly *capacity*, the amount
of resources the node dedicates to serving others (the paper uses available
network bandwidth).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, NamedTuple

from repro.geometry import Point


class NodeAddress(NamedTuple):
    """The ``(IP, port)`` endpoint of a node's GeoGrid middleware.

    A named tuple: every transport and protocol table is keyed by
    address, so hashing and ``==`` run millions of times per simulated
    minute and belong in C.  An address equals a plain ``(ip, port)``
    tuple, orders like one, and ``json.dumps`` writes it as a list --
    render it with ``str()`` wherever it leaves the process (journals,
    annotations, exports).

    The hash goes through the ip *string*, so set iteration order follows
    ``PYTHONHASHSEED``: a fan-out over a set of addresses must ``sorted()``
    it first, or seeded simulations differ between processes.
    """

    ip: str
    port: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.ip}:{self.port}"


def synthetic_address(node_id: int) -> NodeAddress:
    """Deterministically fabricate an address for a simulated node.

    The simulation does not open sockets, but the protocol layer and the
    bootstrap service still identify endpoints by address, exactly like the
    paper's prototype.
    """
    if node_id < 0:
        raise ValueError(f"node_id must be non-negative, got {node_id}")
    octet3, octet4 = divmod(node_id % 65536, 256)
    return NodeAddress(ip=f"10.{(node_id // 65536) % 256}.{octet3}.{octet4}", port=7000)


@dataclass(eq=False)
class Node:
    """A GeoGrid proxy node.

    Nodes compare and hash by identity (``node_id``); two node objects with
    the same id are the same logical node.  Coordinates and capacity are
    fixed for the lifetime of a node (the paper assumes network nodes are
    not mobile); what changes over time is which *region(s)* the node owns,
    and that state lives in the overlay, not here.
    """

    node_id: int
    coord: Point
    capacity: float
    address: NodeAddress = None  # type: ignore[assignment]
    properties: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError(f"capacity must be positive, got {self.capacity!r}")
        if self.address is None:
            self.address = synthetic_address(self.node_id)

    def __hash__(self) -> int:
        return hash(self.node_id)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Node):
            return NotImplemented
        return self.node_id == other.node_id

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Node(id={self.node_id}, coord={self.coord}, "
            f"capacity={self.capacity:g})"
        )
