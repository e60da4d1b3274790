"""Operation routing: which brick coordinates, and what happens if it dies.

FAB is fully decentralized — any brick can coordinate any operation
(paper Section 1.1), and a multipathed client whose coordinator crashes
simply reissues the request through another brick.  Every operation
takes a single ``route=`` parameter: a :class:`RouteOptions` carrying
both the pinned coordinator (if any) and whether automatic failover is
allowed, or a bare process id as shorthand for a pinned coordinator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from ..errors import ConfigurationError
from ..types import ProcessId

__all__ = [
    "RouteOptions",
    "RouteLike",
    "DEFAULT_ROUTE",
    "resolve_route",
    "pinned_coordinator",
]


@dataclass(frozen=True)
class RouteOptions:
    """How one operation (or a whole volume/session) picks coordinators.

    Attributes:
        coordinator: preferred coordinating brick, or ``None`` to let
            the caller spread load (volumes fall back to their default
            brick; sessions rotate round-robin over live bricks).
        failover: reissue through another live brick when the
            coordinator crashes mid-operation (or an attempt times
            out).  With ``False`` a crash surfaces as
            :class:`~repro.errors.StorageError` instead — useful for
            experiments that want to observe the raw partial operation.
    """

    coordinator: Optional[ProcessId] = None
    failover: bool = True

    def pinned(self) -> bool:
        """True when a specific coordinator is requested."""
        return self.coordinator is not None


#: The default route: no pinned coordinator, failover enabled.
DEFAULT_ROUTE = RouteOptions()

#: Either form a ``route=`` parameter accepts (or ``None``).
RouteLike = Union[RouteOptions, ProcessId, None]


def resolve_route(
    route: RouteLike = None, default: Optional[RouteOptions] = None
) -> RouteOptions:
    """Normalize a ``route=`` argument to :class:`RouteOptions`.

    ``RouteOptions(...)`` is returned as-is, a bare ``int`` pins that
    coordinator, and ``None`` yields ``default`` (or
    :data:`DEFAULT_ROUTE`).
    """
    if route is None:
        return default if default is not None else DEFAULT_ROUTE
    if isinstance(route, RouteOptions):
        return route
    if isinstance(route, int):
        return RouteOptions(coordinator=route)
    raise ConfigurationError(
        f"route must be RouteOptions, a process id, or None; got {route!r}"
    )


def pinned_coordinator(route: RouteLike, default: ProcessId = 1) -> ProcessId:
    """The brick ``route`` pins, or ``default`` when it pins none."""
    coordinator = resolve_route(route).coordinator
    return default if coordinator is None else coordinator
