"""Name-based registry of dissemination protocols.

Sessions and scenarios refer to protocols declaratively by name (e.g.
``SessionConfig(protocol="three-phase")``), which this registry resolves to a
factory producing one fresh strategy instance per node.  Extensions register
their own protocols with :func:`register_protocol`.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.protocols.base import DisseminationProtocol
from repro.protocols.eager_push import EagerPush
from repro.protocols.three_phase import ThreePhaseGossip

ProtocolFactory = Callable[[], DisseminationProtocol]

_PROTOCOLS: Dict[str, ProtocolFactory] = {}


def register_protocol(name: str, factory: ProtocolFactory) -> None:
    """Register a protocol factory under ``name``.

    ``factory`` is called once per node, so each node gets an independent
    strategy instance.  Re-registering an existing name raises.
    """
    if not name:
        raise ValueError("protocol name must be non-empty")
    if name in _PROTOCOLS:
        raise ValueError(f"protocol {name!r} is already registered")
    _PROTOCOLS[name] = factory


def protocol_factory(name: str) -> ProtocolFactory:
    """Look up the factory for ``name``."""
    try:
        return _PROTOCOLS[name]
    except KeyError:
        raise ValueError(
            f"unknown protocol {name!r}; available: {available_protocols()}"
        ) from None


def create_protocol(name: str) -> DisseminationProtocol:
    """Instantiate one fresh, unbound strategy for ``name``."""
    return protocol_factory(name)()


def available_protocols() -> List[str]:
    """Sorted names of all registered protocols."""
    return sorted(_PROTOCOLS)


register_protocol(ThreePhaseGossip.name, ThreePhaseGossip)
register_protocol(EagerPush.name, EagerPush)
