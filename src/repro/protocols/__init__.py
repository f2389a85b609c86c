"""Pluggable dissemination protocols.

The node engine (:class:`repro.core.node.GossipNode`) is a protocol-agnostic
host; everything that makes the paper's system *the paper's system* — the
three-phase propose / request / serve exchange — lives here as one strategy
among several:

* :class:`ThreePhaseGossip` — Algorithm 1, the paper's protocol (default);
* :class:`EagerPush` — one-phase full-payload infect-and-die, the classic
  baseline the paper improves upon.

Protocols are addressed by name through the registry, so configurations stay
declarative::

    from repro import SessionConfig, run_session

    result = run_session(SessionConfig(num_nodes=40, protocol="eager-push"))
"""

from repro._lazy import lazy_exports

__getattr__ = lazy_exports(globals(), {
    "repro.protocols.base": ("DisseminationProtocol", "ProtocolHost"),
    "repro.protocols.eager_push": ("PUSH", "EagerPush"),
    "repro.protocols.registry": (
        "available_protocols",
        "create_protocol",
        "protocol_factory",
        "register_protocol",
    ),
    "repro.protocols.three_phase": ("ThreePhaseGossip",),
})

__all__ = [
    "DisseminationProtocol",
    "EagerPush",
    "PUSH",
    "ProtocolHost",
    "ThreePhaseGossip",
    "available_protocols",
    "create_protocol",
    "protocol_factory",
    "register_protocol",
]
