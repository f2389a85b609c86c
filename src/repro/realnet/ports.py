"""Race-free UDP port allocation for localhost node fleets.

Each node of a real-network session owns one UDP socket.  Ports are
allocated by *pre-binding* the sockets before the event loop starts:
binding to port 0 lets the kernel pick a free ephemeral port atomically, so
two concurrent sessions on the same machine can never collide — the
classic ``base_port + node_id`` scheme (SNIPPETS Snippet 2) is still
available for runs that need stable, externally known addresses.

The bound sockets are handed to ``loop.create_datagram_endpoint(sock=...)``
unchanged, so the address a node advertises is exactly the one it receives
on.
"""

from __future__ import annotations

import socket
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.network.message import NodeId

Address = Tuple[str, int]


@dataclass(frozen=True)
class PortPlan:
    """How a session maps nodes onto local UDP ports.

    Attributes
    ----------
    bind_host:
        Interface to bind every node socket on (loopback by default).
    base_port:
        ``None`` (the default) lets the kernel assign ephemeral ports;
        an integer binds node ``i`` to ``base_port + i`` explicitly.
    """

    bind_host: str = "127.0.0.1"
    base_port: Optional[int] = None

    def __post_init__(self) -> None:
        if self.base_port is not None and not 1 <= self.base_port <= 65535:
            raise ValueError(f"base_port must be in 1..65535, got {self.base_port!r}")


def bind_node_socket(plan: PortPlan, node_id: NodeId) -> socket.socket:
    """Create and bind one node's UDP socket according to ``plan``.

    The socket is non-blocking (as ``create_datagram_endpoint`` requires)
    and already bound, so its port is reserved from this moment on.
    """
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        port = 0 if plan.base_port is None else plan.base_port + node_id
        sock.bind((plan.bind_host, port))
        sock.setblocking(False)
    except OSError:
        sock.close()
        raise
    return sock


def address_of(sock: socket.socket) -> Address:
    """The ``(host, port)`` a bound socket actually listens on."""
    host, port = sock.getsockname()[:2]
    return (host, port)


__all__ = ["Address", "PortPlan", "address_of", "bind_node_socket"]
