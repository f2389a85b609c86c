"""Real-network execution backend: asyncio UDP sockets on localhost.

This package runs the *same* protocol, scenario and telemetry stack as the
discrete-event simulator over actual UDP datagrams — task-per-node, real
ports, wall-clock timers mapped onto the simulator's virtual time axis.
The pieces:

* :class:`~repro.realnet.host.AsyncioHost` — the wall-clock
  :class:`~repro.core.host.Host` implementation;
* :class:`~repro.realnet.net.UdpNetwork` — the simulated transport itself
  (a :class:`~repro.network.transport.Network` subclass) with real sockets
  as its delivery leg;
* :class:`~repro.realnet.session.RealNetSession` — the streaming session
  on the real backend, returning an ordinary
  :class:`~repro.core.session.SessionResult`;
* :mod:`~repro.realnet.compare` — the sim-vs-real agreement report;
* ``python -m repro.realnet run|compare`` — the CLI.

See ``docs/realnet.md`` for the Host contract, the validation workflow and
the wall-clock caveats.
"""

from repro.realnet.compare import BackendComparison, MetricDelta, compare_backends
from repro.realnet.errors import CodecError, RealNetError, RealNetStateError
from repro.realnet.host import AsyncioHost, WallClockHandle
from repro.realnet.net import UdpNetwork
from repro.realnet.ports import PortPlan
from repro.realnet.session import (
    RealNetConfig,
    RealNetSession,
    make_run_id,
    write_delivery_log,
)

__all__ = [
    "AsyncioHost",
    "BackendComparison",
    "CodecError",
    "MetricDelta",
    "PortPlan",
    "RealNetConfig",
    "RealNetError",
    "RealNetSession",
    "RealNetStateError",
    "UdpNetwork",
    "WallClockHandle",
    "compare_backends",
    "make_run_id",
    "write_delivery_log",
]
