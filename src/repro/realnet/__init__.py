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
* ``python -m repro run --realnet`` — the command line (:mod:`repro.cli`).

See ``docs/realnet.md`` for the Host contract, the validation workflow and
the wall-clock caveats.
"""

from repro._lazy import lazy_exports

__getattr__ = lazy_exports(globals(), {
    "repro.realnet.compare": ("BackendComparison", "MetricDelta", "compare_backends"),
    "repro.realnet.errors": ("CodecError", "RealNetError", "RealNetStateError"),
    "repro.realnet.host": ("AsyncioHost", "WallClockHandle"),
    "repro.realnet.net": ("UdpNetwork",),
    "repro.realnet.ports": ("PortPlan",),
    "repro.realnet.session": ("RealNetConfig", "RealNetSession"),
})

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
]
