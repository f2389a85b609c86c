"""The host abstraction: what protocol-layer code needs from its runtime.

Everything above the engine — :class:`~repro.core.node.GossipNode`, the
timers, the stream emitter, the session's churn and join callbacks —
interacts with its execution substrate through a deliberately narrow surface: a clock, named
deterministic RNG streams, and cancellable timer scheduling.  :class:`Host`
names that surface as a structural :class:`~typing.Protocol`, so two very
different runtimes satisfy it without sharing any code:

* :class:`~repro.simulation.engine.Simulator` — virtual time, a discrete
  event queue, single-threaded determinism;
* :class:`~repro.realnet.host.AsyncioHost` — wall-clock time mapped onto a
  virtual axis, ``loop.call_at`` timers, real asyncio UDP sockets
  underneath (:mod:`repro.realnet`).

The protocol is *structural* on purpose: the simulation layer sits below
the core layer, so making ``Simulator`` inherit from a core-layer base
class would invert the dependency.  Instead, any object with the right
attributes conforms — ``isinstance(obj, Host)`` works at runtime because
the protocol is ``@runtime_checkable`` (which checks method presence, not
signatures).

Contract notes beyond what the type system can express:

* ``schedule``/``schedule_at`` return a handle whose ``cancel()`` is
  idempotent and whose ``cancelled`` is an *attribute or property*, not a
  method (``asyncio.TimerHandle.cancelled()`` is a method — the realnet
  host wraps it; see :class:`~repro.realnet.host.WallClockHandle`).
* ``now`` never decreases between two reads from the same callback chain.
* RNG streams are deterministic per ``(seed, stream name)`` on every host;
  wall-clock hosts still produce identical *draw sequences* per stream,
  although real-time interleaving may consume shared streams in a
  different global order than the simulator would (which is why the
  realnet backend keys per-datagram draws by sender).
"""

from __future__ import annotations

from typing import Any, Callable, Protocol, runtime_checkable

from repro.simulation.rng import RngRegistry

EventCallback = Callable[..., None]


@runtime_checkable
class ScheduledHandle(Protocol):
    """A cancellable reference to one scheduled callback."""

    def cancel(self) -> None:
        """Cancel the scheduled callback (idempotent)."""
        ...

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called."""
        ...


@runtime_checkable
class Host(Protocol):
    """Clock + RNG streams + cancellable timers: the node-facing runtime.

    Both :class:`~repro.simulation.engine.Simulator` and
    :class:`~repro.realnet.host.AsyncioHost` conform structurally.
    """

    @property
    def now(self) -> float:
        """Current time on the host's (virtual) time axis, in seconds."""
        ...

    @property
    def rng(self) -> RngRegistry:
        """Registry of named deterministic random streams."""
        ...

    def schedule(self, delay: float, callback: EventCallback, *args: Any) -> ScheduledHandle:
        """Run ``callback(*args)`` ``delay`` seconds from :attr:`now`."""
        ...

    def schedule_at(self, time: float, callback: EventCallback, *args: Any) -> ScheduledHandle:
        """Run ``callback(*args)`` at absolute host time ``time``."""
        ...

    def reserve(self, delay: float) -> Any:
        """Take (as an opaque slot) the place in event order ``schedule(delay)`` would."""
        ...

    def schedule_reserved(self, slot: Any, callback: EventCallback, *args: Any) -> ScheduledHandle:
        """Run ``callback(*args)`` at the place :meth:`reserve` took."""
        ...

    def cancel(self, handle: Any) -> None:
        """Cancel a previously scheduled callback; ``None`` is ignored."""
        ...


__all__ = ["EventCallback", "Host", "ScheduledHandle"]
