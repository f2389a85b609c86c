"""The stream emitter: drives packet publication on the simulator.

:class:`StreamEmitter` walks a :class:`~repro.streaming.schedule.StreamSchedule`
and invokes a callback for every packet at its publish time.  The gossip
*source node* (see :mod:`repro.core.node`) registers its ``publish`` method as
the callback: publishing a packet means delivering it locally and gossiping
its id to the source fanout, exactly as ``publish(e)`` does in Algorithm 1.

Keeping emission separate from the protocol lets tests drive a protocol node
by hand and lets alternative sources (e.g. variable-bit-rate extensions) be
plugged in without touching the gossip code.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.streaming.packets import PacketDescriptor
from repro.streaming.schedule import StreamSchedule

if TYPE_CHECKING:  # type hints only: the emitter runs on any Host
    from repro.core.host import Host

PublishCallback = Callable[[PacketDescriptor], None]


class StreamEmitter:
    """Publishes every packet of a schedule at its publish time.

    Parameters
    ----------
    simulator:
        Host (simulator or real-network backend) to schedule publications on.
    schedule:
        The packet schedule to emit.
    on_publish:
        Callback invoked with each :class:`PacketDescriptor` at publish time.
    """

    def __init__(
        self,
        simulator: "Host",
        schedule: StreamSchedule,
        on_publish: PublishCallback,
    ) -> None:
        self._simulator = simulator
        self._schedule = schedule
        self._on_publish = on_publish
        self._started = False

    def start(self) -> None:
        """Schedule all publications.  Calling twice is an error."""
        if self._started:
            raise RuntimeError("StreamEmitter.start() called twice")
        self._started = True
        for descriptor in self._schedule.packets():
            self._simulator.schedule_at(descriptor.publish_time, self._publish, descriptor)

    def _publish(self, descriptor: PacketDescriptor) -> None:
        # The scheduled callback, so trace dispatch lines name the emitter.
        self._on_publish(descriptor)
