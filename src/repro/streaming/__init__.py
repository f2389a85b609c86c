"""Streaming substrate: the video stream, FEC windows and playback model.

The paper streams 600 kbps of video, grouped in windows of 110 packets of
which 9 are FEC-coded packets; a window is viewable if at least 101 of its
110 packets arrive in time.  That is the MDS property of a systematic
erasure code: any ``required_packets`` of a window's packets restore it,
whichever they are, so the library applies it as a count and never encodes
a byte (``tests/streaming/test_count_rule.py`` checks the rule against a
small Reed–Solomon oracle).  This package provides:

* :class:`StreamConfig` / :class:`StreamSchedule` — the constant-bit-rate
  packet schedule: which packet is published when, and how packets group
  into FEC windows.
* :class:`StreamEmitter` — drives the simulator: fires a callback for every
  packet at its publish time (the gossip source hooks into this).
* :class:`PlaybackBuffer` — an online player model with a fixed playout lag,
  reporting which windows were viewable and which were jittered.
"""

from repro._lazy import lazy_exports

__getattr__ = lazy_exports(globals(), {
    "repro.streaming.packets": ("PacketDescriptor", "WindowDescriptor"),
    "repro.streaming.player": ("PlaybackBuffer", "PlaybackReport"),
    "repro.streaming.schedule": ("StreamConfig", "StreamSchedule"),
    "repro.streaming.source": ("StreamEmitter",),
})

__all__ = [
    "PacketDescriptor",
    "PlaybackBuffer",
    "PlaybackReport",
    "StreamConfig",
    "StreamEmitter",
    "StreamSchedule",
    "WindowDescriptor",
]
