"""Sharded execution: conservative time-window PDES across worker shards.

A sharded run partitions a session's nodes across ``k`` workers, placing
them so that the smallest delay a cross-shard datagram can have — the
lookahead — is as large as the latency model allows
(:mod:`repro.shard.partition`), advances every worker in lockstep
conservative time windows sized by that lookahead
(:mod:`repro.simulation.backend.sharded`), exchanges cross-shard datagrams
at window barriers, and merges the per-shard fragments into one
:class:`~repro.core.session.SessionResult`
(:func:`~repro.shard.runner.merge_shard_results`).

The defining contract: **any shard count produces byte-identical results to
the scalar oracle** — ``StreamingSession(config).run()`` with the same
config.  Sharding changes how a session executes, never what it computes.
``tests/properties/test_shard_equivalence.py`` pins this for every
registered scenario at 1, 2 and 4 shards.
"""

from repro.shard.partition import ShardPlan, partition_nodes, plan_shards
from repro.shard.runner import (
    ShardedRun,
    ShardProtocolError,
    execute_sharded,
    merge_shard_results,
    run_sharded,
)
from repro.shard.session import (
    ShardResult,
    ShardRouter,
    ShardSession,
    session_horizon,
)
from repro.shard.wire import (
    WireBatch,
    WireFormatError,
    decode_batch,
    encode_batch,
)

__all__ = [
    "ShardPlan",
    "ShardProtocolError",
    "ShardResult",
    "ShardRouter",
    "ShardSession",
    "ShardedRun",
    "WireBatch",
    "WireFormatError",
    "decode_batch",
    "encode_batch",
    "execute_sharded",
    "merge_shard_results",
    "partition_nodes",
    "plan_shards",
    "run_sharded",
    "session_horizon",
]
