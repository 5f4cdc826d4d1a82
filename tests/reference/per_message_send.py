"""The per-message block send: the oracle for
``PhysicalNetwork.send_batch`` (the columnar core the flat and the sharded
network share)."""

from repro.errors import SimulationError
from repro.sim.network import SendBlock, pair_mix64


def install_per_message_send(network) -> None:
    """Make ``network.send_batch`` walk its block one message at a time.

    Every decision the block core takes once per source — liveness,
    ownership — is taken here per message; every message is charged with
    ``record_message``, mixed with the scalar ``pair_mix64``, drawn with
    the scalar ``delay_for`` from its own source's stream and handed to
    ``_schedule_block`` alone.  Listeners see one block with scalar
    columns when every row shares one source and one shape, and one
    one-row block per owned attempt otherwise.  Works on a
    ``PhysicalNetwork`` and on a ``ShardNetwork`` (``_owns`` and
    ``_schedule_block`` are the two seams the core leaves virtual)."""
    latency = network.latency

    def send_batch(messages):
        for message in messages:
            if message.src == message.dst:
                raise SimulationError("loopback messages need no network")
        if latency.drop_probability > 0 or len(messages) < 2:
            return [network.send(message) for message in messages]
        attempts = [m for m in messages if network._owns(m.src)]
        one_form = len({
            (m.src, m.msg_type, m.size_bytes, m.wire_bytes, m.hops)
            for m in messages
        }) == 1
        groups = [attempts] if one_form else [[m] for m in attempts]
        if network.has_block_listeners:
            for group in filter(None, groups):
                first = group[0]
                network._notify(SendBlock(
                    time=network.simulator.now,
                    count=len(group),
                    src=first.src,
                    dst=[m.dst for m in group],
                    msg_type=first.msg_type,
                    size_bytes=first.size_bytes,
                    wire_bytes=first.wire_bytes,
                    hops=first.hops,
                ))
        results = []
        for message in messages:
            if not network.is_up(message.src):
                results.append(False)
                continue
            results.append(True)
            if not network._owns(message.src):
                continue
            network.stats.record_message(message)
            factor = 0.5 + (pair_mix64(message.src, message.dst) >> 11) * (
                2.0 ** -53
            )
            delay = factor * latency.delay_for(
                message, network.streams.net_rng(message.src)
            )
            network._schedule_block((message.dst,), (delay,), (message,))
        return results

    network.send_batch = send_batch
