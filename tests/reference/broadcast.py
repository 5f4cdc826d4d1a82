"""The per-message broadcast: the oracle for
``PhysicalNetwork.broadcast_block`` (the vectorized half of
``Transport.broadcast``)."""

import numpy as np

from repro.sim.messages import Message


def install_per_message_broadcast(transport) -> None:
    """Make ``transport``'s broadcasts send one materialized
    :class:`Message` per recipient through ``PhysicalNetwork.send``.

    Installed at the ``broadcast_block`` seam, below recipient resolution,
    so ``Transport.broadcast`` itself runs unchanged and the whole send
    core under it (gates, bulk stats, array latency draws, lazy delivery)
    is swapped for the scalar path."""
    network = transport.network

    def broadcast_block(src, dsts, msg_type, payload, size_bytes,
                        wire_bytes=None):
        return np.array(
            [
                network.send(
                    Message(
                        src=src, dst=dst, msg_type=msg_type, payload=payload,
                        size_bytes=size_bytes,
                        wire_bytes=-1 if wire_bytes is None else wire_bytes,
                    )
                )
                for dst in dsts
            ],
            dtype=bool,
        )

    network.broadcast_block = broadcast_block
