"""Simulated node base class.

A :class:`SimNode` owns an id, registers itself on the physical network, and
dispatches incoming messages to per-type handlers.  Application peers
(P2PDocTagger peers, super-peers) subclass or compose it.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

from repro.errors import SimulationError
from repro.sim.messages import Message
from repro.sim.network import PhysicalNetwork

MessageHandler = Callable[[Message], None]


class SimNode:
    """A network endpoint with typed message handlers."""

    def __init__(self, node_id: int, network: PhysicalNetwork) -> None:
        self.node_id = node_id
        self.network = network
        self._handlers: Dict[str, MessageHandler] = {}
        network.register(node_id, self._receive)

    # -- handler registry ----------------------------------------------------

    def on(self, msg_type: str, handler: MessageHandler) -> None:
        """Register ``handler`` for messages of ``msg_type``."""
        self._handlers[msg_type] = handler

    def _receive(self, message: Message) -> None:
        handler = self._handlers.get(message.msg_type)
        if handler is None:
            self.network.stats.increment(f"unhandled:{message.msg_type}")
            return
        handler(message)

    # -- sending ------------------------------------------------------------------

    def send(
        self,
        dst: int,
        msg_type: str,
        payload: Any = None,
        hops: int = 1,
    ) -> bool:
        """Send a message; ``hops`` charges multi-hop overlay routing."""
        if dst == self.node_id:
            raise SimulationError("node attempted to message itself")
        message = Message(
            src=self.node_id, dst=dst, msg_type=msg_type, payload=payload, hops=hops
        )
        return self.network.send(message)

    # -- lifecycle ---------------------------------------------------------------------

    def shutdown(self) -> None:
        self.network.unregister(self.node_id)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(id={self.node_id})"
