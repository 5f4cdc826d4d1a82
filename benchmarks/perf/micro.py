"""(M) metrics: per-element hot calls timed in isolation.

A span wrapper on ``SparseVector.dot`` or ``record_message`` would cost
more than the call, so these are measured here instead: a fixed number of
calls of the public function over inputs sampled from the workload's own
generated data, median of five batches, reported per call (or per message /
per thousand records where one call handles a block).
"""

from __future__ import annotations

import socket
import time
from statistics import median
from typing import Any, Callable, Dict

import numpy as np

from repro.ml.lsh import RandomHyperplaneLSH
from repro.sim.engine import Simulator
from repro.sim.exchange import ExchangeFrame, RingExchange, merge_frames
from repro.sim.messages import Message
from repro.sim.stats import StatsCollector
from repro.sim.tcpexec import recv_frame, send_frame

def _per_call(function: Callable[[], Any], calls_per_batch: int,
              batches: int) -> float:
    """Median seconds of one ``function()`` batch ÷ ``calls_per_batch``."""
    samples = []
    for _ in range(batches):
        start = time.perf_counter()
        function()
        samples.append(time.perf_counter() - start)
    return median(samples) / calls_per_batch


def sparse_vectors(vectors, batches: int) -> Dict[str, float]:
    pairs = list(zip(vectors, vectors[1:] + vectors[:1]))
    rounds = max(1, 20_000 // len(pairs))

    def dots():
        for _ in range(rounds):
            for a, b in pairs:
                a.dot(b)

    def distances():
        for _ in range(rounds):
            for a, b in pairs:
                a.distance_squared(b)

    lsh = RandomHyperplaneLSH(num_bits=8, seed=0)
    for vector in vectors:  # fill the per-feature hyperplane cache first
        lsh.signature(vector)

    def signatures():
        for vector in vectors:
            lsh.signature(vector)

    calls = rounds * len(pairs)
    return {
        "ml.sparse.dot_ns": _per_call(dots, calls, batches) * 1e9,
        "ml.sparse.distance_squared_ns": _per_call(distances, calls, batches) * 1e9,
        "ml.lsh.signature_us": _per_call(signatures, len(vectors), batches) * 1e6,
    }


def _noop() -> None:
    pass


def engine(batches: int, events: int = 50_000) -> Dict[str, float]:
    delays = np.random.default_rng(0).random(events).tolist()

    def schedule_and_run():
        simulator = Simulator(seed=0)
        schedule = simulator.schedule
        for delay in delays:
            schedule(delay, _noop)
        simulator.run()

    return {
        "sim.engine.schedule_pop_ns": _per_call(schedule_and_run, events, batches) * 1e9
    }


def _storm_messages(storm, count: int):
    return [
        Message(src=index % storm.num_nodes,
                dst=(index * 7 + 1) % storm.num_nodes or 1,
                msg_type="storm", payload=None, size_bytes=storm.payload_bytes)
        for index in range(count)
    ]


def accounting(storm, codec, latency, batches: int) -> Dict[str, float]:
    messages = _storm_messages(storm, 20_000)

    def record_each():
        record = StatsCollector().record_message
        for message in messages:
            record(message)

    recipients = list(range(1, storm.num_nodes))

    def record_blocks():
        stats = StatsCollector()
        for _ in range(20):
            stats.record_message_block("storm", 296, 0, recipients)

    sizes = np.full(len(recipients), 296.0)
    rng = np.random.default_rng(0)

    def delays():
        for _ in range(20):
            latency.delays_for(sizes, rng)

    raw_sizes = [64 + (index % 997) for index in range(20_000)]

    def wire_sizes():
        wire_size = codec.wire_size
        for raw in raw_sizes:
            wire_size("perf.model_broadcast", raw)

    return {
        "sim.stats.record_message_ns":
            _per_call(record_each, len(messages), batches) * 1e9,
        "sim.stats.record_block_ns_per_msg":
            _per_call(record_blocks, 20 * len(recipients), batches) * 1e9,
        "sim.network.delays_for_ns_per_msg":
            _per_call(delays, 20 * len(recipients), batches) * 1e9,
        "sim.codec.wire_size_ns": _per_call(wire_sizes, len(raw_sizes), batches) * 1e9,
    }


def exchange(storm, shards: int, batches: int) -> Dict[str, float]:
    """One window's worth of cross-shard records through the frame path."""
    count = storm.num_nodes * storm.fanout // shards
    records = [
        (0.5 + (index % 89) * 1e-3, 0, index, index % storm.num_nodes,
         (index * 7 + 1) % storm.num_nodes, "storm", None,
         storm.payload_bytes, storm.payload_bytes, 1)
        for index in range(count)
    ]
    frame = ExchangeFrame.from_records(records)
    blob = frame.encode(0)
    per_krec = 1e6 * 1000.0 / count

    rings = RingExchange(shards)
    try:
        ring = rings.ring(0, 1)

        def ring_roundtrip():
            for _ in range(50):
                ring.try_push(blob)
                ring.try_pop()

        ring_us = _per_call(ring_roundtrip, 50, batches) * 1e6
    finally:
        rings.destroy()

    left, right = socket.socketpair()
    try:
        payload = bytes(64 * 1024)

        def frame_roundtrip():
            for _ in range(50):
                send_frame(left, 1, payload)
                recv_frame(right, "perf micro")

        frame_us = _per_call(frame_roundtrip, 50, batches) * 1e6
    finally:
        left.close()
        right.close()

    return {
        "sim.exchange.encode_us_per_krec": _per_call(
            lambda: ExchangeFrame.from_records(records).encode(0), 1, batches
        ) * per_krec,
        "sim.exchange.decode_us_per_krec": _per_call(
            lambda: ExchangeFrame.decode(blob), 1, batches
        ) * per_krec,
        "sim.exchange.merge_frames_us_per_krec": _per_call(
            lambda: merge_frames([frame]), 1, batches
        ) * per_krec,
        "sim.exchange.ring_roundtrip_us": ring_us,
        "sim.tcpexec.frame_roundtrip_us": frame_us,
    }


def run(inputs: Dict[str, Any], batches: int = 5) -> Dict[str, float]:
    """Every micro-timing the workload's generated inputs support
    (``batches=1`` is the smoke setting)."""
    metrics: Dict[str, float] = {}
    if "vectors" in inputs:
        metrics.update(sparse_vectors(inputs["vectors"], batches))
    if "storm" in inputs:
        storm = inputs["storm"]
        metrics.update(engine(batches))
        if "codec" in inputs:
            metrics.update(accounting(
                storm, inputs["codec"], inputs["latency"], batches
            ))
        if "shards" in inputs:
            metrics.update(exchange(storm, inputs["shards"], batches))
    return metrics
