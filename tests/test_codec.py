"""Wire-format codec layer: size-model arithmetic, dispatch, and the
stats wire-byte dimension.

Property style: the invariants (``0 <= wire <= raw``, monotonicity,
determinism) are checked over randomized fixed-seed payloads and size
sweeps for *every* registered codec, so adding a codec automatically
enrolls it in the contract.
"""

import pickle

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.sim.codec import (
    CodecTable,
    DeltaSparseCodec,
    DictRatioCodec,
    GzipModelCodec,
    IdentityCodec,
    codec_names,
    make_codec_table,
    register_traffic_class,
    registered_codecs,
    traffic_class_of,
)
from repro.sim.messages import _HEADER_BYTES, Message, payload_size
from repro.sim.stats import StatsCollector


def random_payload(rng: np.random.Generator, depth: int = 0):
    """One random payload drawn from everything ``payload_size`` handles."""
    kinds = ["none", "bool", "int", "float", "str", "bytes"]
    if depth < 3:
        kinds += ["list", "tuple", "set", "dict"] * 2
    kind = kinds[int(rng.integers(len(kinds)))]
    if kind == "none":
        return None
    if kind == "bool":
        return bool(rng.integers(2))
    if kind == "int":
        return int(rng.integers(-(2 ** 40), 2 ** 40))
    if kind == "float":
        return float(rng.normal())
    if kind == "str":
        return "x" * int(rng.integers(0, 40))
    if kind == "bytes":
        return bytes(int(rng.integers(0, 40)))
    count = int(rng.integers(0, 5))
    if kind == "list":
        return [random_payload(rng, depth + 1) for _ in range(count)]
    if kind == "tuple":
        return tuple(random_payload(rng, depth + 1) for _ in range(count))
    if kind == "set":
        return {("k%d" % i, i) for i in range(count)}
    return {
        "k%d" % i: random_payload(rng, depth + 1) for i in range(count)
    }


class TestPayloadSizeProperties:
    def test_empty_containers(self):
        # Sequence-like containers cost their 2-byte frame even when empty;
        # a dict's framing is per entry, so an empty dict costs nothing.
        assert payload_size([]) == 2
        assert payload_size(()) == 2
        assert payload_size(set()) == 2
        assert payload_size(frozenset()) == 2
        assert payload_size({}) == 0

    def test_nesting_adds_one_frame_per_level(self):
        assert payload_size([[]]) == 4
        assert payload_size([[], []]) == 6
        assert payload_size([[[]]]) == 6
        assert payload_size({"k": []}) == 1 + 2 + 2
        assert payload_size({"k": {}}) == 1 + 0 + 2

    def test_wrapping_costs_exactly_the_frame(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            payload = random_payload(rng)
            inner = payload_size(payload)
            assert payload_size([payload]) == inner + 2
            assert payload_size((payload,)) == inner + 2
            assert payload_size({"k": payload}) == 1 + inner + 2

    def test_container_size_is_sum_of_elements_plus_frame(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            elements = [random_payload(rng) for _ in range(4)]
            assert payload_size(elements) == (
                sum(payload_size(e) for e in elements) + 2
            )

    def test_sizes_are_deterministic_and_non_negative(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            payload = random_payload(rng)
            size = payload_size(payload)
            assert size >= 0
            assert payload_size(payload) == size


class TestCodecSizeArithmetic:
    #: raw sizes around every codec's structural breakpoints plus a sweep
    EDGE_SIZES = (0, 1, 2, 7, 8, 9, 17, 18, 19, 31, 63, 64, 65, 100, 1000)

    def all_sizes(self):
        rng = np.random.default_rng(11)
        return list(self.EDGE_SIZES) + [
            int(s) for s in rng.integers(0, 1_000_000, size=200)
        ]

    def test_wire_never_exceeds_raw(self):
        for codec in registered_codecs():
            for raw in self.all_sizes():
                wire = codec.wire_size_of(raw)
                assert 0 <= wire <= raw, (codec.name, raw, wire)

    def test_zero_bytes_stay_zero(self):
        for codec in registered_codecs():
            assert codec.wire_size_of(0) == 0
            assert codec.wire_size_of(-5) == 0

    def test_wire_size_is_monotone_nondecreasing(self):
        sizes = sorted(set(self.all_sizes()))
        for codec in registered_codecs():
            wires = [codec.wire_size_of(raw) for raw in sizes]
            assert wires == sorted(wires), codec.name

    def test_wire_size_is_deterministic_across_instances(self):
        for first, second in zip(registered_codecs(), registered_codecs()):
            for raw in self.EDGE_SIZES:
                assert first.wire_size_of(raw) == second.wire_size_of(raw)

    def test_identity_is_a_fixpoint(self):
        for raw in self.all_sizes():
            assert IdentityCodec().wire_size_of(raw) == max(0, raw)

    def test_small_messages_ride_uncompressed(self):
        # Header overhead / dictionary break-even: tiny frames don't shrink.
        assert GzipModelCodec().wire_size_of(10) == 10
        assert DictRatioCodec().wire_size_of(64) == 64

    def test_large_messages_compress_strictly(self):
        for codec in (GzipModelCodec(), DeltaSparseCodec(), DictRatioCodec()):
            assert codec.wire_size_of(10_000) < 10_000

    def test_wire_le_raw_over_random_payload_sizes(self):
        # The invariant over message-shaped raw sizes: header + payload.
        rng = np.random.default_rng(19)
        for _ in range(100):
            payload = random_payload(rng)
            raw = _HEADER_BYTES + payload_size(payload)
            for codec in registered_codecs():
                assert 0 <= codec.wire_size_of(raw) <= raw


class TestCodecRegistry:
    def test_registered_names(self):
        assert set(codec_names()) == {
            "identity", "gzip-model", "delta-sparse", "dict-ratio", "tuned"
        }

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            make_codec_table("no-such-codec")

    def test_unknown_traffic_class_rejected(self):
        with pytest.raises(ConfigurationError):
            register_traffic_class("x.y", "no-such-class")

    def test_protocol_declarations_registered(self):
        # Importing a protocol module declares its message types' classes.
        import repro.baselines.centralized  # noqa: F401
        import repro.baselines.popularity  # noqa: F401
        import repro.p2pclass.cempar  # noqa: F401
        import repro.p2pclass.pace  # noqa: F401

        assert traffic_class_of("pace.model_broadcast") == "model"
        assert traffic_class_of("cempar.query") == "vector"
        assert traffic_class_of("cempar.prediction") == "control"
        assert traffic_class_of("central.data_upload") == "vector"
        assert traffic_class_of("popularity.counts") == "counts"
        assert traffic_class_of("overlay.maintenance") == "control"
        assert traffic_class_of("never.declared") is None


class TestCodecTable:
    def test_uniform_tables_apply_their_codec_everywhere(self):
        table = make_codec_table("gzip-model")
        reference = GzipModelCodec()
        for msg_type in ("pace.model_broadcast", "anything.else"):
            assert table.wire_size(msg_type, 5000) == reference.wire_size_of(5000)

    def test_identity_table_is_identity(self):
        table = make_codec_table("identity")
        assert table.is_identity
        assert table.wire_size("any", 1234) == 1234

    def test_non_identity_tables_report_it(self):
        assert not make_codec_table("gzip-model").is_identity
        assert not make_codec_table("tuned").is_identity
        # A table whose default is identity but with a compressing class
        # entry is not identity either.
        mixed = CodecTable(per_class={"model": GzipModelCodec()})
        assert not mixed.is_identity

    def test_tuned_dispatches_by_traffic_class(self):
        import repro.p2pclass.cempar  # noqa: F401  (registers classes)

        table = make_codec_table("tuned")
        raw = 5000
        assert table.wire_size(
            "cempar.model_upload", raw
        ) == GzipModelCodec().wire_size_of(raw)
        assert table.wire_size(
            "cempar.query", raw
        ) == DeltaSparseCodec().wire_size_of(raw)
        # Control traffic and undeclared types ride raw.
        assert table.wire_size("cempar.prediction", raw) == raw
        assert table.wire_size("never.declared", raw) == raw

    def test_exact_type_entry_beats_traffic_class(self):
        import repro.p2pclass.pace  # noqa: F401

        table = CodecTable(
            per_type={"pace.model_broadcast": IdentityCodec()},
            per_class={"model": GzipModelCodec()},
        )
        assert table.wire_size("pace.model_broadcast", 5000) == 5000

    def test_resolution_is_memoized(self):
        table = make_codec_table("tuned")
        assert table.codec_for("a.b") is table.codec_for("a.b")

    def test_late_registration_invalidates_memoized_resolution(self):
        # A protocol module imported after a table already resolved one of
        # its message types must still take effect (registry versioning).
        table = make_codec_table("tuned")
        assert table.wire_size("late.registered", 5000) == 5000
        register_traffic_class("late.registered", "model")
        assert table.wire_size(
            "late.registered", 5000
        ) == GzipModelCodec().wire_size_of(5000)

    def test_registered_codecs_derived_from_registry(self):
        # Every codec reachable through a registered table is enrolled in
        # the property-test contract, deduplicated by name.
        names = [codec.name for codec in registered_codecs()]
        assert len(names) == len(set(names))
        assert set(names) == {
            "identity", "gzip-model", "delta-sparse", "dict-ratio"
        }


class TestStatsWireCounters:
    def fill(self, stats: StatsCollector) -> None:
        stats.record_traffic("model", 1000, hops=2, src=1, dst=2, wire_bytes=400)
        stats.record_traffic("query", 100, src=2, dst=3)  # identity
        stats.record_message_block(
            "model", 1000, src=3, dsts=[4, 5], wire_bytes=400
        )
        stats.record_message(
            Message(src=1, dst=4, msg_type="query", size_bytes=50, wire_bytes=30)
        )

    def test_wire_dimension_tracked_alongside_raw(self):
        stats = StatsCollector()
        self.fill(stats)
        assert stats.bytes_by_type["model"] == 2000 + 2 * 1000
        assert stats.wire_bytes_by_type["model"] == 800 + 2 * 400
        assert stats.bytes_by_type["query"] == 100 + 50
        assert stats.wire_bytes_by_type["query"] == 100 + 30
        assert stats.total_wire_bytes < stats.total_bytes
        assert stats.wire_bytes_for("model", "query") == stats.total_wire_bytes
        assert stats.has_compressed_traffic

    def test_identity_recording_leaves_fingerprint_unchanged(self):
        stats = StatsCollector()
        stats.record_traffic("m", 64, src=0, dst=1)
        stats.record_message(Message(src=0, dst=1, msg_type="m", payload="xy"))
        stats.record_message_block("m", 64, src=0, dsts=[1, 2])
        assert not stats.has_compressed_traffic
        # The six pre-codec keys, exactly — golden digests depend on this.
        assert set(stats.fingerprint()) == {
            "messages_by_type", "bytes_by_type", "hops_by_type",
            "per_peer_bytes", "per_peer_received", "counters",
        }

    def test_compressed_fingerprint_gains_wire_keys(self):
        stats = StatsCollector()
        self.fill(stats)
        snapshot = stats.fingerprint()
        assert snapshot["wire_bytes_by_type"] == {"model": 1600, "query": 130}
        assert snapshot["per_peer_wire_bytes"] == {
            "1": 800 + 30, "2": 100, "3": 800
        }

    def test_block_recording_equals_per_message_recording(self):
        # each row credits its destination, so destinations may repeat, and
        # every family's keys are first touched in row order, as the WAL's
        # pickled deltas see them
        for dsts in ([1, 2, 5], [1, 1, 2, 7, 2, 1]):
            bulk, scalar = StatsCollector(), StatsCollector()
            bulk.record_message_block(
                "t", 64, src=3, dsts=dsts, hops=2, wire_bytes=40
            )
            for dst in dsts:
                scalar.record_traffic(
                    "t", 64, hops=2, src=3, dst=dst, wire_bytes=40
                )
            assert bulk.fingerprint_bytes() == scalar.fingerprint_bytes()
            assert pickle.dumps(bulk.delta_since({})) == pickle.dumps(
                scalar.delta_since({})
            )

    def test_merge_folds_wire_counters(self):
        a, b = StatsCollector(), StatsCollector()
        self.fill(a)
        self.fill(b)
        a_total, a_wire = a.total_bytes, a.total_wire_bytes
        a.merge(b)
        assert a.total_bytes == 2 * a_total
        assert a.total_wire_bytes == 2 * a_wire
        assert a.wire_bytes_by_type["model"] == 2 * 1600
        assert a.per_peer_wire_bytes[1] == 2 * (800 + 30)
        assert a.has_compressed_traffic

    def test_merge_propagates_compression_flag(self):
        plain, compressed = StatsCollector(), StatsCollector()
        plain.record_traffic("m", 10, src=0, dst=1)
        compressed.record_traffic("m", 1000, src=0, dst=1, wire_bytes=300)
        assert not plain.has_compressed_traffic
        plain.merge(compressed)
        assert plain.has_compressed_traffic
        assert "wire_bytes_by_type" in plain.fingerprint()

    def test_merge_of_identity_collectors_stays_identity(self):
        a, b = StatsCollector(), StatsCollector()
        a.record_traffic("m", 10, src=0, dst=1)
        b.record_traffic("m", 20, src=1, dst=0)
        a.merge(b)
        assert not a.has_compressed_traffic
        assert "wire_bytes_by_type" not in a.fingerprint()
