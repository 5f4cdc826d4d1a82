"""Tests for message size accounting and the stats collector."""

from repro.ml.sparse import SparseVector
from repro.sim.messages import Message, payload_size
from repro.sim.stats import StatsCollector


class TestPayloadSize:
    def test_primitives(self):
        assert payload_size(None) == 0
        assert payload_size(True) == 1
        assert payload_size(7) == 8
        assert payload_size(3.14) == 8
        assert payload_size("abcd") == 4
        assert payload_size(b"abc") == 3

    def test_containers(self):
        assert payload_size([1, 2]) == 18
        assert payload_size({"a": 1}) == 1 + 8 + 2

    def test_wire_size_protocol_preferred(self):
        vector = SparseVector({1: 1.0, 2: 2.0})
        assert payload_size(vector) == vector.wire_size() == 24

    def test_nested_structures(self):
        payload = {"vectors": [SparseVector({1: 1.0}), SparseVector({2: 2.0})]}
        assert payload_size(payload) == 7 + (12 + 12 + 2) + 2

    def test_bool_is_one_byte_not_eight(self):
        # Regression: the docstring used to claim bool=8 while the code
        # returned 1.  The documented rule is now bool=1 (checked before the
        # int branch, since bool subclasses int); pin both truth values.
        assert payload_size(True) == 1
        assert payload_size(False) == 1
        assert payload_size([True, False]) == 1 + 1 + 2
        assert payload_size(1) == 8  # the int 1 still costs a full word

    def test_object_fallback_uses_public_attrs(self):
        class Thing:
            def __init__(self):
                self.x = 1
                self._private = "should not count"

        assert payload_size(Thing()) == 1 + 8 + 2


class TestMessage:
    def test_size_computed_from_payload(self):
        message = Message(src=1, dst=2, msg_type="m", payload="abcd")
        assert message.size_bytes == 40 + 4

    def test_explicit_size_respected(self):
        message = Message(src=1, dst=2, msg_type="m", payload="abcd", size_bytes=7)
        assert message.size_bytes == 7

    def test_total_bytes_scales_with_hops(self):
        message = Message(src=1, dst=2, msg_type="m", payload=None, hops=3)
        assert message.total_bytes() == 40 * 3

    def test_message_ids_unique(self):
        a = Message(src=1, dst=2, msg_type="m")
        b = Message(src=1, dst=2, msg_type="m")
        assert a.msg_id != b.msg_id


class TestStatsCollector:
    def make(self):
        stats = StatsCollector()
        stats.record_message(Message(src=1, dst=2, msg_type="model", payload="xx"))
        stats.record_message(Message(src=2, dst=3, msg_type="model", payload="yy"))
        stats.record_message(Message(src=1, dst=3, msg_type="query", payload="z"))
        return stats

    def test_totals(self):
        stats = self.make()
        assert stats.total_messages == 3
        assert stats.total_bytes == (42 + 42 + 41)

    def test_by_type(self):
        stats = self.make()
        assert stats.messages_for("model") == 2
        assert stats.bytes_for("query") == 41
        assert stats.messages_for("model", "query") == 3

    def test_per_peer_bytes(self):
        stats = self.make()
        assert stats.per_peer_bytes[1] == 42 + 41
        assert stats.per_peer_bytes[2] == 42

    def test_counters(self):
        stats = StatsCollector()
        stats.increment("lookups")
        stats.increment("lookups", 2)
        assert stats.counters["lookups"] == 3

    def test_merge(self):
        a, b = self.make(), self.make()
        a.merge(b)
        assert a.total_messages == 6
        assert a.per_peer_bytes[1] == 2 * (42 + 41)

    def test_traffic_table_renders(self):
        table = self.make().traffic_table()
        assert "model" in table and "TOTAL" in table
