"""Byte accounting: the ambient comms counters."""

from repro.comms import record_received, record_sent
from repro.obs.metrics import MetricsRegistry, use_registry


class TestAmbientCounters:
    def test_record_sent_counts(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            record_sent("bv-image", 1800, 50000)
            record_sent("bv-image", 1900, 51000)
            record_sent("boxes-only", 150, 100)
        counters = registry.counters
        assert counters["comms/messages_sent"].value == 3
        assert counters["comms/bytes/encoded"].value == 3850
        assert counters["comms/bytes/payload"].value == 101100
        assert counters["comms/tier/bv-image/messages"].value == 2
        assert counters["comms/tier/bv-image/bytes"].value == 3700
        assert counters["comms/tier/boxes-only/messages"].value == 1

    def test_record_received_counts(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            record_received("keypoints", 1400, ok=True)
            record_received(None, 900, ok=False)
        counters = registry.counters
        assert counters["comms/messages_received"].value == 2
        assert counters["comms/bytes/received"].value == 2300
        assert counters["comms/decode/ok"].value == 1
        assert counters["comms/decode/error"].value == 1
        assert counters["comms/tier/keypoints/received"].value == 1

    def test_noop_without_registry(self):
        # Must not raise when no registry is installed.
        record_sent("bv-image", 10, 10)
        record_received(None, 10, ok=False)
