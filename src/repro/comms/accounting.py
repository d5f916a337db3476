"""Per-message byte accounting for the comms layer.

:func:`record_sent` / :func:`record_received` push per-tier byte and
message counters into whatever :class:`~repro.obs.metrics.MetricsRegistry`
is installed (no-ops otherwise).  Because sweeps install their timing
registry around the hot loop, ``--timings`` and ``--trace`` report KB per
pair for free; code that needs totals of its own (the comms grid, one
registry per cell) installs a registry of its own with
:func:`~repro.obs.metrics.use_registry`.

"Encoded bytes" are what crossed the wire (post quantization + zlib);
"payload bytes" are the dense single-precision cost of the same content
(see :func:`repro.comms.tiers.dense_payload_bytes`), so
``payload / encoded`` is the per-tier compression ratio.
"""

from __future__ import annotations

from repro.obs.metrics import counter

__all__ = ["record_sent", "record_received"]


def record_sent(tier: str, encoded_bytes: int, payload_bytes: int) -> None:
    """Count one encoded message against the ambient registry."""
    counter("comms/messages_sent").inc()
    counter("comms/bytes/encoded").inc(encoded_bytes)
    counter("comms/bytes/payload").inc(payload_bytes)
    counter(f"comms/tier/{tier}/messages").inc()
    counter(f"comms/tier/{tier}/bytes").inc(encoded_bytes)


def record_received(tier: str | None, num_bytes: int, ok: bool) -> None:
    """Count one receive attempt (``tier`` is None when undecodable)."""
    counter("comms/messages_received").inc()
    counter("comms/bytes/received").inc(num_bytes)
    counter("comms/decode/ok" if ok else "comms/decode/error").inc()
    if tier is not None:
        counter(f"comms/tier/{tier}/received").inc()
