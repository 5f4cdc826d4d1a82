"""P2P overlay networks (P2PDMT "Generate structured/unstructured P2P network").

Structured overlays (:mod:`repro.overlay.chord`, :mod:`repro.overlay.kademlia`,
:mod:`repro.overlay.pastry`) provide DHT lookups — CEMPaR locates its
super-peers deterministically through them.  The unstructured overlay
(:mod:`repro.overlay.unstructured`) provides flooding/gossip broadcast — PACE
propagates models over it.  The full mesh (:mod:`repro.overlay.fullmesh`) is
the idealized one-hop control for ablations, and the two-tier super-peer
overlay (:mod:`repro.overlay.superpeer`) concentrates key ownership on a
deterministically elected core with ≤2-hop lookups.

Every overlay registers itself with the factory registry in
:mod:`repro.overlay.base`; construct instances through :func:`make_overlay`
rather than naming classes:

>>> from repro.overlay import make_overlay
>>> overlay = make_overlay("chord")
"""

# Importing each overlay module registers it with the factory.
from repro.overlay import chord, kademlia, pastry, unstructured, fullmesh, superpeer  # noqa: F401
from repro.overlay.base import make_overlay, overlay_names

__all__ = ["make_overlay", "overlay_names"]
