"""Reference implementations the fast paths under ``src/`` are compared
against: slow, obviously correct, and never a runtime branch.

Each ``install_*`` replaces one bound method on ONE instance (the seam
the fast path already goes through), so an equivalence test builds two
identically seeded stacks, installs the reference on one, and compares
fingerprints byte-for-byte.  ``ml_scalar`` holds the scalar loops of
``repro.ml``, PACE's per-receiver centroid hashing and its scalar
prediction; its ``install_scalar_ml`` patches classes for the length of a
``monkeypatch`` context instead (models are born inside ``train()``).
``compensated_sum`` is CPython 3.12's builtin ``sum``, installable as the
``sum`` of every ``repro`` module on any interpreter.
"""

from reference.broadcast import install_per_message_broadcast
from reference.chord_linear_scan import install_linear_scan
from reference.ml_scalar import install_per_receiver_hashing, install_scalar_ml
from reference.per_message_send import install_per_message_send
from reference.rounds import install_sequential_rounds

__all__ = [
    "install_linear_scan",
    "install_per_message_broadcast",
    "install_per_message_send",
    "install_per_receiver_hashing",
    "install_scalar_ml",
    "install_sequential_rounds",
]
