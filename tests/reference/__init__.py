"""Reference implementations the fast paths under ``src/`` are compared
against: slow, obviously correct, and never a runtime branch.

Each ``install_*`` replaces one bound method on ONE instance (the seam
the fast path already goes through), so an equivalence test builds two
identically seeded stacks, installs the reference on one, and compares
fingerprints byte-for-byte.  ``ml_scalar`` holds the scalar loops of
``repro.ml``, PACE's per-receiver stores and indexes (the shared index's
oracle; ``install_per_receiver_hashing`` has every receiver hash for
itself too) and its scalar prediction; its ``install_scalar_ml`` patches
classes for the length of a ``monkeypatch`` context instead (models are
born inside ``train()``).  ``platt`` is Platt's Newton loop as it was
when the sigmoid's z >= 0 branch took ``exp(-z)`` twice.
``compensated_sum`` is CPython 3.12's builtin ``sum``, installable as the
``sum`` of every ``repro`` module on any interpreter.  ``scalar_corpus``
is the corpus generator with one numpy call per draw — a factory, since
the vocabulary is drawn in ``__init__``; ``token_chain`` is the
preprocessing chain run one token at a time, with no memo.
``heap_entries`` is the kernel heap one entry per event, every delivery
run expanded into its remaining rows.
"""

from reference.broadcast import install_per_message_broadcast
from reference.chord_linear_scan import install_linear_scan
from reference.heap import heap_entries
from reference.ml_scalar import install_per_receiver_hashing, install_scalar_ml
from reference.per_message_send import install_per_message_send
from reference.rounds import install_sequential_rounds
from reference.scalar_corpus import scalar_generator
from reference.token_chain import install_token_chain

__all__ = [
    "heap_entries",
    "install_linear_scan",
    "install_per_message_broadcast",
    "install_per_message_send",
    "install_per_receiver_hashing",
    "install_scalar_ml",
    "install_sequential_rounds",
    "install_token_chain",
    "scalar_generator",
]
