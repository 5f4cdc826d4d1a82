"""Reference implementations the fast paths under ``src/`` are compared
against: slow, obviously correct, and never a runtime branch.

Each ``install_*`` replaces one bound method on ONE instance (the seam
the fast path already goes through), so an equivalence test builds two
identically seeded stacks, installs the reference on one, and compares
fingerprints byte-for-byte.
"""

from reference.broadcast import install_per_message_broadcast
from reference.rounds import install_sequential_rounds

__all__ = ["install_per_message_broadcast", "install_sequential_rounds"]
