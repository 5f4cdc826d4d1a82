"""Boolean env flags that select a test tier (``REPRO_LARGE_GOLDEN``,
``REPRO_WAL_FUZZ``, ``REPRO_CHAOS_FULL``, ``REPRO_SHARD_MP_FULL``,
``REPRO_SHARD_TCP_FULL``).

No runtime code reads a boolean knob any more, so the one boolean grammar
lives here: a typo'd value in a CI ``env:`` block must fail the job, never
silently skip (or run) a nightly fuzz leg.
"""

import os

from repro.errors import ConfigurationError

_TRUE = ("1", "true", "yes", "on")
_FALSE = ("", "0", "false", "no", "off")


def env_flag(name: str) -> bool:
    """Unset, empty, ``0``, ``false``, ``no``, ``off`` (any case) → False;
    ``1``, ``true``, ``yes``, ``on`` → True; anything else raises
    :class:`ConfigurationError` naming the variable."""
    raw = os.environ.get(name)
    if raw is None:
        return False
    value = raw.strip().lower()
    if value in _TRUE:
        return True
    if value in _FALSE:
        return False
    raise ConfigurationError(
        f"{name}={raw!r} is not a boolean flag; accepted values are "
        f"1/true/yes/on, 0/false/no/off, or unset"
    )
