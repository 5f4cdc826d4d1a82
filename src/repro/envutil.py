"""Environment-variable parsing with uniform semantics and loud failures.

Every runtime ``REPRO_*`` knob is numeric and goes through this module: a
malformed or out-of-range value must name the variable and the accepted
range at startup, not surface as a bare ``ValueError`` at fork time.

Call sites pick the error class (``SimulationError`` for simulation-layer
knobs) so the exception lands in the hierarchy the caller's tests expect.
"""

from __future__ import annotations

import math
import os
from typing import Optional, Type

from repro.errors import ConfigurationError, ReproError


def env_int(
    name: str,
    default: int,
    minimum: Optional[int] = None,
    error: Type[ReproError] = ConfigurationError,
) -> int:
    """Parse integer env knob ``name``, raising ``error`` with the variable
    name and accepted range on malformed, empty, or out-of-range values."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    bound = f" >= {minimum}" if minimum is not None else ""
    try:
        value = int(raw.strip())
    except ValueError:
        raise error(
            f"{name}={raw!r} is not an integer; expected an integer{bound} "
            f"(default {default})"
        ) from None
    if minimum is not None and value < minimum:
        raise error(
            f"{name}={value} is out of range; expected an integer{bound} "
            f"(default {default})"
        )
    return value


def env_float(
    name: str,
    default: float,
    exclusive_minimum: Optional[float] = None,
    error: Type[ReproError] = ConfigurationError,
) -> float:
    """Parse finite-float env knob ``name``; same error contract as
    :func:`env_int`.  ``exclusive_minimum`` enforces a strict lower bound
    (e.g. timeouts must be ``> 0``)."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    bound = (
        f" > {exclusive_minimum:g}" if exclusive_minimum is not None else ""
    )
    try:
        value = float(raw.strip())
    except ValueError:
        raise error(
            f"{name}={raw!r} is not a number; expected a finite number{bound} "
            f"(default {default:g})"
        ) from None
    if not math.isfinite(value) or (
        exclusive_minimum is not None and value <= exclusive_minimum
    ):
        raise error(
            f"{name}={raw!r} is out of range; expected a finite number{bound} "
            f"(default {default:g})"
        )
    return value
