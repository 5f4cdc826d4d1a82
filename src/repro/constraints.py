"""What a setting admits, declared once where the setting is declared.

Each numeric field of a config dataclass names its constraints in its
``field(metadata=...)`` through :func:`setting`; :func:`check` walks
``dataclasses.fields`` and refuses the first value its declaration does not
admit, naming the field and the value.  Plain parameters (the ML
constructors') go through :func:`check_value` with the same constraints.
A rule relating two fields is a named function beside its config.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from typing import Any, Callable, NamedTuple, Tuple, Type

from repro.errors import ConfigurationError


class Constraint(NamedTuple):
    """One admitted set of values: ``text`` completes "must be ..."."""

    text: str
    admits: Callable[[Any], bool]


def _number(value: Any) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


integer = Constraint(
    "an integer", lambda v: _number(v) and isinstance(v, numbers.Integral)
)
#: an integer is finite however large (``math.isfinite`` overflows past
#: the float range)
finite = Constraint("finite", lambda v: _number(v) and (
    isinstance(v, numbers.Integral) or math.isfinite(v)
))
positive = Constraint("> 0", lambda v: _number(v) and v > 0)


def at_least(low: float) -> Constraint:
    return Constraint(f">= {low}", lambda v: _number(v) and v >= low)


def below(high: float) -> Constraint:
    return Constraint(f"< {high}", lambda v: _number(v) and v < high)


def in_range(low: float, high: float) -> Constraint:
    """``low <= value <= high``; NaN is in no range."""
    return Constraint(f"in [{low}, {high}]", lambda v: _number(v) and low <= v <= high)


def one_of(names: Tuple[str, ...]) -> Constraint:
    return Constraint(f"one of {names}", lambda v: v in names)


def setting(default: Any, *constraints: Constraint) -> Any:
    """A dataclass field defaulting to ``default`` (``dataclasses.MISSING``
    for none) that admits only values every one of ``constraints`` admits."""
    return dataclasses.field(default=default, metadata={"constraints": constraints})


def constraints_of(field: dataclasses.Field) -> Tuple[Constraint, ...]:
    return field.metadata.get("constraints", ())


def check_value(
    name: str, value: Any, *constraints: Constraint,
    error: Type[Exception] = ConfigurationError,
) -> None:
    """Raise ``error`` naming ``name`` and ``value`` unless every one of
    ``constraints`` admits ``value`` (each entry of a ``(lo, hi)`` tuple)."""
    entries = value if isinstance(value, tuple) else (value,)
    if not all(c.admits(entry) for c in constraints for entry in entries):
        texts = " and ".join(c.text for c in constraints)
        raise error(f"{name} must be {texts}, got {value!r}")


def check(config: Any, error: Type[Exception] = ConfigurationError) -> None:
    """Refuse the first field of the dataclass ``config`` whose value its
    declared constraints do not admit."""
    for field in dataclasses.fields(config):
        check_value(
            field.name, getattr(config, field.name), *constraints_of(field),
            error=error,
        )
