"""Builtin ``sum`` as CPython >= 3.12 computes it, for any interpreter.

From 3.12 on, once the running total is an exact ``float``, ``sum`` adds
with Neumaier's compensation (``Python/bltinmodule.c``: ``builtin_sum_impl``)
and folds the correction in at the end, so a float sum can differ in its
last bits from the plain left-to-right one every earlier interpreter takes.
Installed as the module-global ``sum`` of every ``repro`` module
(``install_everywhere``), this is a 3.12 box on a 3.11 box: any digest,
wire size or tag decision that still depends on ``sum()`` over floats
moves, and the test that pins it fails here rather than on someone else's
interpreter.
"""

import importlib
import math
import pkgutil
import sys


def compensated_sum(iterable, /, start=0):
    iterator = iter(iterable)
    total = start
    # ints (and anything else) add plainly until the total is a float
    while type(total) is not float:
        try:
            total = total + next(iterator)
        except StopIteration:
            return total
    correction = 0.0
    for item in iterator:
        if type(item) is float:
            added = total + item
            if abs(total) >= abs(item):
                correction += (total - added) + item
            else:
                correction += (item - added) + total
            total = added
        elif isinstance(item, int):
            total += float(item)
        else:  # not a float sum after all: fold in, go on plainly
            if correction and math.isfinite(correction):
                total += correction
            total = total + item
            for item in iterator:
                total = total + item
            return total
    if correction and math.isfinite(correction):
        total += correction
    return total


def install_everywhere(monkeypatch) -> int:
    """Shadow ``sum`` in every ``repro`` module until ``monkeypatch`` is
    undone; returns how many namespaces took it."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)
    modules = [
        module for name, module in sorted(sys.modules.items())
        if name == "repro" or name.startswith("repro.")
    ]
    for module in modules:
        monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
    return len(modules)
