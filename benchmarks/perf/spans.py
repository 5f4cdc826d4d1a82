"""Outside-in span recorder for the per-layer ledger.

``Recorder.install`` replaces the coarse entry points listed in
:data:`layers.TARGETS` with timing wrappers — from the benchmark's side,
nothing in ``src/`` knows it is being timed — and ``uninstall`` puts the
originals back.  A span is one row ``(name_id, start_ns, end_ns, parent,
thread)``; rows live in preallocated numpy columns, one buffer and one span
stack per thread (the serial shard executor runs its workers as threads),
and are written to an ``.npz`` when the run ends.

A span's *self time* is its duration minus the part its direct children
cover, so the self times of nested layers add up to the covered wall time
instead of double counting it.  Per-element hot calls (``SparseVector.dot``,
``record_message``, ``schedule*``) are never wrapped: a wrapper there would
cost more than the call.  ``micro.py`` times those in isolation.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

_INITIAL_ROWS = 1 << 16


class _ThreadSpans:
    """One thread's span rows and open-span stack."""

    def __init__(self, thread_index: int) -> None:
        self.thread_index = thread_index
        self.count = 0
        self.stack: List[int] = []
        self.name_id = np.empty(_INITIAL_ROWS, dtype=np.int32)
        self.start_ns = np.empty(_INITIAL_ROWS, dtype=np.int64)
        self.end_ns = np.empty(_INITIAL_ROWS, dtype=np.int64)
        self.parent = np.empty(_INITIAL_ROWS, dtype=np.int64)

    def grow(self) -> None:
        for column in ("name_id", "start_ns", "end_ns", "parent"):
            old = getattr(self, column)
            new = np.empty(len(old) * 2, dtype=old.dtype)
            new[: len(old)] = old
            setattr(self, column, new)


def resolve(module_name: str, qualname: str) -> Tuple[object, str, Callable]:
    """``(owner, attribute, function)`` of a wrapper target.

    ``qualname`` is ``function`` or ``Class.method``; raises
    ``AttributeError``/``ImportError`` when ``src/`` no longer has it.
    """
    owner: object = importlib.import_module(module_name)
    *path, attribute = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    function = owner.__dict__[attribute] if path else getattr(owner, attribute)
    if not callable(function):
        raise AttributeError(f"{module_name}:{qualname} is not callable")
    return owner, attribute, function


class Recorder:
    """Installs span wrappers, collects rows, reduces them to self times."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._local = threading.local()
        self._threads: List[_ThreadSpans] = []
        self._lock = threading.Lock()
        self._patched: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _state(self) -> _ThreadSpans:
        state = getattr(self._local, "state", None)
        if state is None:
            with self._lock:
                state = _ThreadSpans(len(self._threads))
                self._threads.append(state)
            self._local.state = state
        return state

    def _wrap(self, name: str, function: Callable) -> Callable:
        if name not in self.names:  # a base method and its override share one
            self.names.append(name)
        name_id = self.names.index(name)
        state_of = self._state
        clock = time.perf_counter_ns

        def span(*args, **kwargs):
            state = state_of()
            row = state.count
            if row == len(state.name_id):
                state.grow()
            state.count = row + 1
            stack = state.stack
            state.name_id[row] = name_id
            state.parent[row] = stack[-1] if stack else -1
            stack.append(row)
            state.start_ns[row] = clock()
            try:
                return function(*args, **kwargs)
            finally:
                state.end_ns[row] = clock()
                stack.pop()

        span.__wrapped__ = function
        span.__name__ = getattr(function, "__name__", name)
        return span

    def install(self, targets: Sequence[Tuple[str, str, str]]) -> None:
        """Wrap every ``(span name, module, qualname)`` target.

        A module-level function is also replaced wherever another loaded
        ``repro`` module imported it by name, so ``from x import f`` call
        sites are timed too.
        """
        for name, module_name, qualname in targets:
            owner, attribute, function = resolve(module_name, qualname)
            wrapper = self._wrap(name, function)
            if "." in qualname:
                holders = [owner]
            else:
                holders = [
                    module
                    for module_key, module in list(sys.modules.items())
                    if module is not None
                    and (module_key == module_name
                         or module_key.startswith("repro"))
                    and module.__dict__.get(attribute) is function
                ]
            for holder in holders:
                self._patched.append((holder, attribute, function))
                setattr(holder, attribute, wrapper)

    def uninstall(self) -> None:
        for holder, attribute, function in reversed(self._patched):
            setattr(holder, attribute, function)
        self._patched.clear()

    # -- reduction -----------------------------------------------------------

    def columns(self) -> Dict[str, np.ndarray]:
        """All threads' rows as one table (parents re-based to global rows)."""
        parts: Dict[str, List[np.ndarray]] = {
            key: [] for key in
            ("name_id", "start_ns", "end_ns", "parent", "thread")
        }
        offset = 0
        for state in self._threads:
            count = state.count
            parent = state.parent[:count].copy()
            parent[parent >= 0] += offset
            parts["name_id"].append(state.name_id[:count])
            parts["start_ns"].append(state.start_ns[:count])
            parts["end_ns"].append(state.end_ns[:count])
            parts["parent"].append(parent)
            parts["thread"].append(
                np.full(count, state.thread_index, dtype=np.int32)
            )
            offset += count
        return {
            key: (np.concatenate(chunks) if chunks
                  else np.empty(0, dtype=np.int64))
            for key, chunks in parts.items()
        }

    def save(self, path: str) -> None:
        np.savez_compressed(
            path, names=np.asarray(self.names, dtype=object).astype(str),
            **self.columns(),
        )

    def reduce(self, window_ns: Tuple[int, int]) -> "Reduced":
        return Reduced(self.names, self.columns(), window_ns)


class Reduced:
    """Per-name self time and call count, plus what no span covered."""

    def __init__(
        self, names: List[str], columns: Dict[str, np.ndarray],
        window_ns: Tuple[int, int],
    ) -> None:
        duration = (columns["end_ns"] - columns["start_ns"]).astype(np.int64)
        self_ns = duration.copy()
        parent = columns["parent"]
        child = parent >= 0
        np.subtract.at(self_ns, parent[child], duration[child])
        name_id = columns["name_id"]
        size = len(names)
        self.self_s = dict(zip(names, (
            np.bincount(name_id, weights=self_ns, minlength=size) / 1e9
        ).tolist()))
        self.total_s = dict(zip(names, (
            np.bincount(name_id, weights=duration, minlength=size) / 1e9
        ).tolist()))
        self.calls = dict(zip(
            names, np.bincount(name_id, minlength=size).tolist()
        ))
        self.spans = int(len(name_id))
        self.window_s = (window_ns[1] - window_ns[0]) / 1e9
        self.covered_s = _union_seconds(
            columns["start_ns"][~child], columns["end_ns"][~child], window_ns
        )

    @property
    def unattributed_share(self) -> float:
        """Share of the traced window that no span on any thread covers."""
        return max(0.0, 1.0 - self.covered_s / self.window_s)


def _union_seconds(
    starts: np.ndarray, ends: np.ndarray, window_ns: Tuple[int, int]
) -> float:
    """Length of the union of root-span intervals, clipped to the window."""
    if len(starts) == 0:
        return 0.0
    starts = np.clip(starts, window_ns[0], window_ns[1])
    ends = np.clip(ends, window_ns[0], window_ns[1])
    order = np.argsort(starts, kind="stable")
    starts, ends = starts[order], ends[order]
    reach = np.maximum.accumulate(ends)
    # an interval opens a new run when it starts past everything before it
    opens = np.empty(len(starts), dtype=bool)
    opens[0] = True
    opens[1:] = starts[1:] > reach[:-1]
    run_starts = starts[opens]
    run_ends = reach[np.append(np.flatnonzero(opens)[1:] - 1, len(starts) - 1)]
    return float((run_ends - run_starts).sum()) / 1e9
