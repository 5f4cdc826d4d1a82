"""The kernel heap one entry per event: the view a delivery run must be
indistinguishable from."""

from repro.sim.engine import _BlockRun


def heap_entries(queue):
    """Every queued event as ``(time, seq, callback, args)``: a plain entry
    as it is, a :class:`~repro.sim.engine._BlockRun` expanded into the rows
    it has not fired yet, each under its own ``(time, seq)`` key."""
    for time, seq, callback, args in queue:
        if isinstance(callback, _BlockRun):
            (first,) = args
            for row in range(first, callback.count):
                yield (
                    callback.times[row], callback.seqs[row],
                    callback.callback,
                    tuple(column[row] for column in callback.columns),
                )
        else:
            yield time, seq, callback, args
