"""Sparse feature vectors.

Documents are represented exactly as the paper describes: "the attribute id
represents the word id and the value of the attributes represents the word
frequency in the documents".  Vocabularies are large and documents short, so
a dictionary-backed sparse vector is the natural representation.

:class:`SparseVector` is immutable (every builder returns a new instance,
nothing outside this module assigns ``_data`` — a hygiene test holds that),
which makes it safe to place inside simulated network messages without
defensive copying and lets it cache its squared norm.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, Iterable, Iterator, List, Mapping, NamedTuple, Sequence, Tuple

import numpy as np


class SparseVector:
    """A sparse vector of ``feature id -> float`` entries.

    Zero-valued entries are never stored.  Supports the vector algebra the
    SVM/k-means/LSH implementations need: dot products, scaled addition,
    norms and Euclidean distance.
    """

    __slots__ = ("_data", "_squared_norm")

    def __init__(self, data: Mapping[int, float] | Iterable[Tuple[int, float]] = ()) -> None:
        items = data.items() if isinstance(data, Mapping) else data
        cleaned: Dict[int, float] = {}
        for key, value in items:
            if value:
                cleaned[int(key)] = float(value)
        self._data = cleaned
        self._squared_norm: float | None = None

    # -- construction ---------------------------------------------------

    @classmethod
    def from_weights(cls, weights: Mapping[int, float], normalize: bool) -> "SparseVector":
        """Build a document vector from positive term weights (raw counts
        included), L2-normalized if ``normalize``, in one dict build.

        Keys keep ``weights``' order, and the arithmetic is the one
        ``SparseVector(...).normalized()`` does: the squared norm summed in
        that order from the int 0, ``1.0 / norm`` taken once, each value
        ``float(weight) * factor``; the squared norm is left uncached.
        """
        if not normalize:
            data = {key: float(weight) for key, weight in weights.items()}
        else:
            total = 0
            for weight in weights.values():
                weight = float(weight)
                total += weight * weight
            norm = math.sqrt(total)
            if norm == 0.0:
                data = {}
            else:
                factor = 1.0 / norm
                data = {key: float(weight) * factor for key, weight in weights.items()}
        vector = cls.__new__(cls)
        vector._data = data
        vector._squared_norm = None
        return vector

    # -- mapping protocol -----------------------------------------------

    def get(self, key: int, default: float = 0.0) -> float:
        return self._data.get(key, default)

    def __getitem__(self, key: int) -> float:
        return self._data.get(key, 0.0)

    def __contains__(self, key: int) -> bool:
        return key in self._data

    def __iter__(self) -> Iterator[int]:
        return iter(self._data)

    def items(self) -> Iterable[Tuple[int, float]]:
        return self._data.items()

    def values(self):
        return self._data.values()

    def __len__(self) -> int:
        """Number of nonzero entries (``nnz``)."""
        return len(self._data)

    @property
    def nnz(self) -> int:
        return len(self._data)

    # -- algebra ---------------------------------------------------------

    def dot(self, other: "SparseVector") -> float:
        """Sparse-sparse dot product (iterates the smaller operand)."""
        a, b = self._data, other._data
        if len(a) > len(b):
            a, b = b, a
        # Added left to right from the int 0: builtin ``sum`` compensates
        # float sums from CPython 3.12 on, and the digests pin this order.
        total = 0
        for key, value in a.items():
            if key in b:
                total += value * b[key]
        return total

    def add(self, other: "SparseVector", scale: float = 1.0) -> "SparseVector":
        """Return ``self + scale * other`` as a new vector."""
        result = dict(self._data)
        for key, value in other._data.items():
            updated = result.get(key, 0.0) + scale * value
            if updated:
                result[key] = updated
            else:
                result.pop(key, None)
        return SparseVector(result)

    def scale(self, factor: float) -> "SparseVector":
        """Return ``factor * self`` as a new vector."""
        if factor == 0.0:
            return SparseVector()
        return SparseVector({k: v * factor for k, v in self._data.items()})

    def squared_norm(self) -> float:
        """``<self, self>``, summed once per instance and cached."""
        cached = self._squared_norm
        if cached is None:
            cached = 0
            for value in self._data.values():
                cached += value * value
            self._squared_norm = cached
        return cached

    def norm(self) -> float:
        return math.sqrt(self.squared_norm())

    def normalized(self) -> "SparseVector":
        """Return the L2-normalized vector (zero vector stays zero)."""
        n = self.norm()
        if n == 0.0:
            return SparseVector()
        return self.scale(1.0 / n)

    def distance_squared(self, other: "SparseVector") -> float:
        """Squared Euclidean distance."""
        return (
            self.squared_norm()
            - 2.0 * self.dot(other)
            + other.squared_norm()
        )

    def distance(self, other: "SparseVector") -> float:
        return math.sqrt(max(0.0, self.distance_squared(other)))

    # -- conversion -------------------------------------------------------

    def to_dict(self) -> Dict[int, float]:
        """Copy of the underlying mapping (for serialization)."""
        return dict(self._data)

    # -- wire size ---------------------------------------------------------

    def wire_size(self) -> int:
        """Estimated serialized size in bytes: 4 B id + 8 B value per entry."""
        return 12 * len(self._data)

    # -- dunder -------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseVector):
            return NotImplemented
        return self._data == other._data

    def __hash__(self) -> int:
        return hash(frozenset(self._data.items()))

    def __repr__(self) -> str:
        preview = dict(sorted(self._data.items())[:4])
        suffix = "..." if len(self._data) > 4 else ""
        return f"SparseVector({preview}{suffix}, nnz={len(self._data)})"


class PackedRows(NamedTuple):
    """A block of vectors in CSR style over *local* columns: feature ids are
    renumbered densely in order of first appearance, so an array over the
    columns follows the block's nonzeros, never the hashed feature space.
    Entries stay row after row, each row in its vector's own iteration
    order — the order every training sum is taken in."""

    columns: Dict[int, int]  # feature id -> local column
    indices: np.ndarray  # local column of every stored entry
    data: np.ndarray  # its value
    rows: np.ndarray  # the row (vector) it belongs to
    lengths: np.ndarray  # nnz per row


def pack_rows(vectors: Sequence[SparseVector]) -> PackedRows:
    """Pack ``vectors`` into one :class:`PackedRows` block."""
    columns: Dict[int, int] = {}
    indices = [
        columns.setdefault(feature_id, len(columns))
        for vector in vectors
        for feature_id in vector
    ]
    lengths = np.fromiter(map(len, vectors), np.intp, len(vectors))
    values = itertools.chain.from_iterable(map(SparseVector.values, vectors))
    return PackedRows(
        columns=columns,
        indices=np.array(indices, dtype=np.intp),
        data=np.fromiter(values, np.float64, len(indices)),
        rows=np.repeat(np.arange(len(vectors)), lengths),
        lengths=lengths,
    )


class RowTable:
    """Vectors laid out for the dot products of many of them with one query,
    each summed in the *query's* iteration order — what
    :meth:`SparseVector.dot` does for a row that has more entries than the
    query (or as many, with the query as ``self``).

    ``slots[row, column]`` is where the row keeps that column among its own
    values, counted from 1; 0 is the row's leading ``0.0``, so an absent
    column gathers a term of ``+0.0`` and every sum starts from zero like
    the scalar one — both bit-neutral.  Two bytes a cell where no row
    passes 65,535 entries: a float64 ``rows x columns`` table is the same
    kernel at four times the memory.
    """

    def __init__(self, vectors: Sequence[SparseVector]) -> None:
        columns, indices, data, rows, lengths = pack_rows(vectors)
        # The pack is transient, 24 B an entry; each part is let go as soon
        # as it is spent, because what overlaps is what peak RSS remembers.
        del rows
        first = np.cumsum(lengths) - lengths  # entries ahead of each row's
        self.columns = columns
        self.lengths = lengths
        #: row -> index of its leading 0.0 in ``values``
        self.starts = first + np.arange(len(vectors))
        self.values = np.insert(data, first, 0.0)
        del data
        longest = int(lengths.max(initial=0))
        ramp = np.arange(1, longest + 1, dtype=np.min_scalar_type(longest))
        self.slots = np.zeros((len(vectors), len(columns)), dtype=ramp.dtype)
        # Row by row, for the same reason: one scatter over every entry
        # costs three more entry-long temporaries.
        for row, (begin, length) in enumerate(zip(first.tolist(), lengths.tolist())):
            self.slots[row, indices[begin:begin + length]] = ramp[:length]

    def localize(self, query: SparseVector) -> Tuple[np.ndarray, np.ndarray]:
        """``query``'s entries on the table's columns, in its own order.  A
        feature no row has adds ``+0.0`` to every sum, so it is left out."""
        column_of = self.columns.get
        columns: List[int] = []
        values: List[float] = []
        for key, value in query.items():
            column = column_of(key)
            if column is not None:
                columns.append(column)
                values.append(value)
        return np.array(columns, dtype=np.intp), np.array(values, dtype=np.float64)

    def dots(self, rows: np.ndarray, columns: np.ndarray, values: np.ndarray) -> np.ndarray:
        """``<row, query>`` for each of ``rows``, ``(columns, values)`` being
        :meth:`localize` of the query: gather, multiply, and a prefix sum
        that adds strictly left to right (``sum(axis=1)`` goes pairwise)."""
        slots = self.slots.take(rows, axis=0).take(columns, axis=1)
        terms = np.zeros((len(rows), len(columns) + 1), dtype=np.float64)
        gathered = self.values.take(self.starts.take(rows)[:, None] + slots)
        np.multiply(values, gathered, out=terms[:, 1:])
        return np.add.accumulate(terms, axis=1)[:, -1]
