"""k-means clustering over sparse vectors (k-means++ initialization).

PACE peers "perform clustering on the training data" and propagate the
cluster centroids alongside their linear models; receiving peers index models
by those centroids.  Centroids are kept sparse (they are means of sparse
documents) so their wire size is honest.

:func:`kmeans_block` clusters many groups at once: a PACE round clusters
every peer's documents in one call, through :meth:`KMeans.fit_block`, and
:meth:`KMeans.fit` is its one-group case.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, NamedTuple, Sequence

import numpy as np

from repro.constraints import at_least, check_value, integer
from repro.errors import ConfigurationError
from repro.ml.sparse import SparseVector

#: groups clustered together: the working set is a few arrays over their
#: entries and ``k x columns`` tables, whatever the number of groups (32 is
#: as fast as a whole 60-peer round at two thirds of its transient memory)
_GROUPS_PER_CHUNK = 32


@dataclass
class KMeansResult:
    """Clustering output: centroids, assignments, and inertia."""

    centroids: List[SparseVector]
    assignments: List[int]
    inertia: float
    iterations: int


def _check_settings(k: int, max_iterations: int) -> None:
    check_value("k", k, integer, at_least(1))
    check_value("max_iterations", max_iterations, integer, at_least(1))


class _Centroids(NamedTuple):
    """Every centroid of a chunk, one per (slot, group): centroid ``c`` of
    group ``g`` is ``c * groups + g``.  Its entries lie together, in its own
    key order; ``dense`` and ``rank`` hold them per slot over the chunk's
    columns (``0.0`` and ``-1`` where it has none)."""

    live: np.ndarray  # centroid -> it exists
    doc: np.ndarray  # centroid -> the document it is, or -1 for a mean
    owner: np.ndarray  # entry -> centroid
    cell: np.ndarray  # entry -> slot * columns + column
    value: np.ndarray  # entry -> value
    length: np.ndarray  # centroid -> entries
    squared_norm: np.ndarray  # centroid -> squared norm, left to right
    dense: np.ndarray  # slot * columns + column -> value
    rank: np.ndarray  # slot * columns + column -> place in the key order


class _Chunk:
    """Groups packed for clustering in lockstep: every document's entries in
    its own order, document after document, on columns local to its group
    (each group's columns side by side)."""

    def __init__(self, groups: Sequence[Sequence[SparseVector]], k: int) -> None:
        self.vectors = vectors = [vector for group in groups for vector in group]
        sizes = np.fromiter(map(len, groups), np.intp, len(groups))
        self.groups = len(groups)
        self.sizes = sizes.tolist()
        self.starts = (np.cumsum(sizes) - sizes).tolist()
        self.doc_group = np.repeat(np.arange(self.groups), sizes)
        # no group has more documents than the chunk: k past that is moot
        self.k = np.minimum(sizes, min(k, len(vectors)))
        self.slots = int(self.k.max())
        self.doc_length = np.fromiter(map(len, vectors), np.intp, len(vectors))
        entries = int(self.doc_length.sum())
        self.entry_start = np.cumsum(self.doc_length) - self.doc_length
        self.entry_doc = np.repeat(np.arange(len(vectors)), self.doc_length)
        self.entry_value = np.fromiter(
            itertools.chain.from_iterable(map(SparseVector.values, vectors)),
            np.float64, entries,
        )
        # the feature ids as the documents hold them, so a centroid's keys
        # are their objects, as a dict mean's are
        keys = np.fromiter(itertools.chain.from_iterable(vectors), object, entries)
        feature = keys.astype(np.int64)
        low = int(feature.min()) if entries else 0
        span = int(feature.max()) - low + 1 if entries else 1
        if span * self.groups < 2 ** 62:
            feature -= low
        else:  # too wide to key by (group, feature id): number the ids first
            feature = np.unique(feature, return_inverse=True)[1]
            span = int(feature.max()) + 1
        self.entry_column = np.unique(
            self.doc_group.take(self.entry_doc) * span + feature, return_inverse=True
        )[1]
        self.columns = int(self.entry_column.max()) + 1 if entries else 0
        # column -> its feature id: every entry of a column holds the same
        representative = np.zeros(self.columns, dtype=np.intp)
        representative[self.entry_column] = np.arange(entries)
        self.feature = keys.take(representative)
        self.doc_squared_norm = np.bincount(
            self.entry_doc, self.entry_value * self.entry_value, len(vectors)
        )
        self.restrict(np.ones(self.groups, dtype=bool))

    def restrict(self, active: np.ndarray) -> None:
        """Work on the documents of the ``active`` groups only."""
        self.active_doc = active.take(self.doc_group)
        self.work = (self.entry_doc, self.entry_column, self.entry_value)
        if not active.all():
            taken = self.active_doc.take(self.entry_doc)
            self.work = tuple(entries[taken] for entries in self.work)

    def doc_entries(self, docs: np.ndarray) -> np.ndarray:
        """The entries of ``docs``, document after document."""
        lengths = self.doc_length.take(docs)
        ends = np.cumsum(lengths)
        total = int(ends[-1]) if len(ends) else 0
        return np.repeat(self.entry_start.take(docs) - ends + lengths, lengths) + np.arange(total)

    def centroids(self, live, doc, owner, column, value) -> _Centroids:
        """The centroid state of entries given centroid by centroid in key
        order, centroids in any order (a stable sort puts them together)."""
        count = self.slots * self.groups
        # a 16-bit key sorts by radix
        order = np.argsort(owner.astype(np.uint16) if count <= 1 << 16 else owner,
                           kind="stable")
        owner, column, value = owner.take(order), column.take(order), value.take(order)
        length = np.bincount(owner, minlength=count)
        cell = owner // self.groups * self.columns + column
        dense = np.zeros(self.slots * self.columns, dtype=np.float64)
        dense[cell] = value
        rank = np.full(self.slots * self.columns, -1, dtype=np.intp)
        rank[cell] = np.arange(len(owner)) - np.repeat(np.cumsum(length) - length, length)
        return _Centroids(
            live, doc, owner, cell, value, length,
            np.bincount(owner, value * value, count), dense, rank,
        )

    def of_documents(self, live, doc) -> _Centroids:
        """Centroids that are documents: ``doc`` per centroid, -1 for none."""
        chosen = np.flatnonzero(doc >= 0)
        taken = self.doc_entries(doc.take(chosen))
        owner = np.repeat(chosen, self.doc_length.take(doc.take(chosen)))
        return self.centroids(
            live, doc, owner, self.entry_column.take(taken), self.entry_value.take(taken)
        )

    def distance_to(self, centroids: _Centroids, slot: np.ndarray) -> np.ndarray:
        """``vector.distance_squared(centroid)`` of every active document and
        the centroid ``slot[document]`` of its group; what stands at any
        other document is meaningless.

        Each dot is summed in :meth:`SparseVector.dot`'s order: down the
        document's entries, or down the centroid's where the document has
        more (a term of ``+-0.0`` for a column the other lacks is
        bit-neutral), each by ``bincount``, left to right from ``0.0``."""
        entry_doc, entry_column, entry_value = self.work
        documents = len(self.vectors)
        offset = slot * self.columns
        owner = slot * self.groups + self.doc_group
        cell = entry_column + offset.take(entry_doc)
        dots = np.bincount(entry_doc, entry_value * centroids.dense.take(cell), documents)
        length = centroids.length.take(owner)
        longer = np.flatnonzero(self.active_doc & (self.doc_length > length))
        if len(longer):
            # the centroid walks: each product at its place in the
            # centroid's key order, in a lane per document
            taken = self.doc_entries(longer)
            cell = self.entry_column.take(taken) + offset.take(self.entry_doc.take(taken))
            rank = centroids.rank.take(cell)
            present = rank >= 0
            lane = length.take(longer)
            lane_start = np.repeat(np.cumsum(lane) - lane, self.doc_length.take(longer))
            walked = np.zeros(int(lane.sum()), dtype=np.float64)
            walked[lane_start[present] + rank[present]] = (
                self.entry_value.take(taken) * centroids.dense.take(cell)
            )[present]
            dots[longer] = np.bincount(
                np.repeat(np.arange(len(longer)), lane), walked, len(longer)
            )
        return (self.doc_squared_norm - 2.0 * dots) + centroids.squared_norm.take(owner)

    def distances(self, centroids: _Centroids) -> np.ndarray:
        """:meth:`distance_to` every centroid, as ``slots x documents``:
        ``inf`` where the centroid does not exist or the document is not
        active."""
        out = np.full((self.slots, len(self.vectors)), np.inf)
        live = centroids.live.reshape(self.slots, self.groups)
        for slot in range(self.slots):
            if live[slot].any():
                reached = live[slot].take(self.doc_group) & self.active_doc
                distance = self.distance_to(centroids, np.full(len(self.vectors), slot))
                out[slot] = np.where(reached, distance, np.inf)
        return out

    def means(self, assignment: np.ndarray) -> tuple:
        """The mean of each active group's clusters: its entries (keys in
        order of first appearance over the members, in member order, each
        summed in that order from ``0.0`` and divided by the member count,
        exact zeros dropped) and the member count of every centroid."""
        entry_doc, entry_column, entry_value = self.work
        cell = (assignment * self.columns).take(entry_doc) + entry_column
        sums = np.bincount(cell, entry_value, self.slots * self.columns)
        position = np.arange(len(cell))
        first = np.full(self.slots * self.columns, len(cell), dtype=np.intp)
        np.minimum.at(first, cell, position)
        firsts = np.flatnonzero(first.take(cell) == position)
        owner = (assignment * self.groups + self.doc_group).take(entry_doc.take(firsts))
        members = np.bincount(
            assignment * self.groups + self.doc_group,
            self.active_doc, self.slots * self.groups,
        )
        value = sums.take(cell.take(firsts)) / members.take(owner)
        kept = value != 0.0
        return owner[kept], entry_column.take(firsts)[kept], value[kept], members

    def converged(self, old: _Centroids, new: _Centroids) -> np.ndarray:
        """Per group: ``old.distance_squared(new) < 1e-12`` for each of its
        centroids, old as ``self``."""
        count = self.slots * self.groups
        old_walks = np.bincount(old.owner, old.value * new.dense.take(old.cell), count)
        new_walks = np.bincount(new.owner, new.value * old.dense.take(new.cell), count)
        dots = np.where(old.length <= new.length, old_walks, new_walks)
        shift = (old.squared_norm - 2.0 * dots) + new.squared_norm
        close = (shift < 1e-12) | ~old.live
        return close.reshape(self.slots, self.groups).all(axis=0)


def _kmeanspp(chunk: _Chunk, rng: np.random.Generator, seeded: dict) -> _Centroids:
    """k-means++ seeding of every group, a slot at a time: each group's draws
    are the numpy calls of a generator reset to ``seeded`` for it alone."""
    slots, groups = chunk.slots, chunk.groups
    live = np.zeros(slots * groups, dtype=bool)
    doc = np.full(slots * groups, -1, dtype=np.intp)
    states = []
    for g, (start, size) in enumerate(zip(chunk.starts, chunk.sizes)):
        rng.bit_generator.state = seeded
        doc[g] = start + int(rng.integers(0, size))
        states.append(rng.bit_generator.state)
    live[:groups] = True
    k = chunk.k.tolist()
    for slot in range(1, slots):
        nearest = chunk.distances(chunk.of_documents(live, doc)).min(axis=0)
        for g, (start, size) in enumerate(zip(chunk.starts, chunk.sizes)):
            if k[g] <= slot:
                continue
            distances = nearest[start:start + size]
            total = distances.sum()
            rng.bit_generator.state = states[g]
            if total <= 0:
                # All points identical to some centroid; duplicate arbitrarily.
                choice = int(rng.integers(0, size))
            else:
                choice = int(rng.choice(size, p=distances / total))
            if k[g] > slot + 1:
                states[g] = rng.bit_generator.state
            doc[slot * groups + g] = start + choice
            live[slot * groups + g] = True
    return chunk.of_documents(live, doc)


def _lloyd(chunk: _Chunk, centroids: _Centroids, max_iterations: int):
    """Lloyd's iterations on every group in lockstep: a group that
    converges keeps its centroids, assignments and iteration count while
    the others go on."""
    groups = chunk.groups
    assignment = np.zeros(len(chunk.vectors), dtype=np.intp)
    iterations = np.zeros(groups, dtype=np.intp)
    active = np.ones(groups, dtype=bool)
    for iteration in range(1, max_iterations + 1):
        distances = chunk.distances(centroids)
        nearest = distances.argmin(axis=0)  # the first minimum
        moved = np.bincount(
            chunk.doc_group, chunk.active_doc & (nearest != assignment), groups
        ) > 0
        assignment = np.where(chunk.active_doc, nearest, assignment)
        owner, column, value, members = chunk.means(assignment)
        updating = np.tile(active, chunk.slots)  # centroid -> its group is active
        doc = np.where(updating, -1, centroids.doc)
        # an empty cluster is re-seeded at its group's farthest point: the
        # first maximum of the distance to the nearest old centroid
        empty = np.flatnonzero(updating & centroids.live & (members == 0))
        if len(empty):
            farthest = distances.min(axis=0)
            for centroid in empty.tolist():
                start = chunk.starts[centroid % groups]
                size = chunk.sizes[centroid % groups]
                doc[centroid] = start + int(np.argmax(farthest[start:start + size]))
            taken = chunk.doc_entries(doc.take(empty))
            owner = np.concatenate(
                [owner, np.repeat(empty, chunk.doc_length.take(doc.take(empty)))]
            )
            column = np.concatenate([column, chunk.entry_column.take(taken)])
            value = np.concatenate([value, chunk.entry_value.take(taken)])
        kept = ~updating.take(centroids.owner)
        updated = chunk.centroids(
            centroids.live, doc,
            np.concatenate([centroids.owner[kept], owner]),
            np.concatenate([centroids.cell[kept] % chunk.columns, column]),
            np.concatenate([centroids.value[kept], value]),
        )
        iterations[active] = iteration
        stopped = active & ~moved & chunk.converged(centroids, updated)
        centroids = updated
        if stopped.any():
            active = active & ~stopped
            if not active.any():
                break
            chunk.restrict(active)
    return centroids, assignment, iterations


def _results(chunk: _Chunk, centroids: _Centroids, assignment, iterations):
    chunk.restrict(np.ones(chunk.groups, dtype=bool))
    # left to right from 0, like the int-0 loop (``sum`` compensates on 3.12)
    inertia = np.bincount(
        chunk.doc_group, chunk.distance_to(centroids, assignment), chunk.groups
    ).tolist()
    features = chunk.feature.take(centroids.cell % chunk.columns).tolist()
    values = centroids.value.tolist()
    ends = np.cumsum(centroids.length).tolist()
    lengths = centroids.length.tolist()
    docs = centroids.doc.tolist()
    assignments = assignment.tolist()
    results = []
    for g, (start, size, k) in enumerate(zip(chunk.starts, chunk.sizes, chunk.k.tolist())):
        vectors = []
        for centroid in range(g, k * chunk.groups, chunk.groups):
            if docs[centroid] >= 0:
                vectors.append(chunk.vectors[docs[centroid]])
            else:
                begin = ends[centroid] - lengths[centroid]
                vectors.append(SparseVector.from_items(
                    features[begin:ends[centroid]], values[begin:ends[centroid]]
                ))
        results.append(KMeansResult(
            centroids=vectors,
            assignments=assignments[start:start + size],
            inertia=inertia[g],
            iterations=int(iterations[g]),
        ))
    return results


def kmeans_block(
    groups: Sequence[Sequence[SparseVector]],
    *,
    k: int,
    max_iterations: int,
    seed: int,
) -> List[KMeansResult]:
    """k-means on every group of ``groups`` in lockstep: one result per
    group, each bit-identical to the group clustered alone — the centroids'
    items in order, the assignments, the inertia and the iteration count.

    A group of ``n`` vectors gets ``min(k, n)`` centroids, seeded by
    k-means++ from ``default_rng(seed)`` (one generator, reset for each
    group) and refined by Lloyd's iterations until no assignment moves and
    no centroid shifts by ``1e-12`` (squared), or ``max_iterations``.
    Every distance is ``vector.distance_squared(centroid)`` with its dot
    summed in :meth:`SparseVector.dot`'s order, the nearest centroid is the
    first minimum, a mean keeps its keys in order of first appearance over
    its members, and an empty cluster is re-seeded at the farthest point.
    Feature ids must fit in an int64.
    """
    _check_settings(k, max_iterations)
    if not all(groups):
        raise ConfigurationError("cannot cluster an empty dataset")
    rng = np.random.default_rng(seed)
    seeded = rng.bit_generator.state
    results: List[KMeansResult] = []
    for begin in range(0, len(groups), _GROUPS_PER_CHUNK):
        chunk = _Chunk(groups[begin:begin + _GROUPS_PER_CHUNK], k)
        centroids, assignment, iterations = _lloyd(
            chunk, _kmeanspp(chunk, rng, seeded), max_iterations
        )
        results.extend(_results(chunk, centroids, assignment, iterations))
    return results


class KMeans:
    """Lloyd's algorithm with k-means++ seeding on sparse vectors.

    Parameters
    ----------
    k:
        Number of clusters.  A dataset of fewer than ``k`` points gets
        one centroid per point.
    max_iterations:
        Lloyd iteration cap.
    seed:
        RNG seed for k-means++ sampling.
    """

    def __init__(self, k: int, max_iterations: int = 50, seed: int = 0) -> None:
        _check_settings(k, max_iterations)
        self.k = k
        self.max_iterations = max_iterations
        self.seed = seed

    def fit(self, vectors: Sequence[SparseVector]) -> KMeansResult:
        """Cluster ``vectors``: the one-group case of :meth:`fit_block`."""
        [result] = self.fit_block([vectors])
        return result

    def fit_block(self, groups: Sequence[Sequence[SparseVector]]) -> List[KMeansResult]:
        """One result per group of ``groups``, clustered with these settings
        by :func:`kmeans_block`."""
        return kmeans_block(
            groups, k=self.k, max_iterations=self.max_iterations, seed=self.seed
        )
