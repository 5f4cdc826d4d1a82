"""The Tag Cloud component (paper Figs. 3-4).

"tags that co-occur in documents are connected by edges.  This provides
users with information regarding the tag relationships and captures higher
level concepts ... we see two clusters of highly interconnected tags bridged
by the word 'navigation'."

This module builds the tag co-occurrence graph, sizes tags by frequency
(font buckets), finds the clusters (greedy modularity communities), and
identifies *bridge tags* — tags whose removal disconnects clusters, found by
betweenness centrality across communities.

The graph is a plain adjacency: one insertion-ordered dict of weighted
neighbours per tag, in the order tags and pairs first occur.  The two graph
algorithms are written here over that adjacency — Clauset–Newman–Moore
greedy modularity and Brandes betweenness — and compute exactly what
networkx's ``greedy_modularity_communities(G, weight="weight")`` and
``betweenness_centrality(G, weight=None)`` return on the same graph, ties,
order and float rounding included (``tests/test_tagcloud_oracle.py`` holds
them to networkx, which nothing under ``src/`` imports).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations
from typing import Dict, Iterable, List, Set, Tuple

from repro.constraints import at_least, check_value, integer

#: tag -> {neighbour tag: number of documents carrying both}
Adjacency = Dict[str, Dict[str, int]]


@dataclass
class CloudEntry:
    """One rendered tag in the cloud."""

    tag: str
    frequency: int
    font_size: int  # bucket 1 (smallest) .. 5 (largest)
    community: int


def _greedy_modularity_communities(adjacency: Adjacency) -> List[Set[str]]:
    """Clauset–Newman–Moore: start from singletons and merge the pair of
    communities whose merge raises modularity most, until every merge
    would lower it.

    ``dq[u][v]`` is the modularity change of merging ``u`` into ``v``; the
    best merge is the least ``(-dq, u, v)``, so ties go to the smallest
    pair.  ``v`` keeps its place and ``u`` leaves.  Returned largest first,
    equal sizes in place order.
    """
    communities = {tag: {tag} for tag in adjacency}
    degrees = {tag: sum(row.values()) for tag, row in adjacency.items()}
    if not any(degrees.values()):
        return list(communities.values())
    q0 = 1 / (sum(degrees.values()) / 2)
    a = {tag: degree * q0 * 0.5 for tag, degree in degrees.items()}
    dq = {
        u: {v: q0 * weight - (a[u] * a[v] + a[u] * a[v])
            for v, weight in row.items()}
        for u, row in adjacency.items() if row
    }

    def row_best(u: str) -> Tuple[float, str, str]:
        return min((-change, u, v) for v, change in dq[u].items())

    best = {u: row_best(u) for u in dq}
    while best:
        negative_dq, u, v = min(best.values())
        if -negative_dq < 0:
            break
        communities[v] |= communities.pop(u)
        row_u, row_v = dq.pop(u), dq[v]
        del best[u], row_u[v], row_v[u]
        for w in row_u.keys() | row_v.keys():
            # networkx's three cases, term for term (its in-degree
            # fractions b are a on an undirected graph)
            if w in row_u and w in row_v:
                dq_vw = row_v[w] + row_u[w]
            elif w in row_v:
                dq_vw = row_v[w] - (a[u] * a[w] + a[w] * a[u])
            else:
                dq_vw = row_u[w] - (a[v] * a[w] + a[w] * a[v])
            row_v[w] = dq_vw
            row_w = dq[w]
            row_w[v] = dq_vw
            row_w.pop(u, None)
            # row w changed only at v and u: its best is rescanned only
            # if it sat there, else the new entry can only beat it
            key = (-dq_vw, w, v)
            if best[w][2] in (u, v):
                best[w] = row_best(w)
            elif key < best[w]:
                best[w] = key
        if row_v:
            best[v] = row_best(v)
        else:
            del dq[v], best[v]
        a[v] += a[u]
    return sorted(communities.values(), key=len, reverse=True)


def _betweenness_centrality(adjacency: Adjacency) -> Dict[str, float]:
    """Brandes' unweighted betweenness, normalised by the ``(n-1)(n-2)``
    ordered pairs a node can sit between: one breadth-first search per
    source in tag order, neighbours in insertion order, dependencies
    accumulated in reverse visiting order."""
    betweenness = dict.fromkeys(adjacency, 0.0)
    for source in adjacency:
        order: List[str] = []
        parents: Dict[str, List[str]] = {source: []}
        paths = {source: 1.0}
        depth = {source: 0}
        queue = deque([source])
        while queue:
            v = queue.popleft()
            order.append(v)
            below, paths_v = depth[v] + 1, paths[v]
            for w in adjacency[v]:
                if w not in depth:
                    queue.append(w)
                    depth[w], paths[w], parents[w] = below, 0.0, []
                if depth[w] == below:
                    paths[w] += paths_v
                    parents[w].append(v)
        dependency = dict.fromkeys(order, 0)
        while order:
            w = order.pop()
            coefficient = (1 + dependency[w]) / paths[w]
            for v in parents[w]:
                dependency[v] += paths[v] * coefficient
            if w != source:
                betweenness[w] += dependency[w]
    n = len(adjacency)
    if n > 2:
        scale = 1 / ((n - 1) * (n - 2))
        for tag in betweenness:
            betweenness[tag] *= scale
    return betweenness


class TagCloud:
    """Co-occurrence structure over a collection of tag sets."""

    def __init__(self, tag_sets: Iterable[Iterable[str]]) -> None:
        self._frequencies: Dict[str, int] = {}
        self._adjacency: Adjacency = {}
        for tags in tag_sets:
            tag_list = sorted(set(tags))
            for tag in tag_list:
                self._frequencies[tag] = self._frequencies.get(tag, 0) + 1
                self._adjacency.setdefault(tag, {})
            for a, b in combinations(tag_list, 2):
                row_a, row_b = self._adjacency[a], self._adjacency[b]
                row_a[b] = row_b[a] = row_a.get(b, 0) + 1
        #: frequency -> how many tags are strictly rarer (its font rank)
        self._rank: Dict[int, int] = {}
        for index, frequency in enumerate(sorted(self._frequencies.values())):
            self._rank.setdefault(frequency, index)
        self._communities = _greedy_modularity_communities(self._adjacency)
        self._community_index = {
            tag: index
            for index, community in enumerate(self._communities)
            for tag in community
        }

    # -- cloud rendering -----------------------------------------------------

    def frequencies(self) -> Dict[str, int]:
        return dict(self._frequencies)

    def cooccurrence(self, a: str, b: str) -> int:
        return self._adjacency.get(a, {}).get(b, 0)

    def font_size(self, tag: str, buckets: int = 5) -> int:
        """Bucketized font size: 1 (rare) .. ``buckets`` (most frequent);
        0 for a tag the cloud does not hold."""
        check_value("buckets", buckets, integer, at_least(1))
        if tag not in self._frequencies:
            return 0
        rank = self._rank[self._frequencies[tag]]
        bucket = 1 + (rank * buckets) // len(self._frequencies)
        return min(buckets, bucket)

    def community_of(self, tag: str) -> int:
        return self._community_index.get(tag, -1)

    def entries(self) -> List[CloudEntry]:
        """All tags with frequency, font bucket, and community, sorted by name."""
        return [
            CloudEntry(
                tag=tag,
                frequency=self._frequencies[tag],
                font_size=self.font_size(tag),
                community=self.community_of(tag),
            )
            for tag in sorted(self._frequencies)
        ]

    # -- structure analysis (the Fig. 4 observation) -----------------------

    def communities(self) -> List[Set[str]]:
        return [set(c) for c in self._communities]

    def bridge_tags(self, top: int = 3) -> List[str]:
        """Tags bridging communities, by cross-community betweenness.

        A bridge connects nodes from at least two different communities; the
        returned tags are those bridges with the highest betweenness
        centrality (the "navigation" of Fig. 4).
        """
        check_value("top", top, integer, at_least(0))
        if len(self._communities) < 2:
            return []
        centrality = _betweenness_centrality(self._adjacency)
        community_of = self._community_index
        bridges = []
        for tag, row in self._adjacency.items():
            if any(community_of[n] != community_of[tag] for n in row):
                bridges.append((centrality[tag], tag))
        bridges.sort(key=lambda pair: (-pair[0], pair[1]))
        return [tag for _, tag in bridges[:top]]

    def ascii_cloud(self, max_tags: int = 30) -> str:
        """Terminal rendering: font bucket shown as repetition + case."""
        check_value("max_tags", max_tags, integer, at_least(0))
        parts = []
        ranked = sorted(
            self._frequencies.items(), key=lambda kv: (-kv[1], kv[0])
        )[:max_tags]
        for tag, _ in sorted(ranked):
            size = self.font_size(tag)
            rendered = tag.upper() if size >= 4 else tag
            parts.append(f"{rendered}({size})")
        return "  ".join(parts)
