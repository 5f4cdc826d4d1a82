"""The Tag Cloud component (paper Figs. 3-4).

"tags that co-occur in documents are connected by edges.  This provides
users with information regarding the tag relationships and captures higher
level concepts ... we see two clusters of highly interconnected tags bridged
by the word 'navigation'."

This module builds the tag co-occurrence graph, sizes tags by frequency
(font buckets), finds the clusters (greedy modularity communities), and
identifies *bridge tags* — tags whose removal disconnects clusters, found by
betweenness centrality across communities.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import TYPE_CHECKING, Dict, Iterable, List, Set, Tuple

if TYPE_CHECKING:  # networkx loads when a cloud is built, not at import:
    import networkx as nx  # every tcp shard worker imports repro.cli


@dataclass
class CloudEntry:
    """One rendered tag in the cloud."""

    tag: str
    frequency: int
    font_size: int  # bucket 1 (smallest) .. 5 (largest)
    community: int


class TagCloud:
    """Co-occurrence structure over a collection of tag sets."""

    def __init__(self, tag_sets: Iterable[Iterable[str]]) -> None:
        self._frequencies: Dict[str, int] = {}
        self._cooccurrence: Dict[Tuple[str, str], int] = {}
        for tags in tag_sets:
            tag_list = sorted(set(tags))
            for tag in tag_list:
                self._frequencies[tag] = self._frequencies.get(tag, 0) + 1
            for a, b in combinations(tag_list, 2):
                self._cooccurrence[(a, b)] = self._cooccurrence.get((a, b), 0) + 1
        self._graph = self._build_graph()
        self._communities = self._detect_communities()

    # ------------------------------------------------------------------

    def _build_graph(self) -> nx.Graph:
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(self._frequencies)
        for (a, b), weight in self._cooccurrence.items():
            graph.add_edge(a, b, weight=weight)
        return graph

    def _detect_communities(self) -> List[Set[str]]:
        if self._graph.number_of_nodes() == 0:
            return []
        if self._graph.number_of_edges() == 0:
            return [{tag} for tag in self._graph.nodes]
        import networkx as nx

        communities = nx.community.greedy_modularity_communities(
            self._graph, weight="weight"
        )
        return [set(c) for c in communities]

    # -- cloud rendering -----------------------------------------------------

    def frequencies(self) -> Dict[str, int]:
        return dict(self._frequencies)

    def cooccurrence(self, a: str, b: str) -> int:
        key = (min(a, b), max(a, b))
        return self._cooccurrence.get(key, 0)

    def font_size(self, tag: str, buckets: int = 5) -> int:
        """Bucketized font size: 1 (rare) .. ``buckets`` (most frequent)."""
        if tag not in self._frequencies:
            return 0
        counts = sorted(self._frequencies.values())
        rank = counts.index(self._frequencies[tag])
        bucket = 1 + (rank * buckets) // max(1, len(counts))
        return min(buckets, bucket)

    def community_of(self, tag: str) -> int:
        for index, community in enumerate(self._communities):
            if tag in community:
                return index
        return -1

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
        if self._graph.number_of_edges() == 0 or len(self._communities) < 2:
            return []
        import networkx as nx

        centrality = nx.betweenness_centrality(self._graph, weight=None)
        community_of = {
            tag: idx
            for idx, community in enumerate(self._communities)
            for tag in community
        }
        bridges = []
        for tag in self._graph.nodes:
            neighbor_communities = {
                community_of[n] for n in self._graph.neighbors(tag)
            }
            neighbor_communities.discard(community_of[tag])
            if neighbor_communities:
                bridges.append((centrality.get(tag, 0.0), tag))
        bridges.sort(key=lambda pair: (-pair[0], pair[1]))
        return [tag for _, tag in bridges[:top]]

    def ascii_cloud(self, max_tags: int = 30) -> str:
        """Terminal rendering: font bucket shown as repetition + case."""
        parts = []
        ranked = sorted(
            self._frequencies.items(), key=lambda kv: (-kv[1], kv[0])
        )[:max_tags]
        for tag, _ in sorted(ranked):
            size = self.font_size(tag)
            rendered = tag.upper() if size >= 4 else tag
            parts.append(f"{rendered}({size})")
        return "  ".join(parts)
