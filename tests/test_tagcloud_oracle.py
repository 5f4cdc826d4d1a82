"""The tag cloud's and the overlay summaries' graph algorithms against
networkx, the one place the suite imports it.

``repro.core.tagcloud`` runs Clauset–Newman–Moore greedy modularity and
Brandes betweenness on plain adjacency dicts; ``repro.sim.visualize``
counts degrees and components the same way.  Each must return exactly
what networkx returns on the same graph: the communities as sets and in
their order, the ``community`` id of every cloud entry, every centrality
float bit for bit, and every ``bridge_tags(top=k)`` prefix.  The graphs
are built the way a cloud sees them — tags in first-seen order, each pair
an edge weighted by its document count — and lean on ties: weights of 1
to 3, cliques, stars, cycles, isolated tags, one-edge and empty graphs.

The last test blocks ``import networkx`` in a fresh interpreter and runs
the cloud and the overlay summary there.
"""

import os
import random
import subprocess
import sys
import textwrap
from itertools import combinations
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tagcloud import TagCloud, _betweenness_centrality
from repro.overlay import make_overlay, overlay_names
from repro.sim.visualize import connectivity_report, degree_statistics

ROOT = Path(__file__).resolve().parents[1]

#: names whose sorted order differs from the order a shape names them,
#: so a tie broken by name and one broken by position disagree
TAGS = ["m", "b", "x", "a", "k", "d", "t", "c", "q", "f", "z", "e"]

tags = st.sampled_from(TAGS)
weights = st.integers(1, 3)


def _repeat(documents, weight):
    return [document for document in documents for _ in range(weight)]


clique = st.builds(
    lambda members, weight: _repeat([members], weight),
    st.lists(tags, min_size=2, max_size=5, unique=True), weights,
)
star = st.builds(
    lambda centre, leaves, weight: _repeat(
        [[centre, leaf] for leaf in leaves if leaf != centre], weight
    ),
    tags, st.lists(tags, min_size=1, max_size=6, unique=True), weights,
)
cycle = st.builds(
    lambda ring, weight: _repeat(
        [[a, b] for a, b in zip(ring, ring[1:] + ring[:1])], weight
    ),
    st.lists(tags, min_size=3, max_size=7, unique=True), weights,
)
edge = st.builds(
    lambda pair, weight: _repeat([pair], weight),
    st.lists(tags, min_size=2, max_size=2, unique=True), weights,
)
isolated = st.builds(lambda tag: [[tag]], tags)
shapes = st.one_of(clique, star, cycle, edge, isolated)

#: a cloud's documents: a few shapes, their documents in any order
documents = st.lists(shapes, max_size=5).flatmap(
    lambda parts: st.permutations([d for part in parts for d in part])
)


def _graph(tag_sets):
    """The co-occurrence graph as networkx holds it: nodes in first-seen
    order, then the pairs in first-seen order, weighted by count."""
    nodes, pairs = {}, {}
    for tag_set in tag_sets:
        tag_list = sorted(set(tag_set))
        nodes.update(dict.fromkeys(tag_list))
        for pair in combinations(tag_list, 2):
            pairs[pair] = pairs.get(pair, 0) + 1
    graph = nx.Graph()
    graph.add_nodes_from(nodes)
    for (a, b), weight in pairs.items():
        graph.add_edge(a, b, weight=weight)
    return graph


def _expected_bridges(graph, communities, top):
    if graph.number_of_edges() == 0 or len(communities) < 2:
        return []
    centrality = nx.betweenness_centrality(graph, weight=None)
    index = {tag: i for i, c in enumerate(communities) for tag in c}
    bridges = sorted(
        (
            (centrality[tag], tag) for tag in graph
            if {index[n] for n in graph[tag]} - {index[tag]}
        ),
        key=lambda pair: (-pair[0], pair[1]),
    )
    return [tag for _, tag in bridges[:top]]


@settings(max_examples=400, deadline=None)
@given(documents, st.integers(0, len(TAGS) + 1))
def test_the_cloud_agrees_with_networkx(tag_sets, top):
    cloud = TagCloud(tag_sets)
    graph = _graph(tag_sets)
    if graph.number_of_nodes():
        expected = [
            set(c) for c in nx.community.greedy_modularity_communities(
                graph, weight="weight"
            )
        ]
    else:
        expected = []
    assert cloud.communities() == expected
    index = {tag: i for i, c in enumerate(expected) for tag in c}
    assert [(e.tag, e.community) for e in cloud.entries()] == [
        (tag, index[tag]) for tag in sorted(graph)
    ]
    assert cloud.bridge_tags(top=top) == _expected_bridges(graph, expected, top)


@settings(max_examples=400, deadline=None)
@given(documents)
def test_betweenness_is_networkx_bit_for_bit(tag_sets):
    graph = _graph(tag_sets)
    adjacency = {
        tag: {n: data["weight"] for n, data in graph[tag].items()}
        for tag in graph
    }
    expected = nx.betweenness_centrality(graph, weight=None)
    assert list(_betweenness_centrality(adjacency).items()) == list(
        expected.items()
    )


def test_a_larger_cloud_agrees_with_networkx():
    """Hubs, many merges and float ties a dozen tags cannot reach."""
    rng = random.Random(11)
    names = [f"tag{i:02d}" for i in range(60)]
    tag_sets = [rng.sample(names, rng.randint(1, 4)) for _ in range(400)]
    cloud = TagCloud(tag_sets)
    graph = _graph(tag_sets)
    expected = [
        set(c) for c in nx.community.greedy_modularity_communities(
            graph, weight="weight"
        )
    ]
    assert cloud.communities() == expected
    assert len(expected) >= 2  # the merges stopped on their own
    assert cloud.bridge_tags(top=10) == _expected_bridges(graph, expected, 10)


def _overlay(name, size, leave_every):
    overlay = make_overlay(name, seed=5, degree=3)
    for address in range(size):
        overlay.join(address)
    overlay.stabilize()
    if leave_every:
        for address in range(0, size, leave_every):
            overlay.leave(address)  # tables may keep a departed link
    return overlay


def _networkx_view(overlay):
    graph = nx.Graph()
    graph.add_nodes_from(overlay.members())
    for address in overlay.members():
        for neighbor in overlay.neighbors(address):
            graph.add_edge(address, neighbor)
    if graph.number_of_nodes() == 0:
        return (
            {"nodes": 0, "edges": 0, "min_degree": 0.0,
             "mean_degree": 0.0, "max_degree": 0.0},
            {"connected": 0.0, "components": 0.0, "largest_component": 0.0},
        )
    degrees = [d for _, d in graph.degree()]
    components = [len(c) for c in nx.connected_components(graph)]
    return (
        {
            "nodes": float(graph.number_of_nodes()),
            "edges": float(graph.number_of_edges()),
            "min_degree": float(min(degrees)),
            "mean_degree": float(sum(degrees) / len(degrees)),
            "max_degree": float(max(degrees)),
        },
        {
            "connected": 1.0 if len(components) == 1 else 0.0,
            "components": float(len(components)),
            "largest_component": float(max(components)),
        },
    )


@pytest.mark.parametrize("size, leave_every", [
    (0, None), (1, None), (2, None), (9, None), (40, None), (40, 3),
])
@pytest.mark.parametrize("name", overlay_names())
def test_overlay_summaries_agree_with_networkx(name, size, leave_every):
    overlay = _overlay(name, size, leave_every)
    assert (degree_statistics(overlay), connectivity_report(overlay)) == (
        _networkx_view(overlay)
    )


def test_the_cloud_and_the_overlay_summary_run_without_networkx():
    script = textwrap.dedent("""
        import sys

        class Refuse:
            def find_spec(self, name, path=None, target=None):
                if name.split(".")[0] == "networkx":
                    raise ImportError("networkx is blocked")

        sys.meta_path.insert(0, Refuse())
        try:
            import networkx
        except ImportError:
            pass
        else:
            raise SystemExit("the block did not hold")

        from repro.core.tagcloud import TagCloud
        from repro.overlay import make_overlay
        from repro.sim.visualize import ascii_summary

        cloud = TagCloud(
            [["python", "linux"], ["python", "code"], ["linux", "code"]] * 3
            + [["travel", "photo"], ["travel", "maps"], ["photo", "maps"]] * 3
            + [["code", "navigation"], ["maps", "navigation"]]
        )
        print(len(cloud.entries()), cloud.bridge_tags(top=1))
        overlay = make_overlay("chord")
        for address in range(8):
            overlay.join(address)
        overlay.stabilize()
        print(ascii_summary(overlay).splitlines()[0])
        print("networkx" in sys.modules)
    """)
    run = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(ROOT / "src")] + [
                entry for entry in [os.environ.get("PYTHONPATH")] if entry
            ]
        )},
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        "7 ['navigation']", "overlay: chord", "False",
    ]
