"""Network visualization helpers (P2PDMT "Visualize network / statistics").

Exports overlays as :mod:`networkx` graphs for structural analysis, plus
ASCII summaries usable from terminals and logs.  The tag-cloud experiment
also routes its co-occurrence graphs through networkx.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

from repro.overlay.base import Overlay

if TYPE_CHECKING:  # imported where a graph is built, never at module import
    import networkx as nx


def overlay_to_graph(overlay: Overlay) -> nx.Graph:
    """Undirected graph of the overlay's current links."""
    import networkx as nx

    graph = nx.Graph()
    members = overlay.members()
    graph.add_nodes_from(members)
    for address in members:
        for neighbor in overlay.neighbors(address):
            graph.add_edge(address, neighbor)
    return graph


def degree_statistics(overlay: Overlay) -> Dict[str, float]:
    """Degree distribution summary of the overlay graph."""
    graph = overlay_to_graph(overlay)
    if graph.number_of_nodes() == 0:
        return {"nodes": 0, "edges": 0, "min_degree": 0.0,
                "mean_degree": 0.0, "max_degree": 0.0}
    degrees = [d for _, d in graph.degree()]
    return {
        "nodes": float(graph.number_of_nodes()),
        "edges": float(graph.number_of_edges()),
        "min_degree": float(min(degrees)),
        "mean_degree": float(sum(degrees) / len(degrees)),
        "max_degree": float(max(degrees)),
    }


def connectivity_report(overlay: Overlay) -> Dict[str, float]:
    """Connectivity facts that matter for broadcast coverage."""
    graph = overlay_to_graph(overlay)
    if graph.number_of_nodes() == 0:
        return {"connected": 0.0, "components": 0.0, "largest_component": 0.0}
    import networkx as nx

    components = list(nx.connected_components(graph))
    largest = max((len(c) for c in components), default=0)
    return {
        "connected": 1.0 if len(components) == 1 else 0.0,
        "components": float(len(components)),
        "largest_component": float(largest),
    }


def ascii_summary(overlay: Overlay) -> str:
    """Terminal-friendly one-screen overlay summary."""
    stats = degree_statistics(overlay)
    connectivity = connectivity_report(overlay)
    lines = [
        f"overlay: {overlay.name}",
        f"nodes: {int(stats['nodes'])}  edges: {int(stats['edges'])}",
        (
            f"degree: min={stats['min_degree']:.0f} "
            f"mean={stats['mean_degree']:.1f} max={stats['max_degree']:.0f}"
        ),
        (
            f"components: {int(connectivity['components'])} "
            f"(largest {int(connectivity['largest_component'])})"
        ),
    ]
    return "\n".join(lines)


def adjacency_table(overlay: Overlay, limit: int = 20) -> str:
    """First ``limit`` adjacency rows, for debugging small overlays."""
    rows: List[str] = []
    for address in sorted(overlay.members())[:limit]:
        neighbors = ", ".join(str(n) for n in overlay.neighbors(address)[:8])
        rows.append(f"{address:>6} -> {neighbors}")
    return "\n".join(rows)
