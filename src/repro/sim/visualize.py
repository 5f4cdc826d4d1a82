"""Network visualization helpers (P2PDMT "Visualize network / statistics").

Reads an overlay's links as an undirected adjacency — a link either end
lists counts once, and an address a member lists is a node even if it is
not a member — and summarises its degrees and connected components, plus
an ASCII summary usable from terminals and logs.
"""

from __future__ import annotations

from typing import Dict, Set

from repro.overlay.base import Overlay


def _links(overlay: Overlay) -> Dict[int, Set[int]]:
    """Each node's neighbours over the overlay's links, both directions."""
    members = overlay.members()
    links: Dict[int, Set[int]] = {address: set() for address in members}
    for address in members:
        for neighbor in overlay.neighbors(address):
            links[address].add(neighbor)
            links.setdefault(neighbor, set()).add(address)
    return links


def degree_statistics(overlay: Overlay) -> Dict[str, float]:
    """Degree distribution summary of the overlay graph."""
    links = _links(overlay)
    if not links:
        return {"nodes": 0, "edges": 0, "min_degree": 0.0,
                "mean_degree": 0.0, "max_degree": 0.0}
    degrees = [len(neighbors) for neighbors in links.values()]
    return {
        "nodes": float(len(links)),
        "edges": float(sum(degrees) // 2),
        "min_degree": float(min(degrees)),
        "mean_degree": float(sum(degrees) / len(degrees)),
        "max_degree": float(max(degrees)),
    }


def connectivity_report(overlay: Overlay) -> Dict[str, float]:
    """Connectivity facts that matter for broadcast coverage."""
    links = _links(overlay)
    if not links:
        return {"connected": 0.0, "components": 0.0, "largest_component": 0.0}
    sizes = []
    unseen = set(links)
    while unseen:
        frontier = [unseen.pop()]
        size = 1
        while frontier:
            for neighbor in links[frontier.pop()]:
                if neighbor in unseen:
                    unseen.remove(neighbor)
                    frontier.append(neighbor)
                    size += 1
        sizes.append(size)
    return {
        "connected": 1.0 if len(sizes) == 1 else 0.0,
        "components": float(len(sizes)),
        "largest_component": float(max(sizes)),
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
