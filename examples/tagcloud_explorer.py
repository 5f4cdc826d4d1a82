#!/usr/bin/env python3
"""Tag Cloud explorer: reproducing the Fig. 4 observation.

The paper's tag cloud shows "two clusters of highly interconnected tags
bridged by the word 'navigation'".  This example plants exactly that
structure in the generator (two concept groups sharing one bridge tag),
lets the network auto-tag everything, and then analyses the resulting
co-occurrence graph: communities, bridges, and the rendered cloud.

Run:  python examples/tagcloud_explorer.py
"""

from repro.bench import format_table
from repro.core.tagger import P2PDocTaggerSystem, SystemConfig
from repro.data import DeliciousGenerator


def main() -> None:
    generator = DeliciousGenerator(
        num_users=12,
        seed=3,
        num_tags=10,
        num_tag_groups=2,
        bridge_tags=1,
        within_group_bias=0.9,
        docs_per_user_range=(30, 30),
    )
    planted_bridge = next(
        tag for tag in generator.tags if len(generator.groups_of(tag)) == 2
    )
    print("tag universe:", ", ".join(generator.tags))
    print(f"planted bridge tag: {planted_bridge!r}\n")

    corpus = generator.generate()
    system = P2PDocTaggerSystem(
        corpus, SystemConfig(algorithm="cempar", train_fraction=0.2, seed=3)
    )
    system.train()
    system.auto_tag_all()

    cloud = system.global_tag_cloud()
    print("rendered cloud:", cloud.ascii_cloud())
    print()

    rows = [
        [index, len(community), ", ".join(sorted(community))]
        for index, community in enumerate(cloud.communities())
    ]
    print(format_table("Detected tag communities", ["id", "size", "tags"], rows))

    bridges = cloud.bridge_tags(top=3)
    print(f"detected bridge tags: {bridges}")
    print(f"planted bridge recovered: {planted_bridge in bridges}\n")

    entries = sorted(cloud.entries(), key=lambda e: -e.frequency)[:8]
    print(
        format_table(
            "Cloud entries (font size from frequency, as in Fig. 3/4)",
            ["tag", "frequency", "font", "community"],
            [[e.tag, e.frequency, e.font_size, e.community] for e in entries],
        )
    )

    strongest = sorted(
        (
            (cloud.cooccurrence(a, b), a, b)
            for a in cloud.frequencies()
            for b in cloud.frequencies()
            if a < b and cloud.cooccurrence(a, b) > 0
        ),
        reverse=True,
    )[:6]
    print(
        format_table(
            "Strongest co-occurrence edges",
            ["count", "tag A", "tag B"],
            [[count, a, b] for count, a, b in strongest],
        )
    )


if __name__ == "__main__":
    main()
