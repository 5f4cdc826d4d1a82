"""Comparator systems for the experiments.

- :class:`~repro.baselines.centralized.CentralizedTagger` — every peer ships
  its raw tagged document vectors to one server, which trains global SVMs:
  the accuracy upper bound and the privacy/communication worst case the paper
  argues against.
- :class:`~repro.baselines.localonly.LocalOnlyTagger` — each peer learns from
  its own documents only: zero communication, the accuracy lower bound that
  collaboration must beat.
- :class:`~repro.baselines.popularity.PopularityTagger` — assigns globally
  popular tags regardless of content: the sanity floor.
"""
