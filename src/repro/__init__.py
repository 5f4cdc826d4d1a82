"""P2PDocTagger — automated P2P collaborative document tagging.

Reproduction of:
    Ang, Gopalkrishnan, Ng, Hoi.  "P2PDocTagger: Content management through
    automated P2P collaborative tagging."  PVLDB 3(2):1601-1604, VLDB 2010.

The package contains the full system described by the paper, plus every
substrate it depends on:

- :mod:`repro.text` — document preprocessing (stop words, Porter stemming,
  sparse bag-of-words vectorization).
- :mod:`repro.ml` — learning substrate built from scratch (linear and kernel
  SVMs, k-means, LSH, Platt calibration, multi-label metrics).
- :mod:`repro.sim` — P2PDMT, the discrete-event P2P data-mining simulation
  toolkit (physical network, churn, data distribution, statistics).
- :mod:`repro.overlay` — structured (Chord, Kademlia) and unstructured
  overlays with deterministic super-peer election.
- :mod:`repro.data` — synthetic Delicious-like corpus generator.
- :mod:`repro.p2pclass` — the pluggable P2P classification approaches
  (CEMPaR and PACE) the paper deploys.
- :mod:`repro.baselines` — centralized / local-only / popularity comparators.
- :mod:`repro.core` — P2PDocTagger itself: the multi-label tagging pipeline,
  tag metadata store, library, tag cloud, suggestions, and refinement.

Quickstart::

    from repro.core.tagger import P2PDocTaggerSystem
    from repro.data import DeliciousGenerator

    corpus = DeliciousGenerator(num_users=16, seed=7).generate()
    system = P2PDocTaggerSystem.from_corpus(corpus, algorithm="pace", seed=7)
    system.train()
    report = system.evaluate()
    print(report.summary())
"""

__version__ = "1.0.0"
