"""P2P classification — the pluggable component of P2PDocTagger (paper §2).

Two approaches, both from the authors' prior work:

- :class:`~repro.p2pclass.cempar.CemparClassifier` — CEMPaR (ECML/PKDD 2009):
  cascade SVM over DHT-located regional super-peers;
- :class:`~repro.p2pclass.pace.PaceClassifier` — PACE (DASFAA 2010): adaptive
  ensemble of linear SVMs indexed by cluster centroids under LSH.

Both implement :class:`~repro.p2pclass.base.P2PTagClassifier`, so P2PDocTagger
treats the algorithm as a plug-in, exactly as the paper emphasizes.
"""
