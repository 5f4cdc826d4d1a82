"""P2PDocTagger core — the system of paper Fig. 1.

Pipeline stages: document processing -> (manual tagging | P2P collaborative
learning -> auto tagging) -> refinement, with tags stored as file metadata
and browsed through the Library and Tag Cloud components.
"""
