"""Machine-learning substrate, implemented from scratch on numpy.

The paper's systems need: linear SVMs (PACE), non-linear SVMs whose support
vectors are available for cascading (CEMPaR), k-means clustering (PACE
centroids), locality-sensitive hashing (PACE's model index), probability
calibration (the tag-confidence slider), and multi-label evaluation metrics.
No third-party ML library is used.
"""
