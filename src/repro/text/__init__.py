"""Document preprocessing substrate (paper §2, "Document preprocessing").

The pipeline mirrors the paper: stop words and user-specified sensitive words
are filtered out, remaining words are normalized with the Porter stemming
algorithm, and documents become sparse multidimensional feature vectors whose
attribute ids are word ids and whose values are word weights.
"""
