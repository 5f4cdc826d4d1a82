"""Document vectorization: bag-of-words, TF-IDF, and the full pipeline.

The paper's preprocessing chain is: filter stop words and user-specified
sensitive words -> Porter-stem -> represent each document as a sparse vector
``{w_1, ..., w_m}`` where attribute id = word id and value = word weight.

:class:`PreprocessingPipeline` packages that chain.  In the distributed
setting all peers must agree on feature ids without exchanging a vocabulary,
so ids come from *feature hashing* (:func:`stable_word_id`): stable hashes
into a fixed-size space, exactly reproducible on every peer.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping

from repro.constraints import at_least, check, in_range, integer, setting
from repro.errors import VocabularyError
from repro.ml.sparse import SparseVector
from repro.text.lexicon import stable_word_id
from repro.text.porter import stem
from repro.text.sensitive import SensitiveWordFilter
from repro.text.stopwords import ENGLISH_STOP_WORDS
from repro.text.tokenizer import _WORD_RE, MAX_TOKEN_LENGTH, tokenize


class TfidfTransformer:
    """Rescales term weights by inverse document frequency.

    IDF statistics are estimated from the *local* training documents of each
    peer (no global coordination needed); ``idf = log((1 + n) / (1 + df)) + 1``
    with smoothing so unseen features keep weight 1.
    """

    def __init__(self) -> None:
        self._df: Counter = Counter()
        self._num_documents = 0

    def fit(self, documents: Iterable[Iterable[int]]) -> "TfidfTransformer":
        """Count, per feature id, the documents holding it (each document
        an iterable of its distinct feature ids: a vector or a TF dict)."""
        for document in documents:
            self._num_documents += 1
            for feature_id in document:
                self._df[feature_id] += 1
        return self

    @property
    def num_documents(self) -> int:
        return self._num_documents

    def idf(self, feature_id: int) -> float:
        df = self._df.get(feature_id, 0)
        return math.log((1.0 + self._num_documents) / (1.0 + df)) + 1.0

    def transform(self, weights: Mapping[int, float]) -> Dict[int, float]:
        """Each term weight times its feature's IDF, in ``weights``' order."""
        if self._num_documents == 0:
            raise VocabularyError("TfidfTransformer.transform called before fit")
        return {fid: weight * self.idf(fid) for fid, weight in weights.items()}


#: the memo's verdict for a word the chain drops (too short or long, a stop
#: word, sensitive); never a feature id
_DROPPED = -1


@dataclass(frozen=True)
class PreprocessingPipeline:
    """The paper's full preprocessing chain as one configurable object.

    ``process(text)`` returns the sparse document vector; ``tokens(text)``
    exposes the intermediate stemmed tokens (the privacy demo prints them).

    The settings are fixed at construction (assigning one raises) and are
    what two pipelines compare equal on: each distinct word's feature id is
    worked out once and memoised on the instance, so a setting changed
    afterwards would silently not apply.  The sensitive-word filter stays
    mutable; the memo is dropped whenever its :attr:`version` moves.
    """

    dimension: int = setting(2 ** 18, integer, at_least(1))
    sublinear_tf: bool = False
    normalize: bool = True
    use_stop_words: bool = True
    #: a minimum past the longest token kept would drop every word
    min_token_length: int = setting(2, integer, in_range(1, MAX_TOKEN_LENGTH))
    sensitive_filter: SensitiveWordFilter = field(
        default_factory=SensitiveWordFilter, hash=False
    )

    def __post_init__(self) -> None:
        check(self, VocabularyError)
        # Not settings: the frozen dataclass leaves these out of __eq__.
        object.__setattr__(self, "_tfidf", None)
        #: raw regex match -> feature id, or _DROPPED
        object.__setattr__(self, "_memo", {})
        object.__setattr__(self, "_memo_version", self.sensitive_filter.version)

    def fit_tfidf(self, texts: Iterable[str]) -> "PreprocessingPipeline":
        """Estimate IDF weights from ``texts`` and enable TF-IDF weighting.

        The paper's vectors carry word *weights*; raw TF is the default and
        TF-IDF an opt-in refinement.  Each peer fits on its **local**
        documents only — no IDF statistics are exchanged, so the privacy
        posture is unchanged.
        """
        transformer = TfidfTransformer()
        transformer.fit(self._term_counts(text) for text in texts)
        if transformer.num_documents == 0:
            raise VocabularyError("fit_tfidf needs at least one document")
        object.__setattr__(self, "_tfidf", transformer)
        return self

    def tokens(self, text: str) -> List[str]:
        """Tokenize, filter stop/sensitive words, and stem."""
        raw = tokenize(text, min_length=self.min_token_length)
        if self.use_stop_words:
            raw = [token for token in raw if token not in ENGLISH_STOP_WORDS]
        raw = self.sensitive_filter.filter(raw)
        return [stem(token) for token in raw]

    def _term_counts(self, text: str) -> Dict[int, int]:
        """Feature id -> term count, in order of first occurrence.

        One pass over the regex matches of ``text``: a word seen before
        costs a dict lookup; a new one runs :meth:`tokens` on itself once.
        """
        memo = self._memo
        version = self.sensitive_filter.version
        if version != self._memo_version:
            memo.clear()
            object.__setattr__(self, "_memo_version", version)
        counts: Dict[int, int] = {}
        for match in _WORD_RE.findall(text.lower()):
            feature_id = memo.get(match)
            if feature_id is None:
                stems = self.tokens(match)
                feature_id = memo[match] = (
                    stable_word_id(stems[0], self.dimension) if stems else _DROPPED
                )
            counts[feature_id] = counts.get(feature_id, 0) + 1
        counts.pop(_DROPPED, None)
        return counts

    def process(self, text: str) -> SparseVector:
        """Full chain: text -> sparse TF vector in the hashed feature space.

        L2 normalization (default on) removes document-length effects and
        keeps RBF-kernel distances in [0, 2] — both SVM families depend on
        it for text.
        """
        weights = self._term_counts(text)
        if self.sublinear_tf:
            weights = {fid: 1.0 + math.log(count) for fid, count in weights.items()}
        if self._tfidf is not None:
            weights = self._tfidf.transform(weights)
        return SparseVector.from_weights(weights, self.normalize)
