"""The token-at-a-time text chain: the oracle for
``PreprocessingPipeline.process`` (which memoises each distinct word's
feature id and builds the vector in one pass)."""

import math
from collections import Counter

from repro.ml.sparse import SparseVector
from repro.text.lexicon import stable_word_id
from repro.text.porter import PorterStemmer
from repro.text.stopwords import ENGLISH_STOP_WORDS
from repro.text.tokenizer import tokenize


def install_token_chain(pipeline) -> None:
    """Make ``pipeline`` vectorize every text through the whole chain, one
    token at a time — ``tokenize`` -> stop words -> sensitive filter ->
    stem -> ``stable_word_id`` -> ``Counter`` -> float TF (``1 + log`` if
    sublinear) -> IDF -> ``normalized()`` — with no memo and its own IDF
    statistics, the way every vector was built before the memo."""
    stemmer = PorterStemmer()
    idf_state = {"df": Counter(), "n": 0}

    def stems(text):
        raw = tokenize(text, min_length=pipeline.min_token_length)
        if pipeline.use_stop_words:
            raw = [token for token in raw if token not in ENGLISH_STOP_WORDS]
        raw = pipeline.sensitive_filter.filter(raw)
        return [stemmer.stem(token) for token in raw]

    def term_frequencies(text):
        counts = Counter(
            stable_word_id(token, pipeline.dimension) for token in stems(text)
        )
        if not pipeline.sublinear_tf:
            return SparseVector({k: float(v) for k, v in counts.items()})
        return SparseVector({k: 1.0 + math.log(v) for k, v in counts.items()})

    def fit_tfidf(texts):
        idf_state["df"], idf_state["n"] = Counter(), 0
        for text in texts:
            idf_state["n"] += 1
            for feature_id in term_frequencies(text):
                idf_state["df"][feature_id] += 1
        return pipeline

    def idf(feature_id):
        n, df = idf_state["n"], idf_state["df"].get(feature_id, 0)
        return math.log((1.0 + n) / (1.0 + df)) + 1.0

    def process(text):
        vector = term_frequencies(text)
        if idf_state["n"]:
            vector = SparseVector(
                {fid: value * idf(fid) for fid, value in vector.items()}
            )
        return vector.normalized() if pipeline.normalize else vector

    # the pipeline is a frozen dataclass: install past its __setattr__
    object.__setattr__(pipeline, "fit_tfidf", fit_tfidf)
    object.__setattr__(pipeline, "process", process)
