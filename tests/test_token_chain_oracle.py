"""``PreprocessingPipeline.process`` against the token-at-a-time chain.

The pipeline memoises each distinct word's feature id and builds the
vector in one pass; ``tests/reference/token_chain.py`` runs tokenize ->
stop words -> sensitive filter -> stem -> ``stable_word_id`` -> ``Counter``
-> TF / IDF -> ``normalized()`` for every token of every call.  Two
identically configured pipelines, the reference installed on one, must
give the same keys in the same order and the same values bit for bit,
under every setting and with the sensitive-word filter changed between
calls.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import install_token_chain
from repro.text.sensitive import SensitiveWordFilter
from repro.text.vectorizer import PreprocessingPipeline

# Words the sensitive filter is set to, and that the texts draw from.
_SENSITIVE_WORDS = ["salary", "salar*", "budget", "peer*", "the", "tag", "a*", "x"]

# Words the stop list and the filter's words and patterns know: weighted
# three to one over the rest, so a word the filter gains or loses is
# likely to be in a text processed before and after.
_known = st.sampled_from([
    "salary", "salaries", "Salary's", "budget", "peer", "peers", "peering",
    "tag", "tags", "tagging", "user's", "o'clock", "it's", "caresses",
    "ponies", "the", "The", "and", "not", "a", "for", "x", "ab", "abc",
    "documents", "relational",
])
_word = st.one_of(
    _known,
    _known,
    _known,
    st.sampled_from([1, 2, 3, 39, 40, 41, 42]).map(lambda n: "q" * n),
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz'", min_size=1, max_size=6),
    st.text(min_size=1, max_size=6),  # unicode, digits, punctuation
    st.sampled_from(["café", "naïve", "İstanbul", "STRASSE", "ǅemal", "x2y", "42"]),
)
_separator = st.sampled_from([" ", "  ", "\n", "-", ", ", ". ", "'", "_", "é", "7"])
_text = st.lists(st.tuples(_word, _separator), max_size=25).map(
    lambda parts: "".join(word + sep for word, sep in parts)
)

_options = st.fixed_dictionaries({
    "dimension": st.sampled_from([2 ** 18, 2 ** 16, 97, 1]),
    "sublinear_tf": st.booleans(),
    "normalize": st.booleans(),
    "use_stop_words": st.booleans(),
    "min_token_length": st.integers(min_value=1, max_value=4),
})

_step = st.one_of(
    st.tuples(st.sampled_from(["add", "remove"]), st.sampled_from(_SENSITIVE_WORDS)),
    st.tuples(st.just("fit_tfidf"), st.lists(_text, min_size=1, max_size=3)),
)


def _bits(vector):
    return [(key, value.hex()) for key, value in vector.items()]


@settings(max_examples=200, deadline=None)
@given(
    options=_options,
    initial=st.lists(st.sampled_from(_SENSITIVE_WORDS), max_size=2),
    texts=st.lists(_text, min_size=1, max_size=3),
    steps=st.lists(_step, max_size=6),
)
@example(  # the privacy contract: a word registered after use never returns
    options={"dimension": 2 ** 18, "sublinear_tf": False, "normalize": True,
             "use_stop_words": True, "min_token_length": 2},
    initial=[], texts=["salary budget"], steps=[("add", "salar*")],
)
def test_the_memoised_pass_matches_the_token_chain(options, initial, texts, steps):
    """Every text is processed again after each change of the filter or
    the IDF, so the memo serves words it filled under the old state."""
    fast = PreprocessingPipeline(sensitive_filter=SensitiveWordFilter(initial), **options)
    slow = PreprocessingPipeline(sensitive_filter=SensitiveWordFilter(initial), **options)
    install_token_chain(slow)
    for step in [None] + steps:
        if step is not None:
            kind, argument = step
            for pipeline in (fast, slow):
                if kind == "fit_tfidf":
                    pipeline.fit_tfidf(argument)
                else:
                    getattr(pipeline.sensitive_filter, kind)(argument)
        for text in texts:
            assert _bits(fast.process(text)) == _bits(slow.process(text))
