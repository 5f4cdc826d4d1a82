"""Exception hierarchy for the P2PDocTagger reproduction.

All library-specific failures derive from :class:`ReproError` so callers can
catch one base type.  Errors raised by substrates keep their own subclasses to
make failure sites identifiable in logs and tests.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class ConfigurationError(ReproError):
    """A scenario, classifier, or pipeline was configured inconsistently."""


class NotTrainedError(ReproError):
    """A model was asked to predict before :meth:`fit`/``train`` completed."""


class VocabularyError(ReproError):
    """A vectorizer was misconfigured or used before it was fitted."""


class OverlayError(ReproError):
    """An overlay routing or membership operation failed."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


class DataError(ReproError):
    """A corpus or data distribution request was invalid."""
