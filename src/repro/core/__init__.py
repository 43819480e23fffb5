"""Core of the APEx reproduction: engine, translator, accounting, accuracy.

* :mod:`repro.core.engine` -- the :class:`~repro.core.engine.APExEngine`
  implementing Algorithm 1 of the paper.
* :mod:`repro.core.translator` -- accuracy-to-privacy mechanism selection.
* :mod:`repro.core.accounting` -- privacy ledger and transcript of interaction.
* :mod:`repro.core.accuracy` -- the ``(alpha, beta)`` accuracy requirement.
* :mod:`repro.core.exceptions` -- the library's exception hierarchy.
"""

from repro.core.accuracy import AccuracySpec
from repro.core.accounting import PrivacyLedger, Transcript, TranscriptEntry
from repro.core.engine import APExEngine, ExplorationResult
from repro.core.exceptions import (
    AccuracyError,
    ApexError,
    BudgetExceededError,
    MechanismError,
    ParseError,
    PredicateError,
    QueryError,
    SchemaError,
    TranslationError,
)
from repro.core.translator import AccuracyTranslator, MechanismChoice, SelectionMode

__all__ = [
    "AccuracySpec",
    "PrivacyLedger",
    "Transcript",
    "TranscriptEntry",
    "APExEngine",
    "ExplorationResult",
    "AccuracyTranslator",
    "MechanismChoice",
    "SelectionMode",
    "ApexError",
    "SchemaError",
    "PredicateError",
    "QueryError",
    "ParseError",
    "AccuracyError",
    "TranslationError",
    "MechanismError",
    "BudgetExceededError",
]
