"""Persistent artifact store with domain-fingerprint revalidation.

This package is the disk-backed third tier under the translation memo.
Accuracy-to-privacy translation lists
(:class:`~repro.core.translator.AccuracyTranslator`), which include WCQ-SM's
Monte-Carlo epsilon searches, are pure functions of (workload structure,
attribute domains, alpha, beta), and so are the workload matrices beneath
them.  Three cooperating pieces exploit that purity:

* **domain fingerprints** (:meth:`repro.data.Table.domain_fingerprint`,
  bundled into :class:`repro.data.DomainStamp`) -- cheap per-attribute
  digests that change only when a mutation actually touches the attribute's
  domain, letting the memo layers *revalidate* (re-tag an existing artifact
  for the new version) instead of rebuilding after domain-preserving
  appends;
* **process-stable content digests** (:func:`repro.store.stable_digest`) --
  the on-disk key schema, derived from canonical value forms rather than
  per-process ``hash()``/identity;
* the :class:`ArtifactStore` itself -- content-addressed files with atomic
  write-rename publication, checksum-verified corruption-safe loads,
  advisory cross-process file locking, and size-capped LRU eviction.

Attach a store with ``APExEngine(..., store=ArtifactStore(path))``,
``ExplorationService(..., store=...)`` or
``AccuracyTranslator(..., store=...)``; a restarted service pointed at the
previous run's directory answers structurally identical ``preview_cost``
requests with zero matrix rebuilds and zero Monte-Carlo re-searches.  The
full key schema, revalidation contract and eviction policy are documented
in ``docs/store.md``; ``tests/store/test_cross_process.py`` pins the
fresh-interpreter warm start.
"""

from repro.store.artifact_store import DEFAULT_STORE_DIR, ArtifactStore
from repro.store.fingerprint import canonical_form, stable_digest

__all__ = [
    "ArtifactStore",
    "DEFAULT_STORE_DIR",
    "canonical_form",
    "stable_digest",
]
