"""Relational data substrate: schemas, attribute domains, in-memory tables.

The APEx paper assumes a single-table relational schema ``R(A1, ..., Ad)``
whose attribute domains are public.  This subpackage provides that substrate:

* :mod:`repro.data.schema` -- attribute domain descriptions and table schemas.
* :mod:`repro.data.table` -- a sharded, versioned in-memory table backed by
  numpy arrays, with the small set of query operations the mechanisms need
  (predicate evaluation and histogram counting); mutation goes through
  ``append_rows``/``refresh``, which advance the table's ``version_token``,
  and readers pin wait-free ``TableSnapshot`` views via ``snapshot()``.
* :mod:`repro.data.adult`, :mod:`repro.data.nytaxi` -- synthetic stand-ins for
  the Adult census and NYC taxi datasets used in the paper's evaluation.
* :mod:`repro.data.citations` -- a synthetic labelled-pairs corpus for the
  entity-resolution case study.
"""

from repro.data.schema import (
    Attribute,
    AttributeKind,
    CategoricalDomain,
    NumericDomain,
    Schema,
    TextDomain,
)
from repro.data.table import Table, TableSnapshot, TableVersion
from repro.data.adult import generate_adult, ADULT_SCHEMA
from repro.data.nytaxi import generate_nytaxi, NYTAXI_SCHEMA
from repro.data.citations import (
    CitationPair,
    CitationRecord,
    generate_citation_pairs,
    pairs_to_table,
    CITATION_PAIR_SCHEMA,
)

__all__ = [
    "Attribute",
    "AttributeKind",
    "CategoricalDomain",
    "NumericDomain",
    "TextDomain",
    "Schema",
    "Table",
    "TableSnapshot",
    "TableVersion",
    "generate_adult",
    "ADULT_SCHEMA",
    "generate_nytaxi",
    "NYTAXI_SCHEMA",
    "CitationRecord",
    "CitationPair",
    "generate_citation_pairs",
    "pairs_to_table",
    "CITATION_PAIR_SCHEMA",
]
