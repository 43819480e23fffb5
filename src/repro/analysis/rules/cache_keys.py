"""APX002 -- cache-key completeness: table-derived keys must carry a version.

``docs/consistency.md`` states the contract every cache in the stack obeys:
*a cached artifact is addressable only under the table state it was derived
from*.  Concretely, any memo keyed on "this table" must fold a
``TableVersion`` token or a derived ``cache_token``/``cache_key``/
``stable_digest`` into the key -- a key built from a raw
``Table``/``TableSnapshot`` reference alone would keep serving
pre-mutation artifacts after an ``append_rows``/``refresh``.  (Artifacts
that read only the schema key on the schema and mention no table, which
puts them out of scope.)

This rule inspects every *key expression* flowing into a cache operation:

* ``<cache>.get(key)`` / ``<cache>.put(key, ...)`` / ``<cache>.setdefault(key, ...)``
  where the receiver's final name segment matches ``cache``/``memo``;
* subscripts ``<cache>[key]`` on such receivers (read or store).

A key expression is flagged when it references a table-like object (an
identifier matching ``table``/``tbl``/``snapshot``/``snap``, however
qualified) without also referencing any version marker (an identifier
containing ``version``, ``token``, ``stamp``, ``fingerprint``, ``digest``,
or a ``cache_key``/``cache_token`` accessor).

Keys that mention no table at all (structural keys, content digests) are
out of scope; so is keying by snapshot *identity plus token*, which the
marker list recognises.  Deliberate identity-keyed designs suppress with
``# apx: ignore[APX002] <why>``.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.rules.common import SourceFile, dotted_name

__all__ = ["CacheKeyRule"]

_CACHEISH = re.compile(r"(cache|memo)s?$", re.IGNORECASE)
_TABLEISH = re.compile(r"^(_?(table|tbl|snapshot|snap))s?$", re.IGNORECASE)
_MARKER = re.compile(
    r"(version|token|stamp|fingerprint|digest|cache_key|key\b)",
    re.IGNORECASE,
)
_CACHE_METHODS = frozenset({"get", "put", "setdefault"})


def _receiver_is_cacheish(node: ast.expr) -> bool:
    """Whether the receiver's final name segment looks like a cache/memo."""
    if isinstance(node, ast.Attribute):
        return bool(_CACHEISH.search(node.attr))
    if isinstance(node, ast.Name):
        return bool(_CACHEISH.search(node.id))
    return False


def _identifiers(expr: ast.expr) -> Iterator[str]:
    for node in ast.walk(expr):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute):
                yield func.attr
            elif isinstance(func, ast.Name):
                yield func.id


def _key_violation(key: ast.expr) -> str | None:
    """The offending table-like identifier, or ``None`` when the key is fine."""
    table_ref: str | None = None
    for ident in _identifiers(key):
        if _MARKER.search(ident):
            return None
        if table_ref is None and _TABLEISH.match(ident):
            table_ref = ident
    return table_ref


class CacheKeyRule:
    code = "APX002"

    def check(self, sf: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(sf.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(sf, node)
            elif isinstance(node, ast.Subscript):
                yield from self._check_subscript(sf, node)

    def _check_call(self, sf: SourceFile, call: ast.Call) -> Iterator[Finding]:
        func = call.func
        if not (
            isinstance(func, ast.Attribute)
            and func.attr in _CACHE_METHODS
            and _receiver_is_cacheish(func.value)
            and call.args
        ):
            return
        yield from self._report(sf, call.args[0], func.value, call.lineno, call.col_offset)

    def _check_subscript(self, sf: SourceFile, sub: ast.Subscript) -> Iterator[Finding]:
        if not _receiver_is_cacheish(sub.value):
            return
        yield from self._report(sf, sub.slice, sub.value, sub.lineno, sub.col_offset)

    def _report(
        self,
        sf: SourceFile,
        key: ast.expr,
        receiver: ast.expr,
        lineno: int,
        col: int,
    ) -> Iterator[Finding]:
        offender = _key_violation(key)
        if offender is None:
            return
        cache_name = dotted_name(receiver)
        yield Finding(
            rule=self.code,
            path=sf.path,
            line=lineno,
            col=col,
            message=(
                f"cache key of {cache_name!r} references table-like object "
                f"{offender!r} without a version token / domain stamp / "
                "cache token -- a mutation could resurrect a stale artifact"
            ),
            context=f"{cache_name}:{offender}",
        )
