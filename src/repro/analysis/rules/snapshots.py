"""APX005 -- snapshot discipline: read paths admit tables via ``snapshot()``.

PR 4's wait-free read contract (``docs/consistency.md``) holds only if every
mechanism/engine read path pins a :class:`~repro.data.table.TableSnapshot`
*before* touching data: a raw :class:`~repro.data.table.Table` reference
observed mid-``append_rows`` can tear (mask evaluated at version N, counts
at N+1), and artifacts derived from it are cached under a token that no
longer describes what was read.

Scope: ``src/repro/mechanisms/`` and ``src/repro/core/engine.py`` -- the
modules whose functions receive raw tables and answer queries over them.

The rule tracks *raw-table names* inside each function:

* parameters named ``table``/``tbl`` or annotated ``Table``;
* ``self._table`` attribute chains.

A raw-table name is *sanitised* the moment it is rebound through snapshot
admission (``table = table.snapshot()``); from that line on it is trusted.
Until then, only this surface is allowed on it:

* ``.snapshot()`` / ``.open_snapshot()`` admission calls;
* data-independent metadata: ``.version_token``, ``.schema``;
* identity/introspection builtins (``isinstance``, ``len`` is *not* exempt
  -- row counts are data).

Anything else -- passing the raw name into a call (``query.true_counts(
table)``), touching columns, or calling mutators -- is a finding.
Parameters named/annotated as snapshots are trusted by declaration; that is
the explicit annotation this rule asks read-path helpers to carry.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.rules.common import SourceFile, iter_functions

__all__ = ["SnapshotDisciplineRule"]

#: Modules this rule applies to (repo-relative path prefixes / exact files).
_SCOPE_PREFIXES = ("src/repro/mechanisms/",)
_SCOPE_FILES = ("src/repro/core/engine.py",)

_RAW_PARAM = re.compile(r"^(table|tbl)s?$", re.IGNORECASE)
_SNAP_PARAM = re.compile(r"^(snap|snapshot)s?$", re.IGNORECASE)

#: Attribute surface allowed on a raw table before snapshot admission.
_ALLOWED_ATTRS = frozenset(
    {
        "snapshot",
        "open_snapshot",
        "version_token",
        "schema",
    }
)
_SAFE_CALLS = frozenset({"isinstance", "id", "repr", "type"})


def _annotation_name(node: ast.expr | None) -> str:
    if node is None:
        return ""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.split(".")[-1]
    if isinstance(node, ast.BinOp):  # e.g. ``Table | None``
        return _annotation_name(node.left) or _annotation_name(node.right)
    if isinstance(node, ast.Subscript):  # e.g. ``Optional[Table]``
        return _annotation_name(node.slice)
    return ""


class SnapshotDisciplineRule:
    code = "APX005"

    def applies_to(self, path: str) -> bool:
        return path in _SCOPE_FILES or any(
            path.startswith(prefix) for prefix in _SCOPE_PREFIXES
        )

    def check(self, sf: SourceFile) -> Iterator[Finding]:
        if not self.applies_to(sf.path):
            return
        for qualname, fn, _cls in iter_functions(sf.tree):
            yield from self._check_function(sf, qualname, fn)

    def _raw_names(self, fn) -> set[str]:
        """Parameter names bound to raw (un-admitted) tables."""
        raw: set[str] = set()
        args = list(fn.args.posonlyargs) + list(fn.args.args) + list(fn.args.kwonlyargs)
        for arg in args:
            ann = _annotation_name(arg.annotation)
            if _SNAP_PARAM.match(arg.arg) or ann == "TableSnapshot":
                continue
            if _RAW_PARAM.match(arg.arg) or ann == "Table":
                raw.add(arg.arg)
        return raw

    def _check_function(self, sf, qualname, fn) -> Iterator[Finding]:
        raw = self._raw_names(fn)
        if not raw and not self._touches_self_table(fn):
            return
        sanitised_after: dict[str, tuple[int, int]] = {}
        # First pass: find `name = name.snapshot()` admissions.
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Attribute)
                and node.value.func.attr in ("snapshot", "open_snapshot")
            ):
                target = node.targets[0].id
                sanitised_after[target] = (node.lineno, node.col_offset)

        def is_sanitised(name: str, node: ast.AST) -> bool:
            mark = sanitised_after.get(name)
            return mark is not None and (node.lineno, node.col_offset) > mark

        parent: dict[int, ast.AST] = {}
        for node in ast.walk(fn):
            for child in ast.iter_child_nodes(node):
                parent[id(child)] = node

        for node in ast.walk(fn):
            target: str | None = None
            if isinstance(node, ast.Name) and node.id in raw:
                if is_sanitised(node.id, node):
                    continue
                target = node.id
            elif (
                isinstance(node, ast.Attribute)
                and node.attr == "_table"
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                target = "self._table"
            if target is None:
                continue
            finding = self._check_use(sf, qualname, fn, node, target, parent)
            if finding is not None:
                yield finding

    @staticmethod
    def _touches_self_table(fn) -> bool:
        return any(
            isinstance(n, ast.Attribute) and n.attr == "_table"
            for n in ast.walk(fn)
        )

    def _check_use(self, sf, qualname, fn, node, target, parent):
        """Classify one raw-table use; a Finding when it breaks discipline."""
        up = parent.get(id(node))
        # Attribute access: allowed metadata surface only.
        if isinstance(up, ast.Attribute) and up.value is node:
            if up.attr in _ALLOWED_ATTRS:
                return None
            return self._finding(
                sf, qualname, node,
                f"raw table {target!r} accesses {up.attr!r} outside snapshot "
                f"admission (allowed before snapshot(): {sorted(_ALLOWED_ATTRS)})",
                f"{qualname}:{target}.{up.attr}",
            )
        # Assignment contexts: storing/receiving the reference is fine.
        if isinstance(up, (ast.Assign, ast.AnnAssign)) or isinstance(
            node.ctx if hasattr(node, "ctx") else None, ast.Store
        ):
            return None
        # Call argument: leaking the raw table into evaluation.
        if isinstance(up, ast.Call) and node in list(up.args) + [
            kw.value for kw in up.keywords
        ]:
            callee = up.func
            callee_name = (
                callee.id
                if isinstance(callee, ast.Name)
                else callee.attr
                if isinstance(callee, ast.Attribute)
                else ""
            )
            if callee_name in _SAFE_CALLS:
                return None
            return self._finding(
                sf, qualname, node,
                f"raw table {target!r} is passed to {callee_name or 'a call'}() "
                "before snapshot admission -- evaluate over table.snapshot() "
                "(or declare the parameter a TableSnapshot)",
                f"{qualname}:{target}->{callee_name}",
            )
        if isinstance(up, ast.Compare):
            return None  # identity / equality comparisons reveal no data
        return None

    def _finding(self, sf, qualname, node, message, context) -> Finding:
        return Finding(
            rule=self.code,
            path=sf.path,
            line=node.lineno,
            col=node.col_offset,
            message=message,
            context=context,
        )
