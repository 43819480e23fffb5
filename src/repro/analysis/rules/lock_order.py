"""APX003 -- lock-order: the static acquisition graph must stay acyclic.

About twenty ``threading.Lock``/``RLock`` instances live across the codebase
with no enforced acquisition order.  Any two code paths that take two of
them in opposite orders can deadlock under the right interleaving -- the
classic latent bug that only fires at scale.  This rule extracts the
*static lock-acquisition graph* and checks three properties:

1. **acyclicity** -- an edge ``A -> B`` is recorded whenever code acquires
   ``B`` (directly, or transitively through resolvable calls) while holding
   ``A``; a cycle is a potential deadlock and is reported with its witness
   path;
2. **no self-re-entry on a plain Lock** -- a non-reentrant ``Lock`` whose
   holder can reach another acquisition of the *same instance* (``self``
   receiver through ``self.*`` calls) self-deadlocks with certainty;
3. the resulting partial order is **emitted as the canonical lock order**
   into ``docs/consistency.md`` (``python -m repro.analysis
   --emit-lock-order``), so the convention is documented from the code, not
   beside it.

Resolution is deliberately conservative: lock identities are
``module.Class.attr`` (or ``module.name`` for module-level locks), receiver
types come from ``self._attr = ClassName(...)`` / annotated-parameter
assignments in ``__init__``, ``self.method`` dispatches over the statically
known class hierarchy (overrides included), and property reads count as
calls.  Unresolvable receivers contribute no edges (documented
limitation; the runtime watchdog in :mod:`repro.analysis.runtime` covers
the dynamic remainder).  Non-blocking ``acquire(blocking=False)`` sites are
inventoried but add no edges -- a trylock cannot participate in a deadlock.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.rules.common import SourceFile, iter_functions

__all__ = ["LockOrderRule", "LockGraph", "build_lock_graph"]


@dataclass(frozen=True)
class LockDecl:
    """One declared lock: ``module.Class.attr`` or ``module.name``."""

    lock_id: str
    kind: str  # "Lock" | "RLock"
    path: str
    line: int


@dataclass(frozen=True)
class LockEdge:
    """``held -> acquired``, witnessed by one function."""

    held: str
    acquired: str
    witness: str  # "module.Class.method" of the holding function
    path: str
    line: int
    same_instance: bool  # both ends reached through `self` on one object


@dataclass
class LockGraph:
    decls: dict[str, LockDecl] = field(default_factory=dict)
    edges: list[LockEdge] = field(default_factory=list)
    #: acquisition sites that add no edges (trylocks), for the inventory
    nonblocking_sites: list[tuple[str, str, int]] = field(default_factory=list)

    def edge_pairs(self) -> set[tuple[str, str]]:
        return {(e.held, e.acquired) for e in self.edges}

    def cycles(self) -> list[list[str]]:
        """Elementary cycles among lock ids (deduplicated by node set)."""
        adjacency: dict[str, set[str]] = {}
        for held, acquired in self.edge_pairs():
            if held != acquired:
                adjacency.setdefault(held, set()).add(acquired)
        cycles: list[list[str]] = []
        seen: set[frozenset[str]] = set()

        def dfs(start: str, node: str, path: list[str], visited: set[str]) -> None:
            for nxt in sorted(adjacency.get(node, ())):
                if nxt == start and len(path) > 1:
                    key = frozenset(path)
                    if key not in seen:
                        seen.add(key)
                        cycles.append(list(path))
                elif nxt not in visited and nxt >= start:
                    visited.add(nxt)
                    dfs(start, nxt, path + [nxt], visited)
                    visited.discard(nxt)

        for start in sorted(adjacency):
            dfs(start, start, [start], {start})
        return cycles

    def canonical_order(self) -> list[str]:
        """Deterministic topological order of the acquisition graph.

        Locks that appear in edges come first (holders before held-while
        targets); isolated locks follow, sorted by id.  Cycle members are
        appended in sorted order at the end (the cycle itself is a
        finding).
        """
        pairs = {(a, b) for a, b in self.edge_pairs() if a != b}
        nodes = sorted({n for pair in pairs for n in pair})
        indegree = {n: 0 for n in nodes}
        for _, b in pairs:
            indegree[b] += 1
        order: list[str] = []
        ready = sorted(n for n in nodes if indegree[n] == 0)
        pairs_left = set(pairs)
        while ready:
            node = ready.pop(0)
            order.append(node)
            for a, b in sorted(pairs_left):
                if a == node:
                    pairs_left.discard((a, b))
                    indegree[b] -= 1
                    if indegree[b] == 0 and b not in ready and b not in order:
                        ready.append(b)
            ready.sort()
        order.extend(n for n in nodes if n not in order)  # cycle members
        order.extend(sorted(set(self.decls) - set(order)))
        return order


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------


def _module_name(path: str) -> str:
    """``src/repro/core/lru.py`` -> ``repro.core.lru``."""
    trimmed = path
    if trimmed.startswith("src/"):
        trimmed = trimmed[4:]
    if trimmed.endswith(".py"):
        trimmed = trimmed[:-3]
    if trimmed.endswith("/__init__"):
        trimmed = trimmed[: -len("/__init__")]
    return trimmed.replace("/", ".")


def _lock_kind(node: ast.expr) -> str | None:
    """``"Lock"``/``"RLock"`` when ``node`` constructs or names a lock type."""
    if isinstance(node, ast.Call):
        func = node.func
        name = (
            func.attr
            if isinstance(func, ast.Attribute)
            else func.id
            if isinstance(func, ast.Name)
            else ""
        )
        if name in ("Lock", "RLock"):
            return name
        # dataclasses.field(default_factory=threading.Lock)
        for kw in node.keywords:
            if kw.arg == "default_factory":
                inner = _lock_kind_of_factory(kw.value)
                if inner:
                    return inner
    return None


def _lock_kind_of_factory(node: ast.expr) -> str | None:
    if isinstance(node, ast.Attribute) and node.attr in ("Lock", "RLock"):
        return node.attr
    if isinstance(node, ast.Name) and node.id in ("Lock", "RLock"):
        return node.id
    return None


def _annotation_names(node: ast.expr | None) -> list[str]:
    if node is None:
        return []
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return []
    names: list[str] = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.append(sub.attr)
    return names


@dataclass
class _FunctionInfo:
    qualname: str  # module.Class.method
    cls: str | None
    module: str
    path: str
    fn: ast.AST
    #: locks acquired directly: (lock_id, receiver_is_self, blocking, line)
    direct: list[tuple[str, bool, bool, int]] = field(default_factory=list)
    #: calls made while holding locks: (held_stack, callee descriptor, line)
    held_calls: list[tuple[tuple[tuple[str, bool], ...], "_Callee", int]] = field(
        default_factory=list
    )
    #: nested with-acquisitions: (held_stack, (lock_id, self?), line)
    held_acquires: list[
        tuple[tuple[tuple[str, bool], ...], tuple[str, bool], int]
    ] = field(default_factory=list)
    #: every resolvable call/property-read, held or not (fixpoint input)
    calls: list["_Callee"] = field(default_factory=list)


@dataclass(frozen=True)
class _Callee:
    """A call (or property read) to resolve later."""

    kind: str  # "self" | "attr" | "name" | "super"
    method: str  # method/property/function name
    attr: str = ""  # for kind == "attr": the receiver attribute on self


class _Corpus:
    """Everything extracted in one pass over all files."""

    def __init__(self) -> None:
        self.decls: dict[str, LockDecl] = {}
        #: class name -> {lock attr -> lock_id}
        self.class_locks: dict[str, dict[str, str]] = {}
        #: module -> {name -> lock_id} (module-level locks)
        self.module_locks: dict[str, dict[str, str]] = {}
        #: class -> base class names
        self.bases: dict[str, list[str]] = {}
        #: class -> {attr -> inferred class name}
        self.attr_types: dict[str, dict[str, str]] = {}
        #: class -> set of @property names
        self.properties: dict[str, set[str]] = {}
        #: method name -> [(class, qualname)]
        self.methods_by_name: dict[str, list[tuple[str, str]]] = {}
        #: (module, name) -> qualname for module-level functions
        self.module_functions: dict[tuple[str, str], str] = {}
        #: qualname -> _FunctionInfo
        self.functions: dict[str, _FunctionInfo] = {}
        #: class name -> module
        self.class_module: dict[str, str] = {}

    def subclasses(self, cls: str) -> set[str]:
        out = {cls}
        changed = True
        while changed:
            changed = False
            for sub, bases in self.bases.items():
                if sub not in out and any(b in out for b in bases):
                    out.add(sub)
                    changed = True
        return out

    def superclasses(self, cls: str) -> set[str]:
        out = {cls}
        frontier = [cls]
        while frontier:
            current = frontier.pop()
            for base in self.bases.get(current, []):
                if base not in out:
                    out.add(base)
                    frontier.append(base)
        return out

    def hierarchy(self, cls: str) -> set[str]:
        return self.subclasses(cls) | self.superclasses(cls)

    def lock_for_attr(self, cls: str | None, attr: str) -> str | None:
        """Resolve ``self.<attr>`` (searching the class hierarchy) or any
        unique class declaring ``attr`` for foreign receivers."""
        if cls is not None:
            for candidate in sorted(self.hierarchy(cls)):
                lock = self.class_locks.get(candidate, {}).get(attr)
                if lock is not None:
                    return lock
        owners = [
            locks[attr]
            for locks in self.class_locks.values()
            if attr in locks
        ]
        if len(set(owners)) == 1:
            return owners[0]
        return None


def _extract(files: list[SourceFile]) -> _Corpus:
    corpus = _Corpus()
    for sf in files:
        module = _module_name(sf.path)
        _extract_module(corpus, sf, module)
    return corpus


def _extract_module(corpus: _Corpus, sf: SourceFile, module: str) -> None:
    # Module-level locks and functions.
    for node in sf.tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            kind = _lock_kind(node.value)
            if kind and isinstance(target, ast.Name):
                lock_id = f"{module}.{target.id}"
                corpus.decls[lock_id] = LockDecl(lock_id, kind, sf.path, node.lineno)
                corpus.module_locks.setdefault(module, {})[target.id] = lock_id
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            corpus.module_functions[(module, node.name)] = f"{module}.{node.name}"
        elif isinstance(node, ast.ClassDef):
            _extract_class(corpus, sf, module, node)

    # Function bodies (methods and module functions alike).
    for qualname, fn, cls in iter_functions(sf.tree):
        info = _FunctionInfo(
            qualname=f"{module}.{qualname}", cls=cls, module=module, path=sf.path, fn=fn
        )
        _extract_function_body(corpus, info, fn, cls, module)
        corpus.functions[info.qualname] = info
        method_name = qualname.rsplit(".", 1)[-1]
        if cls is not None:
            corpus.methods_by_name.setdefault(method_name, []).append(
                (cls, info.qualname)
            )


def _extract_class(corpus: _Corpus, sf: SourceFile, module: str, node: ast.ClassDef) -> None:
    cls = node.name
    corpus.class_module[cls] = module
    corpus.bases[cls] = [
        b.id if isinstance(b, ast.Name) else b.attr if isinstance(b, ast.Attribute) else ""
        for b in node.bases
    ]
    # Class-body lock declarations (dataclass fields).
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            names = _annotation_names(stmt.annotation)
            if "Lock" in names or "RLock" in names:
                kind = "RLock" if "RLock" in names else "Lock"
                lock_id = f"{module}.{cls}.{stmt.target.id}"
                corpus.decls[lock_id] = LockDecl(lock_id, kind, sf.path, stmt.lineno)
                corpus.class_locks.setdefault(cls, {})[stmt.target.id] = lock_id
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if any(
                (isinstance(d, ast.Name) and d.id == "property")
                or (isinstance(d, ast.Attribute) and d.attr in ("property", "cached_property"))
                for d in stmt.decorator_list
            ):
                corpus.properties.setdefault(cls, set()).add(stmt.name)
            _extract_init_facts(corpus, sf, module, cls, stmt)


def _extract_init_facts(corpus, sf, module, cls, fn) -> None:
    """``self._x = Lock()`` declarations and ``self._x = <Type>`` inference."""
    param_types: dict[str, str] = {}
    args = list(fn.args.posonlyargs) + list(fn.args.args) + list(fn.args.kwonlyargs)
    for arg in args:
        names = [n for n in _annotation_names(arg.annotation) if n[:1].isupper()]
        if len(names) == 1:
            param_types[arg.arg] = names[0]
        elif names:
            non_none = [n for n in names if n not in ("None", "Optional", "Union")]
            if len(non_none) == 1:
                param_types[arg.arg] = non_none[0]
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            target = node.target
        else:
            continue
        if not (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            continue
        attr = target.attr
        kind = _lock_kind(node.value)
        if kind:
            lock_id = f"{module}.{cls}.{attr}"
            corpus.decls[lock_id] = LockDecl(lock_id, kind, sf.path, node.lineno)
            corpus.class_locks.setdefault(cls, {})[attr] = lock_id
            continue
        if isinstance(node.value, ast.Call):
            func = node.value.func
            name = (
                func.id
                if isinstance(func, ast.Name)
                else func.attr
                if isinstance(func, ast.Attribute)
                else ""
            )
            if name[:1].isupper():
                corpus.attr_types.setdefault(cls, {})[attr] = name
        elif isinstance(node.value, ast.Name) and node.value.id in param_types:
            corpus.attr_types.setdefault(cls, {})[attr] = param_types[node.value.id]


def _lock_of_expr(
    corpus: _Corpus, expr: ast.expr, cls: str | None, module: str
) -> tuple[str, bool] | None:
    """Resolve a with-item / acquire receiver to ``(lock_id, is_self)``."""
    if isinstance(expr, ast.Attribute):
        if isinstance(expr.value, ast.Name) and expr.value.id == "self":
            lock = corpus.lock_for_attr(cls, expr.attr)
            return (lock, True) if lock else None
        # foreign receiver: `handle.run_lock` -- unique attr name wins
        lock = corpus.lock_for_attr(None, expr.attr)
        return (lock, False) if lock else None
    if isinstance(expr, ast.Name):
        lock = corpus.module_locks.get(module, {}).get(expr.id)
        return (lock, False) if lock else None
    return None


def _is_nonblocking_acquire(call: ast.Call) -> bool:
    for kw in call.keywords:
        if kw.arg == "blocking" and isinstance(kw.value, ast.Constant):
            return kw.value.value is False
    if call.args and isinstance(call.args[0], ast.Constant):
        return call.args[0].value is False
    return False


def _extract_function_body(corpus, info: _FunctionInfo, fn, cls, module) -> None:
    """Collect acquisitions, nested acquisitions and held-calls of one body."""

    def walk(stmts, held: tuple[tuple[str, bool], ...]) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            new_held = held
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    resolved = _lock_of_expr(
                        corpus, item.context_expr, cls, module
                    )
                    if resolved is not None:
                        info.direct.append(
                            (resolved[0], resolved[1], True, stmt.lineno)
                        )
                        if new_held:
                            info.held_acquires.append(
                                (new_held, resolved, stmt.lineno)
                            )
                        new_held = new_held + (resolved,)
                    else:
                        _scan_expr(item.context_expr, new_held, stmt.lineno)
                walk(stmt.body, new_held)
                continue
            # .acquire() calls and plain statements: scan expressions.
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    func = node.func
                    if isinstance(func, ast.Attribute) and func.attr == "acquire":
                        resolved = _lock_of_expr(corpus, func.value, cls, module)
                        if resolved is not None:
                            blocking = not _is_nonblocking_acquire(node)
                            info.direct.append(
                                (resolved[0], resolved[1], blocking, node.lineno)
                            )
                            if held and blocking:
                                info.held_acquires.append(
                                    (held, resolved, node.lineno)
                                )
                            continue
            _scan_stmt_calls(stmt, held)
            # recurse into compound statements, preserving the held stack
            for attr_name in ("body", "orelse", "finalbody"):
                sub = getattr(stmt, attr_name, None)
                if isinstance(sub, list) and sub and isinstance(sub[0], ast.stmt):
                    walk(sub, held)
            for handler in getattr(stmt, "handlers", []):
                walk(handler.body, held)

    def _scan_stmt_calls(stmt: ast.stmt, held) -> None:
        # Do not descend into nested statement lists: those are walked with
        # their own held stacks.
        for node in ast.iter_child_nodes(stmt):
            if isinstance(node, ast.stmt):
                continue
            _scan_expr(node, held, stmt.lineno)

    def _scan_expr(node: ast.AST, held, lineno: int) -> None:
        for sub in ast.walk(node):
            callee = _callee_of(sub)
            if callee is not None:
                info.calls.append(callee)
                if held:
                    info.held_calls.append((held, callee, lineno))

    def _callee_of(node: ast.AST) -> _Callee | None:
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                return _Callee("name", func.id)
            if isinstance(func, ast.Attribute):
                value = func.value
                if isinstance(value, ast.Name) and value.id == "self":
                    return _Callee("self", func.attr)
                if (
                    isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Name)
                    and value.func.id == "super"
                ):
                    return _Callee("super", func.attr)
                if (
                    isinstance(value, ast.Attribute)
                    and isinstance(value.value, ast.Name)
                    and value.value.id == "self"
                ):
                    return _Callee("attr", func.attr, attr=value.attr)
        elif isinstance(node, ast.Attribute) and not isinstance(
            getattr(node, "ctx", None), ast.Store
        ):
            # property read: self.remaining / self._book.remaining
            value = node.value
            if isinstance(value, ast.Name) and value.id == "self":
                return _Callee("self", node.attr)
            if (
                isinstance(value, ast.Attribute)
                and isinstance(value.value, ast.Name)
                and value.value.id == "self"
            ):
                return _Callee("attr", node.attr, attr=value.attr)
        return None

    walk(list(fn.body), ())


# ---------------------------------------------------------------------------
# call resolution and transitive acquisition
# ---------------------------------------------------------------------------


def _resolve_callee(
    corpus: _Corpus, info: _FunctionInfo, callee: _Callee
) -> tuple[list[str], bool]:
    """Resolve to function qualnames; second value: same-instance call."""
    if callee.kind == "name":
        qual = corpus.module_functions.get((info.module, callee.method))
        return ([qual] if qual else []), False
    if callee.kind in ("self", "super"):
        if info.cls is None:
            return [], False
        classes = (
            corpus.superclasses(info.cls) - {info.cls}
            if callee.kind == "super"
            else corpus.hierarchy(info.cls)
        )
        quals = [
            qual
            for cls, qual in corpus.methods_by_name.get(callee.method, [])
            if cls in classes
        ]
        return quals, True
    if callee.kind == "attr":
        if info.cls is None:
            return [], False
        target_cls = None
        for candidate in sorted(corpus.hierarchy(info.cls)):
            target_cls = corpus.attr_types.get(candidate, {}).get(callee.attr)
            if target_cls:
                break
        if not target_cls:
            return [], False
        classes = corpus.subclasses(target_cls)
        quals = [
            qual
            for cls, qual in corpus.methods_by_name.get(callee.method, [])
            if cls in classes
        ]
        return quals, False
    return [], False


def _transitive_acquires(corpus: _Corpus) -> dict[str, set[tuple[str, bool]]]:
    """qualname -> {(lock_id, same_instance_via_self)} to a fixpoint."""
    acquires: dict[str, set[tuple[str, bool]]] = {}
    for qual, info in corpus.functions.items():
        acquires[qual] = {
            (lock, is_self)
            for lock, is_self, blocking, _line in info.direct
            if blocking
        }
    changed = True
    iterations = 0
    while changed and iterations < 50:
        changed = False
        iterations += 1
        for qual, info in corpus.functions.items():
            current = acquires[qual]
            for callee in info.calls:
                quals, same_instance = _resolve_callee(corpus, info, callee)
                for target in quals:
                    for lock, via_self in acquires.get(target, ()):
                        entry = (lock, via_self and same_instance)
                        if entry not in current:
                            current.add(entry)
                            changed = True
    return acquires


def build_lock_graph(files: list[SourceFile]) -> LockGraph:
    """Extract the full static lock graph of the analyzed corpus."""
    corpus = _Corpus()
    for sf in files:
        _extract_module(corpus, sf, _module_name(sf.path))
    acquires = _transitive_acquires(corpus)

    graph = LockGraph(decls=dict(corpus.decls))
    for qual, info in corpus.functions.items():
        for lock, is_self, blocking, line in info.direct:
            if not blocking:
                graph.nonblocking_sites.append((lock, info.path, line))
        for held_stack, (lock, is_self), line in info.held_acquires:
            for held_lock, held_self in held_stack:
                graph.edges.append(
                    LockEdge(
                        held=held_lock,
                        acquired=lock,
                        witness=qual,
                        path=info.path,
                        line=line,
                        same_instance=held_self and is_self,
                    )
                )
        for held_stack, callee, line in info.held_calls:
            quals, same_instance = _resolve_callee(corpus, info, callee)
            for target in quals:
                for lock, via_self in acquires.get(target, ()):
                    for held_lock, held_self in held_stack:
                        graph.edges.append(
                            LockEdge(
                                held=held_lock,
                                acquired=lock,
                                witness=f"{qual} -> {target}",
                                path=info.path,
                                line=line,
                                same_instance=(
                                    held_self and via_self and same_instance
                                ),
                            )
                        )
    return graph


# ---------------------------------------------------------------------------
# the rule
# ---------------------------------------------------------------------------


class LockOrderRule:
    code = "APX003"

    def check_project(
        self, files: list[SourceFile], root: str
    ) -> Iterator[Finding]:
        graph = build_lock_graph(files)

        # 1. cycles across distinct locks
        for cycle in graph.cycles():
            witnesses = [
                e
                for e in graph.edges
                if e.held in cycle and e.acquired in cycle and e.held != e.acquired
            ]
            anchor = min(witnesses, key=lambda e: (e.path, e.line), default=None)
            path = anchor.path if anchor else files[0].path
            line = anchor.line if anchor else 1
            loop = " -> ".join(cycle + [cycle[0]])
            yield Finding(
                rule=self.code,
                path=path,
                line=line,
                col=0,
                message=(
                    f"lock acquisition cycle {loop}: two paths can take these "
                    "locks in opposite orders and deadlock "
                    f"(witnesses: {', '.join(sorted({e.witness for e in witnesses})[:4])})"
                ),
                context=f"cycle:{'|'.join(sorted(set(cycle)))}",
            )

        # 2. same-instance re-entry on a non-reentrant Lock
        reported: set[tuple[str, str]] = set()
        for edge in graph.edges:
            if not (edge.held == edge.acquired and edge.same_instance):
                continue
            decl = graph.decls.get(edge.held)
            if decl is None or (edge.held, edge.witness) in reported:
                continue
            if decl.kind == "Lock":
                reported.add((edge.held, edge.witness))
                yield Finding(
                    rule=self.code,
                    path=edge.path,
                    line=edge.line,
                    col=0,
                    message=(
                        f"non-reentrant Lock {edge.held} can be re-acquired by "
                        f"its holder via {edge.witness} -- guaranteed "
                        "self-deadlock; use RLock or restructure"
                    ),
                    context=f"reentry:{edge.held}|{edge.witness}",
                )
