"""Concurrency-safety analysis: the SKL2xx rule pack.

The serving tier shares sketch state across threads: ingest shards own
``SketchTree`` mutation, a query tier reads estimates concurrently, and
the metrics registry is mutated from every thread that touches it.  This
phase proves (under-approximately) that the shared state is guarded.

The analysis runs in four steps, reusing :class:`ProjectModel` and the
under-approximate :class:`CallGraph`:

1. **Entrypoint groups.**  A small config (:data:`DEFAULT_CONFIG`)
   declares the functions each kind of thread enters — ingest, query,
   admin (merge / snapshot), metrics, lint workers — and whether a group
   runs *in parallel with itself*.  Reachability from each group's
   entrypoints assigns every function a set of groups.

2. **Shared mutable state.**  Every method body is scanned for accesses
   to ``self`` attributes (including through local aliases such as
   ``cache = self._cache``): plain assignments, augmented assignments,
   subscript stores, mutating method calls (``append``, ``setdefault``,
   ``move_to_end``, ``heapq.heappush(self._heap, ...)``), deletions, and
   probing reads (``.get``, ``in``, subscript loads).  An attribute is
   *hazardous* when it is written outside ``__init__`` by a function
   reachable from an entrypoint, and either two or more groups touch it
   or a self-parallel group does.

3. **Guarded-by.**  ``with self._lock:`` scopes (and lock-typed module
   globals) mark accesses as guarded; a trailing
   ``# sketchlint: guarded-by=<attr>`` comment on a statement or ``def``
   line asserts the caller holds the lock.  Classes declare a threading
   contract with a trailing comment on the ``class`` line:

   * ``# sketchlint: thread-safe`` — every hazardous access must be
     guarded; SKL201/202/203 are enforced.
   * ``# sketchlint: single-writer`` — one thread owns mutation;
     concurrent reads are tolerated by design (documented in
     docs/concurrency.md).  SKL201/202/203 are waived, SKL205 stays.
   * ``# sketchlint: thread-confined`` — instances never cross threads;
     all SKL2xx rules are waived.

   An *undeclared* class with hazardous attributes gets the full rule
   set — forcing every shared class to either lock up or declare why
   it need not.

4. **Rules.**

   * **SKL201** — unguarded shared-state write reachable from a
     concurrent entrypoint.
   * **SKL202** — non-atomic check-then-act / read-modify-write: an
     unguarded augmented assignment, or a probe + write pair on the
     same attribute that never shares a lock scope (the encoder LRU's
     get-miss-insert and ``cache_hits += 1`` are the canonical cases).
   * **SKL203** — a thread-safe class returns a mutable container
     attribute by reference instead of a copy/view.
   * **SKL204** — inconsistent lock-acquisition order: the lock graph
     (lexically nested ``with`` acquires plus calls made under a lock,
     closed over the call graph) contains a cycle, or a non-reentrant
     lock may be re-acquired while held.
   * **SKL205** — an ``np.random.Generator`` attribute consumed from
     multiple entrypoint groups (or a self-parallel one) without a
     guard, which silently breaks config-seeded determinism.

Like the rest of the semantic phase this is deliberately
under-approximate: writes through non-``self`` objects, callbacks bound
as lambdas, and guards the scanner cannot see are invisible.  The
annotations exist precisely to record the invariants the analysis
cannot derive.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from fnmatch import fnmatchcase

from tools.sketchlint.semantic.callgraph import CallGraph
from tools.sketchlint.semantic.model import (
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    ProjectModel,
    dotted_name,
)
from tools.sketchlint.violations import Violation

# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class EntrypointGroup:
    """Functions one kind of thread enters, matched by qualname glob.

    ``parallel`` means multiple threads may run this group's entrypoints
    simultaneously (so the group conflicts even with itself).
    """

    name: str
    patterns: tuple[str, ...]
    parallel: bool = False


@dataclass(frozen=True)
class ConcurrencyConfig:
    """The declared concurrency model of the project."""

    groups: tuple[EntrypointGroup, ...]


#: The serving-tier threading model (see docs/concurrency.md): each
#: ingest shard is single-threaded over its own SketchTree; queries and
#: admin operations (merge, snapshot) run concurrently; metrics are
#: mutated from every thread; sketchlint's own --jobs workers fan out.
DEFAULT_CONFIG = ConcurrencyConfig(
    groups=(
        EntrypointGroup(
            "ingest",
            (
                "repro.core.sketchtree.SketchTree.update",
                "repro.core.sketchtree.SketchTree.update_batch",
                "repro.core.sketchtree.SketchTree.update_from_patterns",
                "repro.core.sketchtree.SketchTree.delete_tree",
                "repro.core.sketchtree.SketchTree.ingest*",
                "repro.stream.engine.StreamProcessor.run",
                "repro.stream.engine.StreamProcessor.resume",
                # Each serving shard's drain loop is the single writer of
                # its own synopsis — the same thread kind as `ingest`.
                "repro.serve.shards.IngestShard._drain_loop",
                # The windowed consumer's stream side rides the same
                # single-writer thread (the drain loop feeds it).
                "repro.core.window.WindowedSketchTree.update",
                "repro.core.window.WindowedSketchTree.update_batch",
                "repro.core.window.WindowedSketchTree.ingest",
                # Corpus readers feed the single ingest thread: the tree
                # stream is consumed by StreamProcessor.run on that thread.
                "repro.corpora.reader.CorpusReader.itertrees",
                "repro.corpora.reader.CorpusReader.trees",
                "repro.corpora.ptb.iter_parse_ptb",
                "repro.corpora.export.iter_parse_export",
                "repro.corpora.dblp.iter_dblp_trees",
            ),
            parallel=False,
        ),
        EntrypointGroup(
            "query",
            (
                # Synopses and windows inherit estimate_* and tracked*
                # from Queries, which reads their view(); CounterView
                # holds the estimator and tracked-state bodies.
                "repro.core.view.Queries.estimate_*",
                "repro.core.view.Queries.tracked*",
                "repro.core.view.CounterView.*",
                "repro.core.sketchtree.SketchTree.view",
                "repro.core.window.WindowedSketchTree.view",
            ),
            parallel=True,
        ),
        EntrypointGroup(
            "admin",
            (
                "repro.core.sketchtree.SketchTree.merge",
                "repro.core.sketchtree.SketchTree.to_bytes",
                "repro.core.sketchtree.SketchTree.set_metrics",
                "repro.core.window.WindowedSketchTree.merged",
                "repro.core.window.WindowedSketchTree.to_bytes",
                "repro.core.window.WindowedSketchTree.set_metrics",
                "repro.core.snapshot.CheckpointManager.*",
                "repro.stream.engine.StreamProcessor.snapshot_now",
            ),
            parallel=True,
        ),
        EntrypointGroup(
            "metrics",
            ("repro.obs.registry.*", "repro.obs.export.*"),
            parallel=True,
        ),
        EntrypointGroup(
            # The serving tier's HTTP handler threads: every route of the
            # API plus the service facade they call into runs on an
            # arbitrary ThreadingHTTPServer worker, many at once.
            "http-handlers",
            (
                "repro.serve.api.*",
                "repro.serve.service.ShardedService.*",
            ),
            parallel=True,
        ),
        EntrypointGroup(
            # The cross-thread ingress surface of a shard: submit /
            # drain / stop arrive from any handler thread concurrently
            # (the drain loop itself belongs to `ingest` above).
            "shard-ingest",
            (
                "repro.serve.shards.IngestShard.submit",
                "repro.serve.shards.IngestShard.drain",
                "repro.serve.shards.IngestShard.stop",
                "repro.serve.shards.IngestShard.start",
                "repro.serve.shards.IngestShard.error",
            ),
            parallel=True,
        ),
        EntrypointGroup(
            "lint-workers",
            ("tools.sketchlint.engine._lint_worker",),
            parallel=True,
        ),
    )
)

_CONTRACT_RE = re.compile(
    r"#\s*sketchlint:\s*(thread-safe|single-writer|thread-confined)\b"
)
_GUARDED_RE = re.compile(r"#\s*sketchlint:\s*guarded-by=([A-Za-z_]\w*)")

#: Constructors whose result is a lock object.
_LOCK_CTORS = {
    "threading.Lock": False,
    "threading.RLock": True,
    "threading.Condition": False,
}

#: Constructors whose result is a config-seeded random generator.
_RNG_CTORS = frozenset(
    {"numpy.random.default_rng", "repro.hashing.rng.default_generator"}
)

#: Method names that mutate their receiver in place.
_MUTATORS = frozenset(
    {
        "append", "appendleft", "extend", "extendleft", "insert", "add",
        "discard", "remove", "pop", "popleft", "popitem", "clear",
        "update", "setdefault", "move_to_end", "sort", "reverse",
    }
)

#: ``module.fn(container, ...)`` calls that mutate their first argument.
_MUTATING_HELPERS = frozenset(
    {"heapq.heappush", "heapq.heappop", "heapq.heapify", "heapq.heapreplace",
     "heapq.heappushpop", "random.shuffle"}
)

#: Container constructors: an attribute initialised from one of these is
#: treated as a mutable container for SKL203.
_CONTAINER_CTORS = frozenset(
    {
        "dict", "list", "set", "bytearray", "collections.OrderedDict",
        "collections.defaultdict", "collections.deque", "collections.Counter",
    }
)

_CONSTRUCTORS = frozenset({"__init__", "__post_init__", "__new__"})

_WRITE_KINDS = frozenset({"assign", "augassign", "store", "mutcall", "del"})


# ----------------------------------------------------------------------
# Per-function scan
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Access:
    """One access to a shared location inside a function body."""

    attr: str            # attribute name (or module-global name)
    kind: str            # read | probe | assign | augassign | store | mutcall | del
    line: int
    col: int
    locks: frozenset[str]      # lock ids held at the access
    scopes: frozenset[object]  # acquisition scopes (for same-scope pairing)

    @property
    def is_write(self) -> bool:
        return self.kind in _WRITE_KINDS


@dataclass(frozen=True)
class Acquire:
    """One real ``with <lock>:`` acquisition (annotations excluded)."""

    lock: str
    line: int
    end_line: int
    held: frozenset[str]  # lock ids already held lexically


@dataclass
class FunctionScan:
    """Everything the concurrency phase needs from one function body."""

    fn: FunctionInfo
    accesses: list[Access] = field(default_factory=list)
    global_writes: list[Access] = field(default_factory=list)
    acquires: list[Acquire] = field(default_factory=list)
    #: Locks held over the whole body via a def-line guarded-by comment.
    annotation_locks: frozenset[str] = frozenset()


class _Scanner:
    """Scans one function, tracking held locks and self-attr aliases."""

    def __init__(
        self,
        model: ProjectModel,
        module: ModuleInfo,
        fn: FunctionInfo,
        class_locks: dict[str, bool],
        module_locks: dict[str, bool],
        lines: list[str],
    ) -> None:
        self.model = model
        self.module = module
        self.fn = fn
        self.class_locks = class_locks      # attr name → is_rlock
        self.module_locks = module_locks    # global name → is_rlock
        self.lines = lines
        self.aliases: dict[str, str] = {}   # local name → self attr
        self.lock_aliases: dict[str, str] = {}  # local name → lock id
        self.global_names: set[str] = set()
        self.scan = FunctionScan(fn=fn)

    # -- identifiers ----------------------------------------------------
    def _lock_id_for_attr(self, attr: str) -> str:
        cls = self.fn.cls
        owner = cls.qualname if cls is not None else self.module.name
        return f"{owner}.{attr}"

    def _lock_of(self, expr: ast.expr) -> str | None:
        """Lock id acquired by ``with <expr>:``, if recognisable."""
        if isinstance(expr, ast.Call) and not expr.args and not expr.keywords:
            # ``with self._cond:`` vs ``with self._lock.acquire_timeout()``
            return None
        if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
            if expr.value.id == "self" and expr.attr in self.class_locks:
                return self._lock_id_for_attr(expr.attr)
        if isinstance(expr, ast.Name):
            if expr.id in self.lock_aliases:
                return self.lock_aliases[expr.id]
            if expr.id in self.module_locks:
                return f"{self.module.name}.{expr.id}"
        return None

    def _root_attr(self, expr: ast.expr) -> str | None:
        """Innermost ``self`` attribute an expression chain is rooted at.

        ``self.a``, ``self.a[i]``, ``self.a.b``, ``alias[i]`` (where
        ``alias = self.a``) all root at ``a``.
        """
        node = expr
        attr_on_self: str | None = None
        while True:
            if isinstance(node, ast.Subscript):
                node = node.value
            elif isinstance(node, ast.Attribute):
                attr_on_self = node.attr
                node = node.value
            else:
                break
        if isinstance(node, ast.Name):
            if node.id == "self" and attr_on_self is not None:
                return attr_on_self
            if node.id in self.aliases:
                return self.aliases[node.id]
        return None

    # -- statement annotations ------------------------------------------
    def _stmt_annotation(self, stmt: ast.stmt) -> frozenset[str] | None:
        line = stmt.lineno
        if 1 <= line <= len(self.lines):
            match = _GUARDED_RE.search(self.lines[line - 1])
            if match:
                return frozenset({self._lock_id_for_attr(match.group(1))})
        return None

    # -- entry ----------------------------------------------------------
    def run(self) -> FunctionScan:
        node = self.fn.node
        held: list[tuple[str, object]] = []
        if 1 <= node.lineno <= len(self.lines):
            match = _GUARDED_RE.search(self.lines[node.lineno - 1])
            if match:
                lock = self._lock_id_for_attr(match.group(1))
                self.scan.annotation_locks = frozenset({lock})
                held.append((lock, ("fn-ann", lock)))
        self._visit_body(node.body, held)
        return self.scan

    # -- statement walk -------------------------------------------------
    def _visit_body(self, body: list[ast.stmt], held: list) -> None:
        for stmt in body:
            self._visit_stmt(stmt, held)

    def _visit_stmt(self, stmt: ast.stmt, held: list) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested scopes are out of the under-approximation
        annotation = self._stmt_annotation(stmt)
        if annotation:
            held = held + [(lock, ("stmt-ann", lock)) for lock in annotation
                           if lock not in {entry[0] for entry in held}]
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            inner = list(held)
            for item in stmt.items:
                lock = self._lock_of(item.context_expr)
                if lock is not None:
                    self.scan.acquires.append(
                        Acquire(
                            lock=lock,
                            line=stmt.lineno,
                            end_line=getattr(stmt, "end_lineno", stmt.lineno)
                            or stmt.lineno,
                            held=frozenset(
                                entry[0] for entry in inner
                            ) | self.scan.annotation_locks,
                        )
                    )
                    inner = inner + [(lock, ("with", stmt.lineno, stmt.col_offset))]
                else:
                    self._visit_expr(item.context_expr, held)
            self._visit_body(stmt.body, inner)
            return
        if isinstance(stmt, ast.If) or isinstance(stmt, ast.While):
            self._visit_expr(stmt.test, held)
            self._visit_body(stmt.body, held)
            self._visit_body(stmt.orelse, held)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._visit_expr(stmt.iter, held)
            self._record_write_target(stmt.target, "assign", held)
            self._visit_body(stmt.body, held)
            self._visit_body(stmt.orelse, held)
            return
        if isinstance(stmt, ast.Try):
            self._visit_body(stmt.body, held)
            for handler in stmt.handlers:
                self._visit_body(handler.body, held)
            self._visit_body(stmt.orelse, held)
            self._visit_body(stmt.finalbody, held)
            return
        if isinstance(stmt, ast.Global):
            self.global_names.update(stmt.names)
            return
        self._leaf(stmt, held)

    # -- leaf statements ------------------------------------------------
    def _leaf(self, stmt: ast.stmt, held: list) -> None:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                self._record_write_target(target, "assign", held)
            self._visit_expr(stmt.value, held)
            if len(stmt.targets) == 1:
                self._bind_alias(stmt.targets[0], stmt.value)
        elif isinstance(stmt, ast.AnnAssign):
            self._record_write_target(stmt.target, "assign", held)
            if stmt.value is not None:
                self._visit_expr(stmt.value, held)
                self._bind_alias(stmt.target, stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            self._record_write_target(stmt.target, "augassign", held)
            self._visit_expr(stmt.value, held)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                root = self._root_attr(target)
                if root is not None:
                    self._record(root, "del", target, held)
                elif isinstance(target, ast.Subscript):
                    self._visit_expr(target.value, held)
                if isinstance(target, ast.Subscript):
                    self._visit_expr(target.slice, held)
        elif isinstance(stmt, (ast.Expr, ast.Return, ast.Raise, ast.Assert)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._visit_expr(child, held)
        else:
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._visit_expr(child, held)

    def _bind_alias(self, target: ast.expr, value: ast.expr) -> None:
        if not isinstance(target, ast.Name):
            return
        self.aliases.pop(target.id, None)
        self.lock_aliases.pop(target.id, None)
        if (
            isinstance(value, ast.Attribute)
            and isinstance(value.value, ast.Name)
            and value.value.id == "self"
        ):
            if value.attr in self.class_locks:
                self.lock_aliases[target.id] = self._lock_id_for_attr(value.attr)
            else:
                self.aliases[target.id] = value.attr

    def _record_write_target(self, target: ast.expr, kind: str, held: list) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._record_write_target(element, kind, held)
            return
        if isinstance(target, ast.Starred):
            self._record_write_target(target.value, kind, held)
            return
        if isinstance(target, ast.Name):
            if kind in ("assign", "augassign") and target.id in self.global_names:
                self._record_global(target.id, kind, target, held)
            return
        if isinstance(target, ast.Subscript):
            root = self._root_attr(target)
            if root is not None:
                self._record(root, "augassign" if kind == "augassign" else "store",
                             target, held)
            else:
                self._visit_expr(target.value, held)
            self._visit_expr(target.slice, held)
            return
        if isinstance(target, ast.Attribute):
            root = self._root_attr(target)
            direct = (
                isinstance(target.value, ast.Name) and target.value.id == "self"
            )
            if root is not None:
                # ``self.a = x`` rebinds; ``self.a.b = x`` mutates the
                # object held by ``a`` — record both as writes to ``a``.
                self._record(root, kind if direct else "store", target, held)
            else:
                self._visit_expr(target.value, held)

    # -- expression walk ------------------------------------------------
    def _visit_expr(self, expr: ast.expr, held: list) -> None:
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                self._classify_call(node, held)
            elif isinstance(node, ast.Compare) and any(
                isinstance(op, (ast.In, ast.NotIn)) for op in node.ops
            ):
                for comparator in node.comparators:
                    root = self._root_attr(comparator)
                    if root is not None:
                        self._record(root, "probe", comparator, held)
            elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
                root = self._root_attr(node.value)
                if root is not None:
                    self._record(root, "probe", node, held)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                if isinstance(node.value, ast.Name) and node.value.id == "self":
                    self._record(node.attr, "read", node, held)

    def _classify_call(self, call: ast.Call, held: list) -> None:
        func = call.func
        if isinstance(func, ast.Attribute):
            root = self._root_attr(func.value)
            if root is not None:
                if func.attr in _MUTATORS:
                    self._record(root, "mutcall", call, held)
                    if func.attr in ("setdefault", "pop"):
                        self._record(root, "probe", call, held)
                elif func.attr in ("get", "__contains__"):
                    self._record(root, "probe", call, held)
        name = dotted_name(func)
        if name is not None and call.args:
            resolved = self.model.resolve(self.module, name)
            if resolved in _MUTATING_HELPERS:
                root = self._root_attr(call.args[0])
                if root is not None:
                    self._record(root, "mutcall", call, held)

    # -- recording ------------------------------------------------------
    def _record(self, attr: str, kind: str, node: ast.AST, held: list) -> None:
        self.scan.accesses.append(
            Access(
                attr=attr,
                kind=kind,
                line=getattr(node, "lineno", self.fn.node.lineno),
                col=getattr(node, "col_offset", 0) + 1,
                locks=frozenset(entry[0] for entry in held),
                scopes=frozenset(entry[1] for entry in held),
            )
        )

    def _record_global(self, name: str, kind: str, node: ast.AST, held: list) -> None:
        self.scan.global_writes.append(
            Access(
                attr=name,
                kind=kind,
                line=node.lineno,
                col=node.col_offset + 1,
                locks=frozenset(entry[0] for entry in held),
                scopes=frozenset(entry[1] for entry in held),
            )
        )


# ----------------------------------------------------------------------
# Project-level analysis
# ----------------------------------------------------------------------


def _class_contract(module: ModuleInfo, cls: ClassInfo, lines: list[str]) -> str | None:
    line = cls.node.lineno
    if 1 <= line <= len(lines):
        match = _CONTRACT_RE.search(lines[line - 1])
        if match:
            return match.group(1)
    return None


def _collect_locks(
    model: ProjectModel, module: ModuleInfo
) -> tuple[dict[str, dict[str, bool]], dict[str, bool]]:
    """Lock attributes per class and lock-typed module globals."""
    per_class: dict[str, dict[str, bool]] = {}
    for cls in module.classes.values():
        locks: dict[str, bool] = {}
        for method in cls.methods.values():
            for node in ast.walk(method.node):
                if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
                    continue
                target, value = node.targets[0], node.value
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and isinstance(value, ast.Call)
                ):
                    continue
                name = dotted_name(value.func)
                if name is None:
                    continue
                resolved = model.resolve(module, name)
                if resolved in _LOCK_CTORS:
                    locks[target.attr] = _LOCK_CTORS[resolved]
        per_class[cls.qualname] = locks
    module_locks: dict[str, bool] = {}
    for node in module.tree.body:
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
            continue
        target, value = node.targets[0], node.value
        if not (isinstance(target, ast.Name) and isinstance(value, ast.Call)):
            continue
        name = dotted_name(value.func)
        if name is None:
            continue
        resolved = model.resolve(module, name)
        if resolved in _LOCK_CTORS:
            module_locks[target.id] = _LOCK_CTORS[resolved]
    return per_class, module_locks


def _rng_attrs(model: ProjectModel, module: ModuleInfo, cls: ClassInfo) -> set[str]:
    attrs: set[str] = set()
    for method in cls.methods.values():
        for node in ast.walk(method.node):
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
                continue
            target, value = node.targets[0], node.value
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and isinstance(value, ast.Call)
            ):
                continue
            name = dotted_name(value.func)
            if name is not None and model.resolve(module, name) in _RNG_CTORS:
                attrs.add(target.attr)
    return attrs


def _container_attrs(
    model: ProjectModel,
    module: ModuleInfo,
    cls: ClassInfo,
    scans: dict[str, FunctionScan],
) -> set[str]:
    """Attributes that hold a mutable container."""
    attrs: set[str] = set()
    for method in cls.methods.values():
        scan = scans.get(method.qualname)
        if scan is not None:
            for access in scan.accesses:
                if access.kind in ("store", "mutcall", "del"):
                    attrs.add(access.attr)
        for node in ast.walk(method.node):
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
                continue
            target, value = node.targets[0], node.value
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.ListComp,
                                  ast.DictComp, ast.SetComp)):
                attrs.add(target.attr)
            elif isinstance(value, ast.Call):
                name = dotted_name(value.func)
                if name is not None and model.resolve(module, name) in _CONTAINER_CTORS:
                    attrs.add(target.attr)
    return attrs


def _match_groups(
    model: ProjectModel, graph: CallGraph, config: ConcurrencyConfig
) -> tuple[dict[str, set[str]], dict[str, dict[str, list[str]]], set[str]]:
    """(function → groups, group → reachable chains, self-parallel groups)."""
    group_chains: dict[str, dict[str, list[str]]] = {}
    for group in config.groups:
        entries = [
            qualname
            for qualname, fn in model.functions.items()
            if fn.name not in _CONSTRUCTORS
            and any(fnmatchcase(qualname, pattern) for pattern in group.patterns)
        ]
        group_chains[group.name] = graph.reachable_from(sorted(entries))
    fn_groups: dict[str, set[str]] = {}
    for group_name, chains in group_chains.items():
        for qualname in chains:
            fn_groups.setdefault(qualname, set()).add(group_name)
    parallel = {group.name for group in config.groups if group.parallel}
    return fn_groups, group_chains, parallel


def _chain_for(
    group_chains: dict[str, dict[str, list[str]]], groups: set[str], qualname: str
) -> str:
    """Short provenance string: which groups reach this function, with one
    sample chain."""
    parts = []
    for name in sorted(groups):
        chain = group_chains[name].get(qualname)
        if chain:
            parts.append(f"{name}: {' -> '.join(chain)}")
    return "; ".join(parts)


@dataclass
class _ClassReport:
    """Scanned state of one class, ready for rule evaluation."""

    module: ModuleInfo
    cls: ClassInfo
    contract: str | None
    locks: dict[str, bool]
    rng: set[str]
    containers: set[str]
    #: attr → list of (method qualname, Access), constructors excluded.
    accesses: dict[str, list[tuple[str, Access]]]
    hazardous: set[str] = field(default_factory=set)


def check_concurrency(
    model: ProjectModel,
    graph: CallGraph,
    config: ConcurrencyConfig = DEFAULT_CONFIG,
) -> list[Violation]:
    """Run the SKL201–SKL205 checks over the project."""
    fn_groups, group_chains, parallel = _match_groups(model, graph, config)
    violations: list[Violation] = []
    scans: dict[str, FunctionScan] = {}
    class_lock_tables: dict[str, dict[str, bool]] = {}
    module_lock_tables: dict[str, dict[str, bool]] = {}
    lock_kinds: dict[str, bool] = {}  # lock id → is_rlock

    for module in model.modules.values():
        lines = module.source.splitlines()
        per_class, module_locks = _collect_locks(model, module)
        class_lock_tables.update(per_class)
        module_lock_tables[module.name] = module_locks
        for name, is_rlock in module_locks.items():
            lock_kinds[f"{module.name}.{name}"] = is_rlock
        for cls_qualname, locks in per_class.items():
            for attr, is_rlock in locks.items():
                lock_kinds[f"{cls_qualname}.{attr}"] = is_rlock
        for fn in list(module.functions.values()) + [
            method
            for cls in module.classes.values()
            for method in cls.methods.values()
        ]:
            locks = per_class.get(fn.cls.qualname, {}) if fn.cls else {}
            scanner = _Scanner(model, module, fn, locks, module_locks, lines)
            scans[fn.qualname] = scanner.run()

    # ------------------------------------------------------------------
    # Per-class hazard computation and SKL201/202/203/205
    # ------------------------------------------------------------------
    for module in model.modules.values():
        lines = module.source.splitlines()
        for cls in module.classes.values():
            report = _build_class_report(
                model, module, cls, lines, class_lock_tables, scans
            )
            _compute_hazards(report, fn_groups, parallel)
            violations += _check_class(
                report, fn_groups, group_chains, parallel, scans
            )
        violations += _check_module_globals(
            model, module, fn_groups, group_chains, parallel, scans
        )

    violations += _check_lock_order(model, graph, scans, lock_kinds)
    return violations


def _build_class_report(
    model: ProjectModel,
    module: ModuleInfo,
    cls: ClassInfo,
    lines: list[str],
    class_lock_tables: dict[str, dict[str, bool]],
    scans: dict[str, FunctionScan],
) -> _ClassReport:
    accesses: dict[str, list[tuple[str, Access]]] = {}
    for method in cls.methods.values():
        if method.name in _CONSTRUCTORS:
            continue
        scan = scans.get(method.qualname)
        if scan is None:
            continue
        for access in scan.accesses:
            accesses.setdefault(access.attr, []).append((method.qualname, access))
    return _ClassReport(
        module=module,
        cls=cls,
        contract=_class_contract(module, cls, lines),
        locks=class_lock_tables.get(cls.qualname, {}),
        rng=_rng_attrs(model, module, cls),
        containers=_container_attrs(model, module, cls, scans),
        accesses=accesses,
    )


def _compute_hazards(
    report: _ClassReport, fn_groups: dict[str, set[str]], parallel: set[str]
) -> None:
    for attr, sites in report.accesses.items():
        if attr in report.locks:
            continue  # the lock itself is not shared data
        groups: set[str] = set()
        write_groups: set[str] = set()
        for qualname, access in sites:
            site_groups = fn_groups.get(qualname, set())
            groups |= site_groups
            if access.is_write:
                write_groups |= site_groups
        if not write_groups:
            continue
        if len(groups) >= 2 or (groups & parallel):
            report.hazardous.add(attr)


def _check_class(
    report: _ClassReport,
    fn_groups: dict[str, set[str]],
    group_chains: dict[str, dict[str, list[str]]],
    parallel: set[str],
    scans: dict[str, FunctionScan],
) -> list[Violation]:
    violations: list[Violation] = []
    contract = report.contract
    cls_name = report.cls.qualname
    path = report.module.path

    enforce_guards = report.hazardous and contract in (None, "thread-safe")
    if enforce_guards:
        for attr in sorted(report.hazardous):
            sites = report.accesses[attr]
            # SKL202(b): probe + write pairs that never share a lock scope.
            flagged_202: set[tuple[str, int, int]] = set()
            by_fn: dict[str, list[Access]] = {}
            for qualname, access in sites:
                by_fn.setdefault(qualname, []).append(access)
            for qualname, fn_accesses in by_fn.items():
                groups = fn_groups.get(qualname, set())
                if not groups:
                    continue
                probes = [a for a in fn_accesses if a.kind == "probe"]
                writes = [a for a in fn_accesses if a.is_write]
                for write in writes:
                    paired = [p for p in probes if p.line <= write.line]
                    if not paired:
                        continue
                    if any(p.scopes & write.scopes for p in paired):
                        continue
                    key = (qualname, write.line, write.col)
                    if key in flagged_202:
                        continue
                    flagged_202.add(key)
                    violations.append(
                        Violation(
                            rule="SKL202",
                            path=path,
                            line=write.line,
                            col=write.col,
                            message=(
                                f"non-atomic check-then-act on {cls_name}.{attr}: "
                                f"probe and write in {qualname} never share a "
                                "lock scope (reachable from "
                                f"{_chain_for(group_chains, groups, qualname)})"
                            ),
                        )
                    )
                # SKL202(a): unguarded read-modify-write.
                for write in writes:
                    if write.kind != "augassign" or write.locks:
                        continue
                    key = (qualname, write.line, write.col)
                    if key in flagged_202:
                        continue
                    flagged_202.add(key)
                    violations.append(
                        Violation(
                            rule="SKL202",
                            path=path,
                            line=write.line,
                            col=write.col,
                            message=(
                                f"unguarded read-modify-write of {cls_name}.{attr} "
                                f"in {qualname} (reachable from "
                                f"{_chain_for(group_chains, groups, qualname)})"
                            ),
                        )
                    )
                # SKL201: remaining unguarded writes.
                for write in writes:
                    if write.locks:
                        continue
                    key = (qualname, write.line, write.col)
                    if key in flagged_202:
                        continue
                    violations.append(
                        Violation(
                            rule="SKL201",
                            path=path,
                            line=write.line,
                            col=write.col,
                            message=(
                                f"unguarded write to shared state {cls_name}.{attr} "
                                f"in {qualname} (reachable from "
                                f"{_chain_for(group_chains, groups, qualname)}); "
                                "guard it with a lock or declare the class "
                                "contract (# sketchlint: thread-safe | "
                                "single-writer | thread-confined)"
                            ),
                        )
                    )

    # SKL203: escaping container internals from a thread-safe class.
    if report.hazardous and contract in (None, "thread-safe"):
        shared_containers = report.containers & report.hazardous
        for method in report.cls.methods.values():
            if method.name in _CONSTRUCTORS:
                continue
            for node in ast.walk(method.node):
                if not (isinstance(node, ast.Return) and node.value is not None):
                    continue
                value = node.value
                if not (
                    isinstance(value, ast.Attribute)
                    and isinstance(value.value, ast.Name)
                    and value.value.id == "self"
                ):
                    continue
                if value.attr in shared_containers:
                    violations.append(
                        Violation(
                            rule="SKL203",
                            path=path,
                            line=node.lineno,
                            col=node.col_offset + 1,
                            message=(
                                f"{method.qualname} returns the mutable internal "
                                f"{cls_name}.{value.attr} by reference; return a "
                                "copy or an immutable view so callers cannot "
                                "bypass the lock"
                            ),
                        )
                    )

    # SKL205: shared unguarded RNG state (active unless thread-confined).
    if contract != "thread-confined":
        for attr in sorted(report.rng):
            sites = report.accesses.get(attr, [])
            consumer_groups: set[str] = set()
            unguarded: list[tuple[str, Access]] = []
            for qualname, access in sites:
                groups = fn_groups.get(qualname, set())
                if not groups:
                    continue
                consumer_groups |= groups
                if not access.locks:
                    unguarded.append((qualname, access))
            if not unguarded:
                continue
            if len(consumer_groups) >= 2 or (consumer_groups & parallel):
                qualname, access = unguarded[0]
                violations.append(
                    Violation(
                        rule="SKL205",
                        path=path,
                        line=access.line,
                        col=access.col,
                        message=(
                            f"random generator {cls_name}.{attr} is consumed from "
                            "multiple concurrent entrypoints without a guard "
                            f"({_chain_for(group_chains, consumer_groups, qualname)}); "
                            "concurrent draws make the config-seeded stream "
                            "nondeterministic"
                        ),
                    )
                )
    return violations


def _check_module_globals(
    model: ProjectModel,
    module: ModuleInfo,
    fn_groups: dict[str, set[str]],
    group_chains: dict[str, dict[str, list[str]]],
    parallel: set[str],
    scans: dict[str, FunctionScan],
) -> list[Violation]:
    """SKL201 for unguarded ``global`` writes from concurrent functions."""
    violations: list[Violation] = []
    for fn in module.functions.values():
        scan = scans.get(fn.qualname)
        if scan is None:
            continue
        groups = fn_groups.get(fn.qualname, set())
        if not groups:
            continue
        if not (len(groups) >= 2 or (groups & parallel)):
            continue
        for access in scan.global_writes:
            if access.locks:
                continue
            violations.append(
                Violation(
                    rule="SKL201",
                    path=module.path,
                    line=access.line,
                    col=access.col,
                    message=(
                        f"unguarded write to module global "
                        f"{module.name}.{access.attr} in {fn.qualname} "
                        f"(reachable from "
                        f"{_chain_for(group_chains, groups, fn.qualname)}); "
                        "guard it with a module-level lock"
                    ),
                )
            )
    return violations


# ----------------------------------------------------------------------
# SKL204: lock-order cycles
# ----------------------------------------------------------------------


def _check_lock_order(
    model: ProjectModel,
    graph: CallGraph,
    scans: dict[str, FunctionScan],
    lock_kinds: dict[str, bool],
) -> list[Violation]:
    # Locks each function acquires itself, then closed over the call graph.
    direct: dict[str, set[str]] = {
        qualname: {acquire.lock for acquire in scan.acquires}
        for qualname, scan in scans.items()
    }
    eventually = {qualname: set(locks) for qualname, locks in direct.items()}
    changed = True
    while changed:
        changed = False
        for qualname, sites in graph.edges.items():
            bucket = eventually.setdefault(qualname, set())
            for site in sites:
                extra = eventually.get(site.callee)
                if extra and not extra <= bucket:
                    bucket |= extra
                    changed = True

    # Edge (A → B): B acquired while A is held — lexically nested withs,
    # or a call made under A into a function that eventually acquires B.
    edges: dict[tuple[str, str], tuple[str, int, int, str]] = {}

    def add_edge(a: str, b: str, path: str, line: int, col: int, why: str) -> None:
        edges.setdefault((a, b), (path, line, col, why))

    for qualname, scan in scans.items():
        fn = model.functions.get(qualname)
        if fn is None:
            continue
        path = model.modules[fn.module].path
        for acquire in scan.acquires:
            for held in acquire.held:
                add_edge(
                    held, acquire.lock, path, acquire.line, 1,
                    f"{qualname} acquires {acquire.lock} while holding {held}",
                )
        for site in graph.edges.get(qualname, []):
            held_at_site = set(scan.annotation_locks)
            for acquire in scan.acquires:
                if acquire.line < site.line <= acquire.end_line:
                    held_at_site.add(acquire.lock)
            if not held_at_site:
                continue
            for downstream in eventually.get(site.callee, set()):
                for held in held_at_site:
                    add_edge(
                        held, downstream, path, site.line, site.col,
                        f"{qualname} calls {site.callee} (which may acquire "
                        f"{downstream}) while holding {held}",
                    )

    # Transitive closure over lock ids, then flag cycles.
    succ: dict[str, set[str]] = {}
    for (a, b) in edges:
        succ.setdefault(a, set()).add(b)
    closure: dict[str, set[str]] = {}

    def reach(start: str) -> set[str]:
        if start in closure:
            return closure[start]
        seen: set[str] = set()
        stack = [start]
        while stack:
            node = stack.pop()
            for nxt in succ.get(node, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        closure[start] = seen
        return seen

    violations: list[Violation] = []
    for (a, b), (path, line, col, why) in sorted(edges.items()):
        if a == b:
            if lock_kinds.get(a, False):
                continue  # re-acquiring an RLock is fine
            violations.append(
                Violation(
                    rule="SKL204",
                    path=path,
                    line=line,
                    col=col,
                    message=(
                        f"non-reentrant lock {a} may be re-acquired while "
                        f"already held: {why}"
                    ),
                )
            )
        elif a in reach(b):
            violations.append(
                Violation(
                    rule="SKL204",
                    path=path,
                    line=line,
                    col=col,
                    message=(
                        f"inconsistent lock-acquisition order: {why}, but "
                        f"{b} can also be held while acquiring {a}; pick one "
                        "global order"
                    ),
                )
            )
    return violations
