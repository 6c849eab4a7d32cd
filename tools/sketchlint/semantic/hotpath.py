"""Hot-path performance analysis: the SKL3xx rule pack.

The ingest pipeline's throughput lives or dies in a handful of loops:
EnumTree's pattern emission, the Prüfer encode stage, and the virtual
stream apply stage.  Profiling finds regressions *after* they ship; this
phase finds the structural hazards — one-shot iterables consumed twice,
per-element Python loops over columnar data, allocations and invariant
recomputation inside hot loops — *before* they ship, the same way the
SKL1xx/SKL2xx packs guard determinism and thread safety.

The analysis reuses :class:`ProjectModel` and the under-approximate
:class:`CallGraph`:

1. **Hot set.**  A config (:data:`DEFAULT_CONFIG`) declares the hot
   entrypoints — the ingest surface (``SketchTree.update*`` /
   ``ingest*`` / ``delete_tree``, ``StreamProcessor.run`` / ``resume``,
   ``collect_forest_patterns``, the serving shard drain loop) and the
   read path (``estimate_*``, ``ShardedService.estimate*``).  Call-graph
   reachability from those entrypoints is the *hot set*; ``--explain-hot``
   prints it with one sample call chain per function.

2. **Loop nesting.**  Every hot function's body is walked once, tracking
   loop-nesting depth (``for`` / ``while`` / comprehension generators all
   count; nested ``def`` / ``lambda`` bodies do not — they execute
   elsewhere).  Rules that only matter per element fire at depth ≥ 1.

3. **Rules.**

   * **SKL301** — a single-use iterable (generator expression, project
     generator function, ``map`` / ``filter`` / ``zip`` / ``iter`` /
     ``reversed``, or an ``Iterable``-typed parameter) consumed more than
     once or re-consumed inside a loop.  The second consumer silently
     sees an exhausted stream — the historical ``estimate_sum`` bug
     class.  Runs project-wide: exhausted-iterator bugs are correctness
     bugs everywhere, not just on hot paths.
   * **SKL302** — a per-element Python loop over columnar data in a hot
     function: iterating ``EncodedBatch`` columns or ``.tolist()``
     results element-wise, or calling ``np.asarray`` per element inside
     a loop, where one vectorised call does the same work.
   * **SKL303** — allocation or loop-invariant recomputation inside a
     hot loop: ``np.concatenate`` / ``np.append`` / ``np.hstack`` /
     ``np.vstack`` in a loop (quadratic growth), a container or array
     constructed from loop-invariant arguments every iteration, or the
     same loop-invariant attribute chain re-read twice per iteration.
   * **SKL304** — implicit ndarray copy / dtype churn in a hot function:
     ``.astype`` per element inside a loop, an ``astype`` chained with a
     fancy-index (two full copies where one suffices), or an
     ``int64 → float64 → int64`` round trip in one expression.
   * **SKL305** — per-element observability in the innermost loop of a
     hot function: ``.observe()`` / ``.inc()`` per element (use
     ``observe_batch`` or a local accumulator flushed once per batch),
     instrument lookups (``obs.histogram(...)``) per element, logging
     per element, or a ``try`` re-entered per element.

Like the rest of the semantic phase this is under-approximate: calls the
resolver cannot type add no hot edges, and expressions it cannot prove
invariant are assumed variant.  False positives are silenced with the
standard ``# sketchlint: disable=SKL30x`` comment — each suppression is
a reviewed claim that the allocation or loop is intentional.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from fnmatch import fnmatchcase

from tools.sketchlint.semantic.callgraph import CallGraph, Resolver
from tools.sketchlint.semantic.model import (
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
class HotPathConfig:
    """The declared hot surface of the project.

    ``entrypoints`` are qualname globs; everything call-graph-reachable
    from a match is hot.  ``columnar_attrs`` maps class qualnames to the
    attributes that hold ndarray columns — iterating one element-wise in
    a hot function is SKL302.
    """

    entrypoints: tuple[str, ...]
    columnar_attrs: tuple[tuple[str, tuple[str, ...]], ...]


#: The ingest and read surfaces of the pipeline (see docs/performance.md).
DEFAULT_CONFIG = HotPathConfig(
    entrypoints=(
        "repro.core.sketchtree.SketchTree.update",
        "repro.core.sketchtree.SketchTree.update_batch",
        "repro.core.sketchtree.SketchTree.update_from_patterns",
        "repro.core.sketchtree.SketchTree.delete_tree",
        "repro.core.sketchtree.SketchTree.ingest*",
        "repro.core.view.Queries.estimate_*",
        "repro.core.view.CounterView.estimate_*",
        "repro.core.sketchtree.SketchTree.view",
        "repro.core.window.WindowedSketchTree.update*",
        "repro.core.window.WindowedSketchTree.ingest",
        "repro.core.window.WindowedSketchTree.view",
        "repro.stream.engine.StreamProcessor.run",
        "repro.stream.engine.StreamProcessor.resume",
        "repro.enumtree.enumerate.collect_forest_patterns",
        "repro.enumtree.enumerate.iter_pattern_multiset",
        "repro.serve.shards.IngestShard._drain_loop",
        "repro.serve.service.ShardedService.estimate*",
    ),
    columnar_attrs=(
        ("repro.core.batch.EncodedBatch", ("values", "counts", "residues")),
        ("repro.sketch.ams.SketchMatrix", ("counters",)),
    ),
)

#: Builtins whose result is a one-shot iterator.
_ONESHOT_BUILTINS = frozenset({"iter", "map", "filter", "zip", "reversed", "enumerate"})

#: Annotation heads that mark a parameter as possibly one-shot.
#: ``Generator`` is deliberately absent: in this codebase a bare
#: ``Generator`` annotation is ``np.random.Generator`` (an RNG, freely
#: re-usable), not ``typing.Generator``.
_ONESHOT_ANNOTATIONS = frozenset({"Iterable", "Iterator"})

#: Annotation heads that guarantee a parameter is re-iterable.
_REUSABLE_ANNOTATIONS = frozenset(
    {
        "Sequence", "list", "List", "tuple", "Tuple", "set", "Set",
        "frozenset", "FrozenSet", "dict", "Dict", "Mapping", "Collection",
        "str", "bytes", "Sized", "Counter", "OrderedDict", "defaultdict",
        "deque", "ndarray", "Generator",
    }
)

#: numpy calls that re-copy a growing array — O(n²) when run per element.
_GROWING_CONCAT = frozenset(
    {"numpy.concatenate", "numpy.append", "numpy.hstack", "numpy.vstack",
     "numpy.column_stack", "numpy.r_", "numpy.c_"}
)

#: Container / array constructors whose loop-invariant construction can
#: be hoisted out of a hot loop.
_ALLOC_CTORS = frozenset(
    {
        "dict", "list", "set", "frozenset", "bytearray",
        "collections.OrderedDict", "collections.defaultdict",
        "collections.deque", "collections.Counter",
        "numpy.zeros", "numpy.ones", "numpy.empty", "numpy.full",
        "numpy.array", "numpy.arange",
    }
)

#: Scalar-conversion calls that have a single vectorised equivalent.
_SCALAR_ARRAY_CALLS = frozenset({"numpy.asarray", "numpy.asanyarray", "numpy.array"})

#: Per-element instrument mutation (the batched forms are the fix).
_OBS_MUTATORS = frozenset({"observe", "inc"})

#: Registry factories: calling one per element is a dict probe + lock per
#: element (bind the instrument to a local outside the loop).
_OBS_FACTORIES = frozenset({"histogram", "counter", "gauge", "span"})

#: Logging methods (on a logger-named receiver or the logging module).
_LOG_METHODS = frozenset(
    {"debug", "info", "warning", "warn", "error", "exception", "critical", "log"}
)

_CONSTRUCTORS = frozenset({"__init__", "__post_init__", "__new__"})


def _chain_text(chain: list[str]) -> str:
    return " -> ".join(chain)


# ----------------------------------------------------------------------
# Hot-set derivation
# ----------------------------------------------------------------------
def hot_functions(
    model: ProjectModel, graph: CallGraph, config: HotPathConfig = DEFAULT_CONFIG
) -> dict[str, list[str]]:
    """Hot function qualname → sample call chain from an entrypoint."""
    entries = sorted(
        qualname
        for qualname, fn in model.functions.items()
        if fn.name not in _CONSTRUCTORS
        and any(fnmatchcase(qualname, pattern) for pattern in config.entrypoints)
    )
    return graph.reachable_from(entries)


def max_loop_depth(fn: FunctionInfo) -> int:
    """Deepest loop nesting in a function body (lambdas/nested defs skipped)."""
    scan = _HotScan(fn)
    scan.run()
    return scan.max_depth


def explain_hot(
    model: ProjectModel, graph: CallGraph, config: HotPathConfig = DEFAULT_CONFIG
) -> str:
    """Human-readable hot-set report for ``--explain-hot``."""
    chains = hot_functions(model, graph, config)
    lines = [f"hot set: {len(chains)} functions reachable from the configured entrypoints"]
    for qualname in sorted(chains):
        fn = model.functions.get(qualname)
        depth = max_loop_depth(fn) if fn is not None else 0
        lines.append(f"  {qualname}  [loop depth {depth}]")
        lines.append(f"    via: {_chain_text(chains[qualname])}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# The per-function scan: loops, calls, tries, name events
# ----------------------------------------------------------------------


@dataclass
class _LoopInfo:
    """One loop (or comprehension generator) and what varies inside it."""

    node: ast.AST
    depth: int
    parent: int | None            # index into _HotScan.loops
    assigned: set[str] = field(default_factory=set)
    attr_stores: set[str] = field(default_factory=set)  # dotted prefixes
    self_call: bool = False       # a self.method() call occurs inside
    #: loop-invariant attribute chain text → first occurrence node
    chains: dict[str, ast.AST] = field(default_factory=dict)
    chain_counts: dict[str, int] = field(default_factory=dict)


@dataclass
class _NameEvent:
    """One load or store of a local name, in statement order."""

    name: str
    kind: str                     # "load" | "store"
    stmt: int                     # statement serial (loads collapse per stmt)
    depth: int
    node: ast.AST
    exempt: bool = False          # probing load: next(x), isinstance, `is`
    iteration: bool = False       # load is a for/comprehension source
    terminal: bool = False        # load inside a return/raise statement
    value: ast.expr | None = None  # store: the bound expression


class _HotScan:
    """One pass over a function body collecting everything SKL30x needs."""

    def __init__(self, fn: FunctionInfo):
        self.fn = fn
        self.loops: list[_LoopInfo] = []
        self.calls: list[tuple[ast.Call, int, int | None]] = []
        self.tries: list[tuple[ast.Try, int, int | None]] = []
        self._terminal = False
        #: (iterating node, iterated expression, loop depth of the header)
        self.iterations: list[tuple[ast.AST, ast.expr, int]] = []
        self.events: list[_NameEvent] = []
        self.max_depth = 0
        self._stmt = 0
        self._exempt_loads: set[int] = set()
        self._iteration_loads: set[int] = set()

    # -- driver --------------------------------------------------------
    def run(self) -> "_HotScan":
        self._mark_probing_loads(self.fn.node)
        self._visit_body(self.fn.node.body, depth=0, loop=None)
        return self

    def _mark_probing_loads(self, root: ast.AST) -> None:
        """Loads that only *probe* an iterable: ``next(x)``,
        ``isinstance(x, ...)``, ``x is None``, ``if x:``, and receiver
        positions (``x.method()`` / ``x[i]`` do not exhaust ``x``)."""
        for node in ast.walk(root):
            if isinstance(node, (ast.Attribute, ast.Subscript)):
                if isinstance(node.value, ast.Name):
                    self._exempt_loads.add(id(node.value))
            if isinstance(node, ast.Call):
                name = node.func.id if isinstance(node.func, ast.Name) else None
                if name in ("next", "isinstance", "id", "type", "repr") and node.args:
                    if isinstance(node.args[0], ast.Name):
                        self._exempt_loads.add(id(node.args[0]))
            elif isinstance(node, ast.Compare):
                if all(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops):
                    for operand in [node.left, *node.comparators]:
                        if isinstance(operand, ast.Name):
                            self._exempt_loads.add(id(operand))
            elif isinstance(node, (ast.If, ast.While)):
                if isinstance(node.test, ast.Name):
                    self._exempt_loads.add(id(node.test))

    # -- statement walk ------------------------------------------------
    def _visit_body(
        self, body: list[ast.stmt], depth: int, loop: int | None
    ) -> None:
        for stmt in body:
            self._stmt += 1
            self._visit_stmt(stmt, depth, loop)

    def _visit_stmt(self, stmt: ast.stmt, depth: int, loop: int | None) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested scopes are scanned as their own functions
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._visit_expr(stmt.iter, depth, loop)
            self.iterations.append((stmt, stmt.iter, depth))
            self._mark_iteration(stmt.iter)
            index = self._open_loop(stmt, depth + 1, loop)
            self._collect_stores(stmt.target, index)
            self._store_targets(stmt.target, depth + 1, value=None)
            self._visit_body(stmt.body, depth + 1, index)
            self._close_loop(index, loop)
            self._visit_body(stmt.orelse, depth, loop)
            return
        if isinstance(stmt, ast.While):
            self._visit_expr(stmt.test, depth, loop)
            index = self._open_loop(stmt, depth + 1, loop)
            self._visit_body(stmt.body, depth + 1, index)
            self._close_loop(index, loop)
            self._visit_body(stmt.orelse, depth, loop)
            return
        if isinstance(stmt, ast.Try):
            self.tries.append((stmt, depth, loop))
            self._visit_body(stmt.body, depth, loop)
            for handler in stmt.handlers:
                self._visit_body(handler.body, depth, loop)
            self._visit_body(stmt.orelse, depth, loop)
            self._visit_body(stmt.finalbody, depth, loop)
            return
        if isinstance(stmt, (ast.If,)):
            self._visit_expr(stmt.test, depth, loop)
            self._visit_body(stmt.body, depth, loop)
            self._visit_body(stmt.orelse, depth, loop)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._visit_expr(item.context_expr, depth, loop)
                if item.optional_vars is not None:
                    self._store_targets(item.optional_vars, depth, value=None)
                    if loop is not None:
                        self._collect_stores(item.optional_vars, loop)
            self._visit_body(stmt.body, depth, loop)
            return
        if isinstance(stmt, ast.Assign):
            self._visit_expr(stmt.value, depth, loop)
            for target in stmt.targets:
                self._visit_assign_target(target, depth, loop)
                self._store_targets(
                    target,
                    depth,
                    value=stmt.value if len(stmt.targets) == 1 else None,
                )
            return
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._visit_expr(stmt.value, depth, loop)
            self._visit_assign_target(stmt.target, depth, loop)
            self._store_targets(stmt.target, depth, value=stmt.value)
            return
        if isinstance(stmt, ast.AugAssign):
            self._visit_expr(stmt.value, depth, loop)
            self._visit_expr(stmt.target, depth, loop)
            self._visit_assign_target(stmt.target, depth, loop)
            self._store_targets(stmt.target, depth, value=None)
            return
        # Expression statements, returns, raises, asserts, deletes, …
        terminal = isinstance(stmt, (ast.Return, ast.Raise))
        if terminal:
            self._terminal = True
        try:
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._visit_expr(child, depth, loop)
        finally:
            if terminal:
                self._terminal = False

    def _visit_assign_target(
        self, target: ast.expr, depth: int, loop: int | None
    ) -> None:
        """Record attribute/subscript stores for invariance tracking."""
        if loop is None:
            return
        base = target
        if isinstance(base, ast.Subscript):
            self._visit_expr(base.slice, depth, loop)
            base = base.value
        chain = dotted_name(base)
        if chain is not None and "." in chain:
            for index in self._loop_and_ancestors(loop):
                self.loops[index].attr_stores.add(chain)

    def _store_targets(
        self, target: ast.expr, depth: int, value: ast.expr | None
    ) -> None:
        if isinstance(target, ast.Name):
            self.events.append(
                _NameEvent(
                    name=target.id, kind="store", stmt=self._stmt,
                    depth=depth, node=target, value=value,
                )
            )
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                inner = element.value if isinstance(element, ast.Starred) else element
                self._store_targets(inner, depth, value=None)

    def _collect_stores(self, target: ast.expr, loop_index: int) -> None:
        """Names bound by a loop target, into the loop's assigned set."""
        for node in ast.walk(target):
            if isinstance(node, ast.Name):
                for index in self._loop_and_ancestors(loop_index):
                    self.loops[index].assigned.add(node.id)

    # -- expression walk -----------------------------------------------
    def _visit_expr(self, expr: ast.expr, depth: int, loop: int | None) -> None:
        if isinstance(expr, ast.Lambda):
            return  # executes elsewhere; not this function's loop
        if isinstance(
            expr, (ast.GeneratorExp, ast.ListComp, ast.SetComp, ast.DictComp)
        ):
            self._visit_comprehension(expr, depth, loop)
            return
        if isinstance(expr, ast.Call):
            inner_loop = self.loops[loop] if loop is not None else None
            self.calls.append((expr, depth, loop))
            if inner_loop is not None and self._is_self_call(expr):
                for index in self._loop_and_ancestors(loop):
                    self.loops[index].self_call = True
        if isinstance(expr, ast.Attribute) and loop is not None:
            chain = dotted_name(expr)
            if chain is not None and chain.count(".") >= 2:
                info = self.loops[loop]
                info.chains.setdefault(chain, expr)
                info.chain_counts[chain] = info.chain_counts.get(chain, 0) + 1
                # The chain's own sub-attributes are covered by the full
                # chain; do not descend into expr.value's Attribute spine.
                for child in ast.walk(expr):
                    if isinstance(child, ast.Call):
                        self._visit_expr(child, depth, loop)
                self._record_load_names(expr, depth)
                return
        if isinstance(expr, ast.Name) and isinstance(expr.ctx, ast.Load):
            self.events.append(
                _NameEvent(
                    name=expr.id, kind="load", stmt=self._stmt, depth=depth,
                    node=expr,
                    exempt=id(expr) in self._exempt_loads,
                    iteration=id(expr) in self._iteration_loads,
                    terminal=self._terminal,
                )
            )
            return
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                self._visit_expr(child, depth, loop)
            elif isinstance(child, ast.keyword):
                self._visit_expr(child.value, depth, loop)

    def _record_load_names(self, expr: ast.AST, depth: int) -> None:
        for node in ast.walk(expr):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                self.events.append(
                    _NameEvent(
                        name=node.id, kind="load", stmt=self._stmt,
                        depth=depth, node=node,
                        exempt=id(node) in self._exempt_loads,
                        iteration=id(node) in self._iteration_loads,
                        terminal=self._terminal,
                    )
                )

    def _visit_comprehension(
        self,
        expr: ast.GeneratorExp | ast.ListComp | ast.SetComp | ast.DictComp,
        depth: int,
        loop: int | None,
    ) -> None:
        inner_depth = depth
        inner_loop = loop
        for generator in expr.generators:
            self._visit_expr(generator.iter, inner_depth, inner_loop)
            self.iterations.append((expr, generator.iter, inner_depth))
            self._mark_iteration(generator.iter)
            inner_depth += 1
            inner_loop = self._open_loop(expr, inner_depth, inner_loop)
            self._collect_stores(generator.target, inner_loop)
            for condition in generator.ifs:
                self._visit_expr(condition, inner_depth, inner_loop)
        if isinstance(expr, ast.DictComp):
            self._visit_expr(expr.key, inner_depth, inner_loop)
            self._visit_expr(expr.value, inner_depth, inner_loop)
        else:
            self._visit_expr(expr.elt, inner_depth, inner_loop)
        self.max_depth = max(self.max_depth, inner_depth)

    # -- helpers -------------------------------------------------------
    def _open_loop(self, node: ast.AST, depth: int, parent: int | None) -> int:
        self.loops.append(_LoopInfo(node=node, depth=depth, parent=parent))
        self.max_depth = max(self.max_depth, depth)
        return len(self.loops) - 1

    def _close_loop(self, index: int, parent: int | None) -> None:
        # Propagate assigned names upward so outer loops treat names bound
        # in inner loops as variant too.
        if parent is not None:
            self.loops[parent].assigned |= self.loops[index].assigned
            self.loops[parent].attr_stores |= self.loops[index].attr_stores

    def _loop_and_ancestors(self, index: int | None):
        while index is not None:
            yield index
            index = self.loops[index].parent

    def _mark_iteration(self, expr: ast.expr) -> None:
        if isinstance(expr, ast.Name):
            self._iteration_loads.add(id(expr))

    def _is_self_call(self, call: ast.Call) -> bool:
        func = call.func
        return (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
        )

    def innermost(self, loop: int | None) -> _LoopInfo | None:
        return self.loops[loop] if loop is not None else None

    def has_inner_loop(self, loop_index: int) -> bool:
        return any(info.parent == loop_index for info in self.loops)


# ----------------------------------------------------------------------
# SKL301: single-use iterables consumed more than once
# ----------------------------------------------------------------------


def _is_generator_function(fn: FunctionInfo) -> bool:
    for node in ast.walk(fn.node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node is not fn.node:
            continue
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return True
    return False


def _oneshot_value(
    resolver: Resolver, value: ast.expr | None, generator_fns: set[str]
) -> str | None:
    """Why a bound expression is a one-shot iterable, or None."""
    if value is None:
        return None
    if isinstance(value, ast.GeneratorExp):
        return "a generator expression"
    if isinstance(value, ast.Call):
        name = dotted_name(value.func)
        if name is not None and "." not in name and name in _ONESHOT_BUILTINS:
            return f"a {name}() iterator"
        for qualname in resolver.resolve_call(value):
            if qualname in generator_fns:
                return f"the generator function {qualname}"
    return None


def _annotation_heads(annotation: ast.expr | None) -> set[str]:
    """Leading identifiers of an annotation (``Iterable[X] | None`` →
    ``{"Iterable", "None"}``)."""
    if annotation is None:
        return set()
    heads: set[str] = set()
    stack: list[ast.expr] = [annotation]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                stack.append(ast.parse(node.value, mode="eval").body)
            except SyntaxError:
                continue
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            stack.extend([node.left, node.right])
        elif isinstance(node, ast.Subscript):
            name = dotted_name(node.value)
            if name is not None:
                head = name.rsplit(".", 1)[-1]
                if head in ("Optional", "Union"):
                    inner = node.slice
                    stack.extend(
                        inner.elts if isinstance(inner, ast.Tuple) else [inner]
                    )
                else:
                    heads.add(head)
        else:
            name = dotted_name(node)
            if name is not None:
                heads.add(name.rsplit(".", 1)[-1])
    return heads


@dataclass
class _Binding:
    """One tracked one-shot (or suspect) binding of a local name."""

    name: str
    depth: int
    stmt: int
    reason: str
    definite: bool                # True: provably one-shot; False: suspect param


def _check_single_use(
    model: ProjectModel,
    module: ModuleInfo,
    fn: FunctionInfo,
    scan: _HotScan,
    generator_fns: set[str],
) -> list[Violation]:
    resolver = Resolver(model, module, fn)
    bindings: dict[str, _Binding] = {}
    violations: list[Violation] = []
    flagged: set[str] = set()

    # Suspect parameters: possibly one-shot from the caller's hands.
    args = fn.node.args
    for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
        if arg.arg in ("self", "cls"):
            continue
        heads = _annotation_heads(arg.annotation)
        if heads & _REUSABLE_ANNOTATIONS:
            continue
        if heads & _ONESHOT_ANNOTATIONS or not heads:
            reason = (
                f"parameter '{arg.arg}' may be a one-shot iterable "
                f"({'annotated ' + '/'.join(sorted(heads & _ONESHOT_ANNOTATIONS)) if heads else 'unannotated'})"
            )
            bindings[arg.arg] = _Binding(
                name=arg.arg, depth=0, stmt=0, reason=reason,
                definite=bool(heads & _ONESHOT_ANNOTATIONS),
            )

    # consuming statements seen so far, per live binding
    consumed: dict[str, list[_NameEvent]] = {}

    def fire(binding: _Binding, event: _NameEvent, why: str) -> None:
        if binding.name in flagged:
            return
        flagged.add(binding.name)
        violations.append(
            Violation(
                rule="SKL301",
                path=module.path,
                line=getattr(event.node, "lineno", fn.node.lineno),
                col=getattr(event.node, "col_offset", 0) + 1,
                message=(
                    f"'{binding.name}' is {binding.reason} but {why} in "
                    f"{fn.qualname}; a second pass sees an exhausted "
                    "iterator — materialise it (list(...)) first"
                ),
            )
        )

    for event in scan.events:
        if event.kind == "store":
            # Rebinding ends the previous tracking for this name.
            consumed.pop(event.name, None)
            bindings.pop(event.name, None)
            reason = _oneshot_value(resolver, event.value, generator_fns)
            if reason is not None:
                bindings[event.name] = _Binding(
                    name=event.name, depth=event.depth, stmt=event.stmt,
                    reason=reason, definite=True,
                )
            continue
        binding = bindings.get(event.name)
        if binding is None or event.exempt:
            continue
        prior = consumed.setdefault(event.name, [])
        same_stmt = any(e.stmt == event.stmt for e in prior)
        if event.depth > binding.depth and not same_stmt:
            # Re-consumed on every iteration of an enclosing loop.
            if binding.definite or event.iteration:
                fire(binding, event, "consumed inside a loop")
                continue
        if prior and not same_stmt:
            strong = binding.definite or (
                event.iteration or any(e.iteration for e in prior)
            )
            if strong:
                fire(binding, event, "consumed more than once")
                continue
        if not event.terminal:
            # A load inside a return/raise ends its control path, so it
            # can never precede another consumption at runtime (the
            # `return self.run(trees)` early-exit pattern).
            prior.append(event)
    return violations


# ----------------------------------------------------------------------
# SKL302–SKL305: hot-loop rules
# ----------------------------------------------------------------------


def _invariant(expr: ast.expr, assigned: set[str]) -> bool:
    """Conservatively: no calls, and every name is bound outside the loop."""
    for node in ast.walk(expr):
        if isinstance(node, ast.Call):
            return False
        if isinstance(node, ast.Name) and node.id in assigned:
            return False
    return True


def _chain_is_invariant(chain: str, info: _LoopInfo) -> bool:
    parts = chain.split(".")
    root = parts[0]
    if root in info.assigned:
        return False
    if root == "self" and info.self_call:
        # A self.method() call inside the loop may rewrite any attribute
        # (the window._rotate pattern) — assume variant.
        return False
    prefixes = {".".join(parts[: i + 1]) for i in range(1, len(parts))}
    return not (prefixes & info.attr_stores)


def _astype_round_trip(call: ast.Call) -> bool:
    """``x.astype(float64)...astype(int64)`` (or the reverse) in one chain."""
    func = call.func
    if not (isinstance(func, ast.Attribute) and func.attr == "astype"):
        return False
    for node in ast.walk(func.value):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "astype"
        ):
            return True
    return False


def _astype_fancy_chain(call: ast.Call) -> bool:
    """astype applied to a subscript result (or immediately subscripted)."""
    func = call.func
    if not (isinstance(func, ast.Attribute) and func.attr == "astype"):
        return False
    return isinstance(func.value, ast.Subscript)


def _check_hot_function(
    model: ProjectModel,
    module: ModuleInfo,
    fn: FunctionInfo,
    scan: _HotScan,
    chain: list[str],
    config: HotPathConfig,
) -> list[Violation]:
    resolver = Resolver(model, module, fn)
    columnar = dict(config.columnar_attrs)
    violations: list[Violation] = []
    provenance = f" (hot via {_chain_text(chain)})"

    def add(rule: str, node: ast.AST, message: str) -> None:
        violations.append(
            Violation(
                rule=rule,
                path=module.path,
                line=getattr(node, "lineno", fn.node.lineno),
                col=getattr(node, "col_offset", 0) + 1,
                message=message + provenance,
            )
        )

    # ---- SKL302: element-wise loops over columnar data ----------------
    for iterating, source, depth in scan.iterations:
        expr = source
        if (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Attribute)
            and expr.func.attr == "tolist"
        ):
            add(
                "SKL302", iterating,
                "element-wise loop over an ndarray via .tolist(); use the "
                "vectorised operation (or operate on the array directly)",
            )
            continue
        if isinstance(expr, ast.Attribute):
            base_types = resolver.expr_types(expr.value)
            for cls_name in base_types:
                columns = columnar.get(cls_name)
                if columns and expr.attr in columns:
                    add(
                        "SKL302", iterating,
                        f"element-wise loop over {cls_name.rsplit('.', 1)[-1]}"
                        f".{expr.attr} (an ndarray column); use a vectorised "
                        "helper (np.unique / bincount / matmul) instead",
                    )
                    break

    # ---- per-call rules ----------------------------------------------
    for call, depth, loop_index in scan.calls:
        info = scan.innermost(loop_index)
        resolved = resolver.resolve_call(call)
        qualnames = set(resolved)
        in_loop = info is not None

        innermost_loop = (
            in_loop and loop_index is not None
            and not scan.has_inner_loop(loop_index)
        )

        # SKL302: scalar array conversion per element.  Only in innermost
        # loops: a conversion per *group* in an outer loop is amortised
        # over the inner loop's elements.
        if innermost_loop and qualnames & _SCALAR_ARRAY_CALLS:
            ctor = next(iter(qualnames & _SCALAR_ARRAY_CALLS))
            if ctor in _ALLOC_CTORS and _invariant_args(call, info):
                pass  # handled below as a hoistable allocation (SKL303)
            else:
                add(
                    "SKL302", call,
                    f"{ctor.replace('numpy', 'np')} called per element inside "
                    "a loop; convert the whole batch once outside the loop",
                )
                continue

        # SKL303a: growing-concatenation in a loop is O(n²).
        if in_loop and qualnames & _GROWING_CONCAT:
            name = next(iter(qualnames & _GROWING_CONCAT))
            add(
                "SKL303", call,
                f"{name.replace('numpy', 'np')} inside a loop re-copies the "
                "array every iteration (O(n²)); collect parts and "
                "concatenate once after the loop",
            )
            continue

        # SKL303b: loop-invariant construction every iteration.
        if (
            in_loop
            and qualnames & _ALLOC_CTORS
            and (call.args or call.keywords)
            and _invariant_args(call, info)
        ):
            name = next(iter(qualnames & _ALLOC_CTORS))
            add(
                "SKL303", call,
                f"{name.replace('numpy', 'np').replace('collections.', '')} "
                "constructed from loop-invariant arguments on every "
                "iteration; hoist the allocation out of the loop",
            )
            continue

        # SKL304: dtype churn.
        if isinstance(call.func, ast.Attribute) and call.func.attr == "astype":
            if _astype_round_trip(call):
                add(
                    "SKL304", call,
                    "chained .astype() calls copy the array twice and churn "
                    "dtypes; convert once to the final dtype",
                )
                continue
            if _astype_fancy_chain(call):
                add(
                    "SKL304", call,
                    ".astype() on a fancy-indexed slice makes two full "
                    "copies; index first into the target dtype (or reorder)",
                )
                continue
            if innermost_loop:
                add(
                    "SKL304", call,
                    ".astype() inside a loop copies the array every "
                    "iteration; convert once outside the loop",
                )
                continue

        # SKL305: per-element observability.
        if in_loop and isinstance(call.func, ast.Attribute):
            attr = call.func.attr
            receiver = call.func.value
            receiver_name = receiver.id if isinstance(receiver, ast.Name) else None
            if attr in _OBS_MUTATORS and not _is_plain_counter(receiver_name):
                add(
                    "SKL305", call,
                    f".{attr}() per element inside a loop takes the "
                    "instrument lock every iteration; accumulate locally and "
                    "use observe_batch / one inc(total) per batch",
                )
                continue
            if attr in _OBS_FACTORIES and receiver_name in (
                "obs", "metrics", "registry",
            ):
                add(
                    "SKL305", call,
                    f"registry lookup {receiver_name}.{attr}(...) per element "
                    "inside a loop; bind the instrument to a local before "
                    "the loop",
                )
                continue
            if attr in _LOG_METHODS and (
                (receiver_name or "").startswith(("log", "logger"))
                or any(q.startswith("logging.") for q in qualnames)
            ):
                add(
                    "SKL305", call,
                    "logging per element inside a hot loop; log once per "
                    "batch (or guard with isEnabledFor outside the loop)",
                )
                continue

    # ---- SKL303c: repeated invariant attribute chains -----------------
    for info in scan.loops:
        for chain_text, count in info.chain_counts.items():
            if count < 2:
                continue
            if not _chain_is_invariant(chain_text, info):
                continue
            root = chain_text.split(".", 1)[0]
            if root in module.imports:
                continue  # module-attribute chains (np.add.at) are cheap
            add(
                "SKL303", info.chains[chain_text],
                f"loop-invariant attribute chain '{chain_text}' read "
                f"{count}x per iteration; hoist it into a local before "
                "the loop",
            )

    # ---- SKL305: try re-entered per element ---------------------------
    for try_node, depth, loop_index in scan.tries:
        if depth < 1 or loop_index is None:
            continue
        enclosing = scan.loops[loop_index].node
        if (
            isinstance(enclosing, ast.While)
            and isinstance(enclosing.test, ast.Constant)
            and enclosing.test.value
        ):
            continue  # `while True` event loops are per-batch, not per-element
        if any(
            isinstance(node, (ast.For, ast.AsyncFor, ast.While, ast.comprehension))
            for node in ast.walk(try_node)
        ):
            continue  # the try amortises over an inner loop (per group)
        add(
            "SKL305", try_node,
            "try/except inside a hot loop sets up exception handling "
            "per element; move the try outside the loop (or batch the "
            "fallible step)",
        )

    return violations


def _invariant_args(call: ast.Call, info: _LoopInfo | None) -> bool:
    if info is None:
        return False
    return all(_invariant(arg, info.assigned) for arg in call.args) and all(
        _invariant(kw.value, info.assigned) for kw in call.keywords
    )


def _is_plain_counter(receiver_name: str | None) -> bool:
    """``n.inc()``-style false-positive guard: obs instruments are almost
    always reached via obs/metrics/self attributes, not bare locals named
    like counters — but a bare local *bound from a registry* is exactly
    the fix, so only exempt nothing for now (kept for clarity)."""
    return False


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def check_hotpath(
    model: ProjectModel,
    graph: CallGraph,
    config: HotPathConfig = DEFAULT_CONFIG,
) -> list[Violation]:
    """Run the SKL301–SKL305 checks over the project."""
    violations: list[Violation] = []
    generator_fns = {
        qualname
        for qualname, fn in model.functions.items()
        if _is_generator_function(fn)
    }
    chains = hot_functions(model, graph, config)
    for qualname, fn in model.functions.items():
        module = model.modules[fn.module]
        scan = _HotScan(fn).run()
        # SKL301 is project-wide: exhausted iterators are correctness
        # bugs wherever they occur.
        violations += _check_single_use(model, module, fn, scan, generator_fns)
        chain = chains.get(qualname)
        if chain is not None:
            violations += _check_hot_function(
                model, module, fn, scan, chain, config
            )
    return violations
