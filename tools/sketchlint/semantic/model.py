"""The project model: every module parsed once, names resolved project-wide.

This is the foundation of the semantic phase.  It turns a set of files
into:

* a module table — dotted module name → parsed AST + per-module import
  bindings (``np`` → ``numpy``, ``XiGenerator`` →
  ``repro.sketch.xi.XiGenerator``);
* a symbol table — fully-qualified name → definition (module, class,
  function, method, constant) with ``__init__`` re-exports resolved
  through alias chains;
* light type inference — parameter / return annotations, constructor
  assignments (``x = SketchMatrix(...)``), and ``self.attr`` types
  collected from class bodies — enough to resolve ``obj.method(...)``
  calls without executing anything.

Everything is plain ``ast``; no file is imported or run.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

#: Types we deliberately do not resolve further (containers, primitives).
_OPAQUE_ANNOTATIONS = {
    "int", "float", "str", "bytes", "bool", "None", "object", "Any",
    "list", "dict", "set", "tuple", "frozenset", "Iterable", "Iterator",
    "Sequence", "Mapping", "Callable",
}


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for an Attribute/Name chain rooted at a Name, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


@dataclass
class FunctionInfo:
    """One function or method definition."""

    qualname: str            # repro.core.topk.TopKTracker.process
    module: str              # repro.core.topk
    node: ast.FunctionDef | ast.AsyncFunctionDef
    cls: "ClassInfo | None" = None
    #: Return annotation resolved to candidate class qualnames (may be empty).
    return_types: frozenset[str] = frozenset()
    is_property: bool = False

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def param_names(self) -> list[str]:
        args = self.node.args
        names = [a.arg for a in args.posonlyargs]
        names += [a.arg for a in args.args]
        if args.vararg:
            names.append(args.vararg.arg)
        names += [a.arg for a in args.kwonlyargs]
        if args.kwarg:
            names.append(args.kwarg.arg)
        return names


@dataclass
class ClassInfo:
    """One class definition with its methods and inferred attribute types."""

    qualname: str
    module: str
    node: ast.ClassDef
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    #: attribute name → candidate class qualnames (from ``self.x = Ctor()``,
    #: ``self.x: T``, and class-level annotations, e.g. dataclass fields).
    attr_types: dict[str, frozenset[str]] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """One parsed module and its name-resolution context."""

    name: str
    path: str                # POSIX-normalised, as given to the linter
    tree: ast.Module
    source: str
    imports: dict[str, str] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    constants: set[str] = field(default_factory=set)


def module_name_for(path: Path) -> str | None:
    """Dotted module name, walking up while ``__init__.py`` marks packages.

    ``src/repro/core/config.py`` → ``repro.core.config``;
    ``src/repro/__init__.py`` → ``repro``.  Returns ``None`` for files
    outside any package (no ``__init__.py`` beside them).
    """
    path = path.resolve()
    parts = [path.stem] if path.name != "__init__.py" else []
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.append(parent.name)
        parent = parent.parent
    if not parts:
        return None
    return ".".join(reversed(parts))


class ProjectModel:
    """All modules of a project, with project-wide name resolution."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        #: alias name → target qualified name (``from x import y`` in an
        #: ``__init__`` re-exports ``pkg.y`` as an alias of ``x.y``).
        self.aliases: dict[str, str] = {}
        #: every fully-qualified definition: functions, methods, classes,
        #: module-level constants.
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.constants: set[str] = set()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, files: Iterable[tuple[Path, str]]) -> "ProjectModel":
        """Parse ``(path, source)`` pairs into a model.

        Files that do not parse or sit outside a package are skipped —
        the per-file phase already reports them (SKL000).
        """
        model = cls()
        for path, source in files:
            name = module_name_for(Path(path))
            if name is None or name in model.modules:
                continue
            try:
                tree = ast.parse(source, filename=str(path))
            except SyntaxError:
                continue
            info = ModuleInfo(
                name=name, path=Path(path).as_posix(), tree=tree, source=source
            )
            model.modules[name] = info
        for info in model.modules.values():
            model._index_module(info)
        for info in model.modules.values():
            model._infer_attr_types(info)
        return model

    def _index_module(self, info: ModuleInfo) -> None:
        package = info.name if _is_package(info) else info.name.rpartition(".")[0]
        for node in info.tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    info.imports[bound] = target
            elif isinstance(node, ast.ImportFrom):
                base = _import_from_base(node, info.name, package)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name
                    info.imports[bound] = f"{base}.{alias.name}"
                    # Importing into a package __init__ re-exports.
                    self.aliases[f"{info.name}.{bound}"] = f"{base}.{alias.name}"
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = self._make_function(info, node, cls=None)
                info.functions[node.name] = fn
                self.functions[fn.qualname] = fn
            elif isinstance(node, ast.ClassDef):
                self._index_class(info, node)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        info.constants.add(target.id)
                        self.constants.add(f"{info.name}.{target.id}")
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                info.constants.add(node.target.id)
                self.constants.add(f"{info.name}.{node.target.id}")

    def _index_class(self, info: ModuleInfo, node: ast.ClassDef) -> None:
        cls_info = ClassInfo(
            qualname=f"{info.name}.{node.name}", module=info.name, node=node
        )
        info.classes[node.name] = cls_info
        self.classes[cls_info.qualname] = cls_info
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = self._make_function(info, stmt, cls=cls_info)
                cls_info.methods[stmt.name] = fn
                self.functions[fn.qualname] = fn

    def _make_function(
        self,
        info: ModuleInfo,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        cls: ClassInfo | None,
    ) -> FunctionInfo:
        prefix = cls.qualname if cls is not None else info.name
        is_property = any(
            (isinstance(d, ast.Name) and d.id == "property")
            or (isinstance(d, ast.Attribute) and d.attr in ("property", "cached_property"))
            for d in node.decorator_list
        )
        fn = FunctionInfo(
            qualname=f"{prefix}.{node.name}",
            module=info.name,
            node=node,
            cls=cls,
            is_property=is_property,
        )
        fn.return_types = self.annotation_types(info, node.returns)
        return fn

    def _infer_attr_types(self, info: ModuleInfo) -> None:
        for cls_info in info.classes.values():
            # Class-level annotations (dataclass fields included).
            for stmt in cls_info.node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name
                ):
                    types = self.annotation_types(info, stmt.annotation)
                    if types:
                        cls_info.attr_types[stmt.target.id] = types
            # ``self.x = ...`` in method bodies.
            for method in cls_info.methods.values():
                param_types = self.parameter_types(info, method)
                for node in ast.walk(method.node):
                    target: ast.expr | None = None
                    value: ast.expr | None = None
                    if isinstance(node, ast.Assign) and len(node.targets) == 1:
                        target, value = node.targets[0], node.value
                    elif isinstance(node, ast.AnnAssign):
                        target, value = node.target, node.value
                    if not (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        continue
                    if isinstance(node, ast.AnnAssign):
                        types = self.annotation_types(info, node.annotation)
                    else:
                        types = self._value_types(info, value, param_types)
                    if types:
                        existing = cls_info.attr_types.get(target.attr, frozenset())
                        cls_info.attr_types[target.attr] = existing | types

    def _value_types(
        self,
        info: ModuleInfo,
        value: ast.expr | None,
        param_types: dict[str, frozenset[str]],
    ) -> frozenset[str]:
        """Types of a right-hand side: constructor calls and typed names."""
        if value is None:
            return frozenset()
        if isinstance(value, ast.Call):
            name = dotted_name(value.func)
            if name is not None:
                resolved = self.resolve(info, name)
                if resolved in self.classes:
                    return frozenset({resolved})
                fn = self.functions.get(resolved)
                if fn is not None:
                    return fn.return_types
        elif isinstance(value, ast.Name):
            return param_types.get(value.id, frozenset())
        elif isinstance(value, ast.IfExp):
            return self._value_types(info, value.body, param_types) | \
                self._value_types(info, value.orelse, param_types)
        return frozenset()

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def canonical(self, qualname: str) -> str:
        """Follow alias (re-export) chains to the defining qualname."""
        seen = set()
        while qualname in self.aliases and qualname not in seen:
            seen.add(qualname)
            qualname = self.aliases[qualname]
        return qualname

    def resolve(self, module: ModuleInfo, dotted: str) -> str:
        """Resolve a dotted name used inside ``module`` to a qualified name.

        ``np.random.default_rng`` → ``numpy.random.default_rng``;
        ``XiGenerator`` → ``repro.sketch.xi.XiGenerator``;  unknown names
        resolve to themselves (builtins, locals).
        """
        head, _, rest = dotted.partition(".")
        if head in module.imports:
            base = module.imports[head]
        elif head in module.functions or head in module.classes or head in module.constants:
            base = f"{module.name}.{head}"
        else:
            base = head
        full = f"{base}.{rest}" if rest else base
        return self.canonical(full)

    def annotation_types(
        self, module: ModuleInfo, annotation: ast.expr | None
    ) -> frozenset[str]:
        """Candidate class qualnames named by an annotation.

        Handles ``X``, ``"X"``, ``X | None``, ``Optional[X]`` and
        ``Union[X, Y]``; containers and primitives resolve to nothing.
        """
        if annotation is None:
            return frozenset()
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            try:
                annotation = ast.parse(annotation.value, mode="eval").body
            except SyntaxError:
                return frozenset()
        if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
            return self.annotation_types(module, annotation.left) | \
                self.annotation_types(module, annotation.right)
        if isinstance(annotation, ast.Subscript):
            name = dotted_name(annotation.value)
            if name is not None and name.rsplit(".", 1)[-1] in ("Optional", "Union"):
                inner = annotation.slice
                elements = inner.elts if isinstance(inner, ast.Tuple) else [inner]
                out: frozenset[str] = frozenset()
                for element in elements:
                    out |= self.annotation_types(module, element)
                return out
            return frozenset()
        name = dotted_name(annotation)
        if name is None or name in _OPAQUE_ANNOTATIONS:
            return frozenset()
        resolved = self.resolve(module, name)
        if resolved in self.classes:
            return frozenset({resolved})
        return frozenset()

    def parameter_types(
        self, module: ModuleInfo, fn: FunctionInfo
    ) -> dict[str, frozenset[str]]:
        """Parameter name → candidate types (``self`` bound to the class)."""
        types: dict[str, frozenset[str]] = {}
        args = fn.node.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            annotated = self.annotation_types(module, arg.annotation)
            if annotated:
                types[arg.arg] = annotated
        if fn.cls is not None:
            params = fn.param_names
            if params and params[0] in ("self", "cls"):
                types[params[0]] = frozenset({fn.cls.qualname})
        return types

    def attribute_types(
        self, base_types: frozenset[str], attr: str
    ) -> frozenset[str]:
        """Types of ``obj.attr`` given candidate types of ``obj``.

        Looks at inferred attribute types first, then at ``@property``
        return annotations.
        """
        out: frozenset[str] = frozenset()
        for cls_name in base_types:
            cls_info = self.classes.get(cls_name)
            if cls_info is None:
                continue
            out |= cls_info.attr_types.get(attr, frozenset())
            method = cls_info.methods.get(attr)
            if method is not None and method.is_property:
                out |= method.return_types
        return out

    def lookup_method(
        self, base_types: frozenset[str], name: str
    ) -> list[FunctionInfo]:
        """Methods named ``name`` on any of the candidate classes, or
        inherited from their project-internal bases (depth first)."""
        found = []
        for cls_name in base_types:
            method = self._inherited(cls_name, name, set())
            if method is not None:
                found.append(method)
        return found

    def _inherited(
        self, cls_name: str, name: str, seen: set[str]
    ) -> FunctionInfo | None:
        cls_info = self.classes.get(cls_name)
        if cls_info is None or cls_name in seen:
            return None
        seen.add(cls_name)
        if name in cls_info.methods:
            return cls_info.methods[name]
        module = self.modules[cls_info.module]
        for base in cls_info.node.bases:
            dotted = dotted_name(base)
            if dotted is not None:
                method = self._inherited(self.resolve(module, dotted), name, seen)
                if method is not None:
                    return method
        return None


def _is_package(info: ModuleInfo) -> bool:
    return info.path.endswith("__init__.py")


def _import_from_base(
    node: ast.ImportFrom, module_name: str, package: str
) -> str | None:
    """Absolute base module for an ``from ... import`` statement."""
    if node.level == 0:
        return node.module
    # Relative import: climb ``level`` packages from the containing package.
    parts = package.split(".") if package else []
    climb = node.level - 1
    if climb > len(parts):
        return None
    base_parts = parts[: len(parts) - climb] if climb else parts
    if node.module:
        base_parts = base_parts + node.module.split(".")
    return ".".join(base_parts) if base_parts else None
