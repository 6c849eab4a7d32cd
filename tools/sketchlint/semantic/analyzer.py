"""Entry point for the semantic phase: files in, violations out."""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Iterable

from tools.sketchlint.semantic.callgraph import CallGraph
from tools.sketchlint.semantic.concurrency import check_concurrency
from tools.sketchlint.semantic.dataflow import DataflowAnalysis
from tools.sketchlint.semantic.hotpath import check_hotpath
from tools.sketchlint.semantic.model import ProjectModel
from tools.sketchlint.semantic.rules import (
    SEMANTIC_RULES_BY_ID,
    check_estimator_purity,
    check_numpy_deserialisation,
    check_snapshot_reachability,
)
from tools.sketchlint.suppress import filter_suppressed
from tools.sketchlint.violations import Violation

Analysis = Callable[[ProjectModel, CallGraph], list[Violation]]

#: Every semantic analysis, with the rule ids it can report.  Each runs
#: only when one of its rules is selected; all share one project model
#: and one call graph.
ANALYSES: tuple[tuple[frozenset[str], Analysis], ...] = (
    (
        frozenset({"SKL101", "SKL102"}),
        lambda model, graph: DataflowAnalysis(model).run(),
    ),
    (frozenset({"SKL103"}), check_snapshot_reachability),
    (frozenset({"SKL104"}), check_estimator_purity),
    (
        frozenset({"SKL105"}),
        lambda model, graph: check_numpy_deserialisation(model),
    ),
    (
        frozenset({"SKL201", "SKL202", "SKL203", "SKL204", "SKL205"}),
        check_concurrency,
    ),
    (
        frozenset({"SKL301", "SKL302", "SKL303", "SKL304", "SKL305"}),
        check_hotpath,
    ),
)


def analyze_project(
    files: Iterable[tuple[Path, str]],
    select: Iterable[str] | None = None,
) -> list[Violation]:
    """Run the whole-project phase over ``(path, source)`` pairs.

    ``select`` restricts the run to the given semantic rule ids (None =
    all): only the analyses that can report one of them run.
    Suppression comments (line- and file-level) are honoured.
    """
    if select is None:
        wanted = set(SEMANTIC_RULES_BY_ID)
    else:
        wanted = {token.strip().upper() for token in select}
    model = ProjectModel.build(files)
    graph = CallGraph.build(model)
    violations: list[Violation] = []
    for rules, analysis in ANALYSES:
        if rules & wanted:
            violations += analysis(model, graph)
    violations = [v for v in violations if v.rule in wanted]
    sources = {info.path: info.source for info in model.modules.values()}
    violations = filter_suppressed(sorted(set(violations), key=Violation.sort_key), sources)
    return violations


def analyze_paths(
    paths: Iterable[str | Path],
    select: Iterable[str] | None = None,
) -> list[Violation]:
    """Discover files under ``paths`` and run :func:`analyze_project`."""
    from tools.sketchlint.engine import iter_python_files  # avoid cycle

    files: list[tuple[Path, str]] = []
    for file_path in iter_python_files(paths):
        try:
            files.append((file_path, file_path.read_text(encoding="utf-8")))
        except (OSError, UnicodeDecodeError):
            continue  # the per-file phase reports unreadable files
    return analyze_project(files, select)
