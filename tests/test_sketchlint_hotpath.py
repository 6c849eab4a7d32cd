"""Tests for sketchlint's hot-path phase (SKL301–SKL305), the
``--explain-hot`` report, and ``--update-baseline``'s prune-on-write.

Rule fixtures live under ``tests/fixtures/sketchlint/hotpath`` as a
mini-project analysed with a *custom* :class:`HotPathConfig` whose
entrypoint glob makes every fixture function hot.  The
acceptance-mutation tests run the real analysis over the real ``src/``
tree with one performance fix surgically reverted, pinning that the
rules would catch exactly the regressions this phase exists to prevent.
"""

import json
from pathlib import Path

import pytest

from tools.sketchlint.cli import main as cli_main
from tools.sketchlint.semantic import analyze_project
from tools.sketchlint.semantic.callgraph import CallGraph
from tools.sketchlint.semantic.hotpath import (
    DEFAULT_CONFIG,
    HotPathConfig,
    check_hotpath,
    explain_hot,
    hot_functions,
)
from tools.sketchlint.semantic.model import ProjectModel

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "sketchlint" / "hotpath"

#: Every fixture function is a hot entrypoint; both Batch classes carry
#: columnar ndarray attributes.
APP_CONFIG = HotPathConfig(
    entrypoints=("app.*",),
    columnar_attrs=(
        ("app.skl302_columnar.Batch", ("values", "counts")),
        ("app.pipeline.Batch", ("values", "counts")),
    ),
)


def write_project(tmp_path: Path, files: dict[str, str]) -> Path:
    """Materialise ``relative path -> source`` as a package tree."""
    root = tmp_path / "proj"
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
        for parent in path.parents:
            if parent == root:
                break
            init = parent / "__init__.py"
            if not init.exists():
                init.write_text("", encoding="utf-8")
    return root


def pairs_under(root: Path):
    return [
        (path, path.read_text(encoding="utf-8"))
        for path in sorted(root.rglob("*.py"))
    ]


def run_hotpath(pairs, config=APP_CONFIG):
    model = ProjectModel.build(pairs)
    graph = CallGraph.build(model)
    return check_hotpath(model, graph, config)


def run_project(tmp_path, files, config=APP_CONFIG):
    return run_hotpath(pairs_under(write_project(tmp_path, files)), config)


def rules_of(violations):
    return sorted({v.rule for v in violations})


class TestFixtures:
    def test_bad_fixtures_fire_exactly_their_rule(self):
        violations = run_hotpath(pairs_under(FIXTURES / "bad"))
        by_file: dict[str, set] = {}
        for violation in violations:
            by_file.setdefault(Path(violation.path).stem, set()).add(violation.rule)
        by_file.pop("__init__", None)
        assert by_file == {
            "skl301_double_consume": {"SKL301"},
            "skl302_columnar": {"SKL302"},
            "skl303_alloc": {"SKL303"},
            "skl304_astype": {"SKL304"},
            "skl305_obs": {"SKL305"},
        }

    def test_clean_fixtures_have_no_findings(self):
        assert run_hotpath(pairs_under(FIXTURES / "clean")) == []


class TestSKL301SingleUse:
    def test_iterator_reconsumed_inside_a_loop(self, tmp_path):
        violations = run_project(
            tmp_path,
            {
                "app/mod.py": (
                    "def widest(rows, cols):\n"
                    "    pairs = zip(rows, cols)\n"
                    "    best = 0\n"
                    "    for _ in range(3):\n"
                    "        best = max(best, sum(pairs))\n"
                    "    return best\n"
                ),
            },
        )
        assert rules_of(violations) == ["SKL301"]
        assert "pairs" in violations[0].message

    def test_iterable_param_consumed_per_bucket(self, tmp_path):
        # The WindowedSketchTree.estimate_sum bug class in miniature.
        violations = run_project(
            tmp_path,
            {
                "app/mod.py": (
                    "from typing import Iterable\n"
                    "def spread(queries: Iterable, buckets):\n"
                    "    return sum(b.score(queries) for b in buckets)\n"
                ),
            },
        )
        assert rules_of(violations) == ["SKL301"]

    def test_materialised_param_is_clean(self, tmp_path):
        violations = run_project(
            tmp_path,
            {
                "app/mod.py": (
                    "from typing import Iterable\n"
                    "def spread(queries: Iterable, buckets):\n"
                    "    queries = list(queries)\n"
                    "    return sum(b.score(queries) for b in buckets)\n"
                ),
            },
        )
        assert violations == []

    def test_early_return_paths_do_not_double_count(self, tmp_path):
        # `return run(trees)` ends its control path; the later iter() is
        # the first consumption on the fall-through path.
        violations = run_project(
            tmp_path,
            {
                "app/mod.py": (
                    "from typing import Iterable\n"
                    "def resume(restored, trees: Iterable):\n"
                    "    if restored is None:\n"
                    "        return list(trees)\n"
                    "    it = iter(trees)\n"
                    "    next(it, None)\n"
                    "    return list(it)\n"
                ),
            },
        )
        assert violations == []

    def test_numpy_generator_param_is_not_one_shot(self, tmp_path):
        violations = run_project(
            tmp_path,
            {
                "app/mod.py": (
                    "import numpy as np\n"
                    "def draw(rng: np.random.Generator, n: int):\n"
                    "    return [rng.integers(10) for _ in range(n)]\n"
                ),
            },
        )
        assert violations == []

    def test_sequence_param_consumed_twice_is_clean(self, tmp_path):
        violations = run_project(
            tmp_path,
            {
                "app/mod.py": (
                    "from typing import Sequence\n"
                    "def both(values: Sequence):\n"
                    "    return sum(values), max(values)\n"
                ),
            },
        )
        assert violations == []


class TestSKL303Allocation:
    def test_variant_allocation_is_clean(self, tmp_path):
        violations = run_project(
            tmp_path,
            {
                "app/mod.py": (
                    "import numpy as np\n"
                    "def ingest(rows):\n"
                    "    out = []\n"
                    "    for row in rows:\n"
                    "        out.append(np.zeros(row))\n"  # depends on row
                    "    return out\n"
                ),
            },
        )
        assert violations == []

    def test_concatenate_outside_loop_is_clean(self, tmp_path):
        violations = run_project(
            tmp_path,
            {
                "app/mod.py": (
                    "import numpy as np\n"
                    "def ingest(chunks):\n"
                    "    parts = list(chunks)\n"
                    "    return np.concatenate(parts)\n"
                ),
            },
        )
        assert violations == []

    def test_self_mutating_loop_chains_are_not_invariant(self, tmp_path):
        # The WindowedSketchTree._rotate pattern: a self-method call in
        # the loop may rewrite any attribute, so repeated self.* chains
        # must not be reported as hoistable.
        violations = run_project(
            tmp_path,
            {
                "app/mod.py": (
                    "class Window:\n"
                    "    def ingest(self, trees):\n"
                    "        for tree in trees:\n"
                    "            self.bucket.synopsis.add(tree)\n"
                    "            if self.bucket.synopsis.full():\n"
                    "                self._rotate()\n"
                    "    def _rotate(self):\n"
                    "        self.bucket = None\n"
                ),
            },
            HotPathConfig(entrypoints=("app.mod.Window.ingest",), columnar_attrs=()),
        )
        assert [v for v in violations if v.rule == "SKL303"] == []

    def test_cold_functions_are_not_checked(self, tmp_path):
        violations = run_project(
            tmp_path,
            {
                "app/mod.py": (
                    "import numpy as np\n"
                    "def offline(chunks):\n"
                    "    acc = np.zeros(2)\n"
                    "    for chunk in chunks:\n"
                    "        acc = np.concatenate([acc, chunk])\n"
                    "    return acc\n"
                ),
            },
            HotPathConfig(entrypoints=("app.mod.nothing_matches",), columnar_attrs=()),
        )
        assert violations == []

    def test_hot_helper_reached_transitively(self, tmp_path):
        violations = run_project(
            tmp_path,
            {
                "app/mod.py": (
                    "import numpy as np\n"
                    "def ingest(chunks):\n"
                    "    return _apply(chunks)\n"
                    "def _apply(chunks):\n"
                    "    acc = np.zeros(2)\n"
                    "    for chunk in chunks:\n"
                    "        acc = np.concatenate([acc, chunk])\n"
                    "    return acc\n"
                ),
            },
            HotPathConfig(entrypoints=("app.mod.ingest",), columnar_attrs=()),
        )
        assert rules_of(violations) == ["SKL303"]
        assert "ingest -> app.mod._apply" in violations[0].message


class TestSKL305Observability:
    def test_while_true_event_loop_try_is_exempt(self, tmp_path):
        violations = run_project(
            tmp_path,
            {
                "app/mod.py": (
                    "def drain(queue):\n"
                    "    while True:\n"
                    "        try:\n"
                    "            item = queue.get()\n"
                    "        except TimeoutError:\n"
                    "            return\n"
                ),
            },
        )
        assert violations == []

    def test_try_amortised_over_inner_loop_is_exempt(self, tmp_path):
        violations = run_project(
            tmp_path,
            {
                "app/mod.py": (
                    "def ingest(groups):\n"
                    "    out = []\n"
                    "    for group in groups:\n"
                    "        try:\n"
                    "            for row in group:\n"
                    "                out.append(row)\n"
                    "        except ValueError:\n"
                    "            continue\n"
                    "    return out\n"
                ),
            },
        )
        assert violations == []

    def test_observe_batch_is_the_fix(self, tmp_path):
        violations = run_project(
            tmp_path,
            {
                "app/mod.py": (
                    "def ingest(histogram, batches):\n"
                    "    for batch in batches:\n"
                    "        histogram.observe_batch(batch)\n"
                ),
            },
        )
        assert violations == []


class TestExplainHot:
    def test_hot_set_includes_transitive_callees_with_chains(self, tmp_path):
        root = write_project(
            tmp_path,
            {
                "app/mod.py": (
                    "def ingest(trees):\n"
                    "    return _helper(trees)\n"
                    "def _helper(trees):\n"
                    "    return list(trees)\n"
                    "def cold(trees):\n"
                    "    return None\n"
                ),
            },
        )
        pairs = pairs_under(root)
        model = ProjectModel.build(pairs)
        graph = CallGraph.build(model)
        config = HotPathConfig(entrypoints=("app.mod.ingest",), columnar_attrs=())
        chains = hot_functions(model, graph, config)
        assert set(chains) == {"app.mod.ingest", "app.mod._helper"}
        assert chains["app.mod._helper"] == ["app.mod.ingest", "app.mod._helper"]
        report = explain_hot(model, graph, config)
        assert "hot set: 2 functions" in report
        assert "app.mod.ingest -> app.mod._helper" in report

    def test_cli_explain_hot_over_real_src(self, capsys):
        rc = cli_main(["--explain-hot", "src"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "repro.core.sketchtree.SketchTree.update_batch" in out
        assert "repro.core.virtual.VirtualStreams.update_batch" in out
        assert "via:" in out

    def test_default_entrypoints_cover_the_serving_read_path(self):
        pairs = _src_pairs()
        model = ProjectModel.build(pairs)
        graph = CallGraph.build(model)
        chains = hot_functions(model, graph, DEFAULT_CONFIG)
        assert "repro.serve.service.ShardedService.estimate" in chains
        assert "repro.core.view.CounterView.estimate_sum" in chains
        assert "repro.core.view.CounterReads.estimate_sum_grouped" in chains
        assert "repro.enumtree.enumerate.collect_forest_patterns" in chains


class TestUpdateBaselinePrune:
    # SKL003 (mutable default) fires regardless of the file's path.
    FLAGGED_SOURCE = "def roll(seen=[]):\n    return seen\n"

    def _update(self, target: Path, baseline: Path) -> int:
        return cli_main(
            [
                str(target),
                "--baseline",
                str(baseline),
                "--update-baseline",
                "--no-semantic",
            ]
        )

    def test_entries_for_deleted_files_are_pruned(self, tmp_path, capsys):
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        a_dir.mkdir()
        b_dir.mkdir()
        (a_dir / "mod_a.py").write_text(self.FLAGGED_SOURCE, encoding="utf-8")
        (b_dir / "mod_b.py").write_text(self.FLAGGED_SOURCE, encoding="utf-8")
        baseline = tmp_path / "baseline.json"

        assert self._update(a_dir, baseline) == 0
        first = json.loads(baseline.read_text(encoding="utf-8"))["findings"]
        assert len(first) == 1

        # File a disappears; updating over b alone must prune a's entry.
        (a_dir / "mod_a.py").unlink()
        assert self._update(b_dir, baseline) == 0
        second = json.loads(baseline.read_text(encoding="utf-8"))["findings"]
        assert len(second) == 1
        (entry,) = second.values()
        assert entry["path"].endswith("mod_b.py")
        assert "pruned" in capsys.readouterr().out

    def test_entries_for_existing_out_of_scope_files_are_retained(self, tmp_path):
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        a_dir.mkdir()
        b_dir.mkdir()
        (a_dir / "mod_a.py").write_text(self.FLAGGED_SOURCE, encoding="utf-8")
        (b_dir / "mod_b.py").write_text(self.FLAGGED_SOURCE, encoding="utf-8")
        baseline = tmp_path / "baseline.json"

        assert self._update(a_dir, baseline) == 0
        assert self._update(b_dir, baseline) == 0
        findings = json.loads(baseline.read_text(encoding="utf-8"))["findings"]
        paths = sorted(entry["path"] for entry in findings.values())
        assert len(findings) == 2
        assert paths[0].endswith("mod_a.py") and paths[1].endswith("mod_b.py")

    def test_relinted_paths_are_replaced_not_duplicated(self, tmp_path):
        a_dir = tmp_path / "a"
        a_dir.mkdir()
        target = a_dir / "mod_a.py"
        target.write_text(self.FLAGGED_SOURCE, encoding="utf-8")
        baseline = tmp_path / "baseline.json"
        assert self._update(a_dir, baseline) == 0

        target.write_text("VALUE = 1\n", encoding="utf-8")  # now clean
        assert self._update(a_dir, baseline) == 0
        findings = json.loads(baseline.read_text(encoding="utf-8"))["findings"]
        assert findings == {}


def _src_pairs(mutate: dict[str, tuple[str, str]] | None = None):
    """All of src/ as ``(path, source)``, with optional string surgeries.

    ``mutate`` maps a path suffix to an ``(old, new)`` replacement; the
    test fails if the old text is missing (the fixture went stale).
    """
    pairs = []
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        if mutate:
            for suffix, (old, new) in mutate.items():
                if path.as_posix().endswith(suffix):
                    assert old in source, f"stale mutation fixture for {suffix}"
                    source = source.replace(old, new)
        pairs.append((path, source))
    return pairs


SKL3XX = {"SKL301", "SKL302", "SKL303", "SKL304", "SKL305"}


class TestAcceptanceMutations:
    """Re-introducing the bugs this phase fixed must trip the analysis."""

    def test_real_src_is_clean(self):
        assert analyze_project(_src_pairs(), select=SKL3XX) == []

    def test_estimate_sum_generator_bug_trips_skl301(self):
        # A silent-undercount bug: reading the query iterable twice, so
        # a generator argument is exhausted by the first pass and the
        # second sees nothing.
        mutated = _src_pairs(
            mutate={
                "repro/core/view.py": (
                    "        patterns = [self._checked(q) for q in queries]\n"
                    "        distinct = list(dict.fromkeys(patterns))\n"
                    "        if len(distinct) != len(patterns):\n",
                    "        distinct = list(dict.fromkeys(self._checked(q) for q in queries))\n"
                    "        if len(distinct) != len(list(queries)):\n",
                )
            }
        )
        violations = analyze_project(mutated, select={"SKL301"})
        assert any(
            v.rule == "SKL301" and v.path.endswith("repro/core/view.py")
            for v in violations
        )

    def test_concatenate_in_hot_loop_trips_skl303(self):
        # Rebuilding the group-edge array with np.concatenate inside the
        # chunk loop is the quadratic-growth pattern SKL303 exists for.
        mutated = _src_pairs(
            mutate={
                "repro/core/virtual.py": (
                    "            edges = np.empty(len(change) + 2, dtype=np.int64)\n"
                    "            edges[0] = 0\n"
                    "            edges[1:-1] = change\n"
                    "            edges[-1] = hi - lo\n",
                    "            edges = np.concatenate(([0], change, [hi - lo]))\n",
                )
            }
        )
        violations = analyze_project(mutated, select={"SKL303"})
        assert any(
            v.rule == "SKL303" and v.path.endswith("repro/core/virtual.py")
            for v in violations
        )
