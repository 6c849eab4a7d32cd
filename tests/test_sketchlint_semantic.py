"""Tests for sketchlint's whole-project semantic phase (SKL101-SKL105),
the baseline file, SARIF output and the reworked CLI exit codes.

Fixture mini-projects are written to ``tmp_path`` from inline dicts: the
semantic phase designates its sources and sinks by qualified name
(``repro.hashing.pairing``, ``repro.core.config``, …), so each fixture
recreates the package paths it needs.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tools.sketchlint.baseline import (
    finding_keys,
    load_baseline,
    render_baseline,
    split_baselined,
)
from tools.sketchlint.semantic import analyze_paths, analyze_project
from tools.sketchlint.semantic.callgraph import CallGraph
from tools.sketchlint.semantic.dataflow import DataflowAnalysis
from tools.sketchlint.semantic.model import ProjectModel
from tools.sketchlint.suppress import Suppressions
from tools.sketchlint.violations import Violation

REPO_ROOT = Path(__file__).resolve().parent.parent

PAIRING = """
def pair2(x, y):
    return (x + y) * (x + y + 1) // 2 + y

def pair_sequence(values):
    out = 0
    for v in values:
        out = pair2(out, v)
    return out

def fold_to_width(value, bits):
    return value % (1 << bits)
"""

CONFIG = """
DEFAULT_SEED = 0
XI_SEED_OFFSET = 101
"""

AMS = """
import numpy as np


class SketchMatrix:
    def __init__(self, s1, s2):
        self.counters = np.zeros((s2, s1), dtype=np.int64)

    def update_batch(self, values, counts):
        values = np.asarray(values, dtype=np.int64)
        self.counters[0, :] += values * counts

    def estimate_batch(self, values):
        values = np.asarray(values, dtype=np.int64)
        return self.counters[0, values % self.counters.shape[1]]
"""


def write_project(tmp_path: Path, files: dict[str, str]) -> Path:
    """Materialise ``relative path -> source`` as a package tree."""
    root = tmp_path / "proj"
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
        # Every ancestor directory under the root is a package.
        for parent in path.parents:
            if parent == root:
                break
            init = parent / "__init__.py"
            if not init.exists():
                init.write_text("", encoding="utf-8")
    return root


def rules_of(violations):
    return sorted({v.rule for v in violations})


class TestProjectModel:
    def test_reexport_resolution_through_init(self, tmp_path):
        root = write_project(
            tmp_path,
            {
                "repro/sketch/xi.py": (
                    "class XiGenerator:\n"
                    "    def __init__(self, seed):\n"
                    "        self.seed = seed\n"
                ),
                "repro/sketch/__init__.py": "from repro.sketch.xi import XiGenerator\n",
                "repro/__init__.py": "from repro.sketch import XiGenerator\n",
                "repro/use.py": (
                    "from repro import XiGenerator\n"
                    "def make():\n"
                    "    return XiGenerator(seed=1)\n"
                ),
            },
        )
        files = [(p, p.read_text()) for p in sorted(root.rglob("*.py"))]
        model = ProjectModel.build(files)
        # The two-level alias chain collapses to the defining qualname.
        assert (
            model.canonical("repro.XiGenerator")
            == "repro.sketch.xi.XiGenerator"
        )
        use = model.modules["repro.use"]
        assert (
            model.resolve(use, "XiGenerator") == "repro.sketch.xi.XiGenerator"
        )
        # And the call graph lands on the re-exported class's __init__.
        graph = CallGraph.build(model)
        callees = {s.callee for s in graph.callees("repro.use.make")}
        assert "repro.sketch.xi.XiGenerator.__init__" in callees

    def test_relative_imports_resolve(self, tmp_path):
        root = write_project(
            tmp_path,
            {
                "repro/a.py": "def helper():\n    return 1\n",
                "repro/b.py": (
                    "from . import a\n"
                    "from .a import helper\n"
                    "def caller():\n"
                    "    return helper() + a.helper()\n"
                ),
            },
        )
        files = [(p, p.read_text()) for p in sorted(root.rglob("*.py"))]
        model = ProjectModel.build(files)
        graph = CallGraph.build(model)
        callees = [s.callee for s in graph.callees("repro.b.caller")]
        assert callees.count("repro.a.helper") == 2

    def test_call_graph_reachability_chain(self, tmp_path):
        root = write_project(
            tmp_path,
            {
                "repro/core/snapshot.py": (
                    "from repro.core.io import write_payload\n"
                    "def save_snapshot(tree, path):\n"
                    "    write_payload(tree, path)\n"
                ),
                "repro/core/io.py": (
                    "from repro.core.codec import encode\n"
                    "def write_payload(tree, path):\n"
                    "    return encode(tree)\n"
                ),
                "repro/core/codec.py": "def encode(tree):\n    return b''\n",
                "repro/core/unrelated.py": "def island():\n    return 0\n",
            },
        )
        files = [(p, p.read_text()) for p in sorted(root.rglob("*.py"))]
        model = ProjectModel.build(files)
        graph = CallGraph.build(model)
        chains = graph.reachable_from(["repro.core.snapshot.save_snapshot"])
        assert chains["repro.core.codec.encode"] == [
            "repro.core.snapshot.save_snapshot",
            "repro.core.io.write_payload",
            "repro.core.codec.encode",
        ]
        assert "repro.core.unrelated.island" not in chains

    def test_method_resolution_via_annotation_and_constructor(self, tmp_path):
        root = write_project(
            tmp_path,
            {
                "repro/sketch/ams.py": AMS,
                "repro/use.py": (
                    "from repro.sketch.ams import SketchMatrix\n"
                    "def annotated(sketch: SketchMatrix):\n"
                    "    sketch.update_batch([1], [1])\n"
                    "def constructed():\n"
                    "    local = SketchMatrix(4, 2)\n"
                    "    local.update_batch([1], [1])\n"
                    "def untyped(sketch):\n"
                    "    sketch.update_batch([1], [1])\n"
                ),
            },
        )
        files = [(p, p.read_text()) for p in sorted(root.rglob("*.py"))]
        model = ProjectModel.build(files)
        graph = CallGraph.build(model)
        target = "repro.sketch.ams.SketchMatrix.update_batch"
        assert target in {s.callee for s in graph.callees("repro.use.annotated")}
        assert target in {s.callee for s in graph.callees("repro.use.constructed")}
        # Unknown receivers get no edge: under-approximation by design.
        assert target not in {s.callee for s in graph.callees("repro.use.untyped")}


class TestSKL101:
    def test_mutation_unreduced_pairing_into_update_batch(self, tmp_path):
        """Acceptance mutation: a raw pairing value batched into int64."""
        root = write_project(
            tmp_path,
            {
                "repro/hashing/pairing.py": PAIRING,
                "repro/sketch/ams.py": AMS,
                "repro/use.py": (
                    "from repro.hashing.pairing import pair2\n"
                    "from repro.sketch.ams import SketchMatrix\n"
                    "def mutated(sketch: SketchMatrix, a, b):\n"
                    "    code = pair2(a, b)\n"
                    "    sketch.update_batch([code], [1])\n"
                ),
            },
        )
        violations = analyze_paths([root])
        assert rules_of(violations) == ["SKL101"]
        (violation,) = violations
        assert "values" in violation.message
        assert "update_batch" in violation.message

    def test_direct_asarray_narrowing(self, tmp_path):
        root = write_project(
            tmp_path,
            {
                "repro/hashing/pairing.py": PAIRING,
                "repro/enc.py": (
                    "import numpy as np\n"
                    "from repro.hashing.pairing import pair_sequence\n"
                    "def narrow(values):\n"
                    "    code = pair_sequence(values)\n"
                    "    return np.asarray([code], dtype=np.int64)\n"
                ),
            },
        )
        assert rules_of(analyze_paths([root])) == ["SKL101"]

    def test_reduced_flow_is_clean(self, tmp_path):
        root = write_project(
            tmp_path,
            {
                "repro/hashing/pairing.py": PAIRING,
                "repro/sketch/ams.py": AMS,
                "repro/use.py": (
                    "from repro.hashing.pairing import pair2, fold_to_width\n"
                    "from repro.sketch.ams import SketchMatrix\n"
                    "def reduced(sketch: SketchMatrix, a, b):\n"
                    "    code = fold_to_width(pair2(a, b), 31)\n"
                    "    sketch.update_batch([code], [1])\n"
                    "def modded(sketch: SketchMatrix, a, b):\n"
                    "    code = pair2(a, b) % (2**31 - 1)\n"
                    "    sketch.update_batch([code], [1])\n"
                ),
            },
        )
        assert analyze_paths([root]) == []

    def test_big_dict_keys_do_not_poison_values_slot(self, tmp_path):
        """update_counts-style precision: keys are reduced inside the
        callee, only the *values* slot is narrowed — big keys are fine."""
        root = write_project(
            tmp_path,
            {
                "repro/hashing/pairing.py": PAIRING,
                "repro/sketch/cs.py": (
                    "import numpy as np\n"
                    "P = 2**31 - 1\n"
                    "class CountSketch:\n"
                    "    def update_counts(self, counts_by_value):\n"
                    "        values = np.fromiter(\n"
                    "            (v % P for v in counts_by_value), dtype=np.int64,\n"
                    "            count=len(counts_by_value),\n"
                    "        )\n"
                    "        counts = np.fromiter(\n"
                    "            counts_by_value.values(), dtype=np.int64,\n"
                    "            count=len(counts_by_value),\n"
                    "        )\n"
                    "        return values, counts\n"
                ),
                "repro/use.py": (
                    "from repro.hashing.pairing import pair2\n"
                    "from repro.sketch.cs import CountSketch\n"
                    "def ok(sketch: CountSketch, a, b):\n"
                    "    table = {pair2(a, b): 3}\n"
                    "    sketch.update_counts(table)\n"
                    "def bad(sketch: CountSketch, a, b):\n"
                    "    table = {7: pair2(a, b)}\n"
                    "    sketch.update_counts(table)\n"
                ),
            },
        )
        violations = analyze_paths([root])
        assert rules_of(violations) == ["SKL101"]
        (violation,) = violations
        assert violation.line == 8  # only the call with the big-*values* table


class TestSKL102:
    def test_mutation_seed_laundered_through_helper(self, tmp_path):
        """Acceptance mutation: random.Random(0) laundered via a helper
        module, then used to seed the ξ generator / np RNG."""
        root = write_project(
            tmp_path,
            {
                "repro/core/config.py": CONFIG,
                "repro/sketch/xi.py": (
                    "class XiGenerator:\n"
                    "    def __init__(self, n, seed):\n"
                    "        self.n = n\n"
                    "        self.seed = seed\n"
                ),
                "repro/experiments/helper.py": (
                    "import random\n"
                    "def make_seed():\n"
                    "    return random.Random(0).random()\n"
                ),
                "repro/experiments/run.py": (
                    "import numpy as np\n"
                    "from repro.experiments.helper import make_seed\n"
                    "from repro.sketch.xi import XiGenerator\n"
                    "def mutated_rng():\n"
                    "    return np.random.default_rng(make_seed())\n"
                    "def mutated_xi():\n"
                    "    return XiGenerator(8, seed=make_seed())\n"
                ),
            },
        )
        violations = analyze_paths([root], select=["SKL102"])
        assert [v.rule for v in violations] == ["SKL102", "SKL102"]
        lines = {v.line for v in violations}
        assert lines == {5, 7}  # both the np RNG and the ξ constructor

    def test_config_seed_is_clean(self, tmp_path):
        root = write_project(
            tmp_path,
            {
                "repro/core/config.py": CONFIG,
                "repro/experiments/run.py": (
                    "import numpy as np\n"
                    "from repro.core.config import DEFAULT_SEED, XI_SEED_OFFSET\n"
                    "def good_rng():\n"
                    "    return np.random.default_rng(DEFAULT_SEED ^ XI_SEED_OFFSET)\n"
                    "def derived(offset):\n"
                    "    return np.random.default_rng(DEFAULT_SEED + offset)\n"
                ),
            },
        )
        assert analyze_paths([root], select=["SKL102"]) == []


class TestSKL103:
    def test_pickle_and_nondeterminism_reachable(self, tmp_path):
        root = write_project(
            tmp_path,
            {
                "repro/core/snapshot.py": (
                    "from repro.core.codec import encode\n"
                    "def save_snapshot(tree, path):\n"
                    "    return encode(tree)\n"
                ),
                "repro/core/codec.py": (
                    "import time\n"
                    "def encode(tree):\n"
                    "    import pickle\n"
                    "    stamp = time.time()\n"
                    "    return pickle.dumps((stamp, tree))\n"
                ),
            },
        )
        violations = analyze_paths([root], select=["SKL103"])
        messages = " | ".join(v.message for v in violations)
        assert "'pickle' imported inside" in messages
        assert "pickle.dumps" in messages
        assert "nondeterministic call time.time" in messages
        # Sample chains report how the sink is reached.
        assert "repro.core.snapshot.save_snapshot -> repro.core.codec.encode" in messages

    def test_module_level_pickle_in_reachable_module(self, tmp_path):
        root = write_project(
            tmp_path,
            {
                "repro/core/snapshot.py": (
                    "from repro.core.tree import to_bytes\n"
                    "def save_snapshot(tree):\n"
                    "    return to_bytes(tree)\n"
                ),
                "repro/core/tree.py": (
                    "import pickle\n"
                    "def to_bytes(tree):\n"
                    "    return b''\n"
                ),
            },
        )
        violations = analyze_paths([root], select=["SKL103"])
        assert any("module-level import of 'pickle'" in v.message for v in violations)

    def test_quarantined_pickle_and_fsync_are_clean(self, tmp_path):
        root = write_project(
            tmp_path,
            {
                "repro/core/snapshot.py": (
                    "import os\n"
                    "def save_snapshot(tree, path):\n"
                    "    tmp = f'{path}.{os.getpid()}.tmp'\n"
                    "    os.replace(tmp, path)\n"
                    "    return tmp\n"
                ),
                "repro/core/tree.py": (
                    "def from_legacy_pickle(blob):\n"
                    "    import pickle\n"  # never called from snapshot path
                    "    return pickle.loads(blob)\n"
                ),
            },
        )
        assert analyze_paths([root], select=["SKL103"]) == []


class TestSKL104:
    def test_estimator_writing_counters_is_flagged(self, tmp_path):
        root = write_project(
            tmp_path,
            {
                "repro/sketch/est.py": (
                    "class Sketch:\n"
                    "    def estimate_batch(self, values):\n"
                    "        return self._lookup(values)\n"
                    "    def _lookup(self, values):\n"
                    "        self.counters[0] += 1\n"
                    "        return self.counters[0]\n"
                ),
            },
        )
        violations = analyze_paths([root], select=["SKL104"])
        (violation,) = violations
        assert "_lookup" in violation.message
        assert "estimate_batch" in violation.message

    def test_fresh_local_and_init_writes_are_clean(self, tmp_path):
        root = write_project(
            tmp_path,
            {
                "repro/sketch/est.py": (
                    "import numpy as np\n"
                    "class Sketch:\n"
                    "    def __init__(self, n):\n"
                    "        self.counters = np.zeros(n, dtype=np.int64)\n"
                    "    def estimate_merged(self, other):\n"
                    "        combined = Sketch(4)\n"
                    "        combined.counters = self.counters + other\n"
                    "        return combined.counters.sum()\n"
                ),
            },
        )
        assert analyze_paths([root], select=["SKL104"]) == []


class TestSKL105:
    def test_unsafe_numpy_deserialisation(self, tmp_path):
        root = write_project(
            tmp_path,
            {
                "repro/core/io.py": (
                    "import io\n"
                    "import numpy as np\n"
                    "def load_a(payload):\n"
                    "    return np.load(io.BytesIO(payload))\n"
                    "def load_b(payload):\n"
                    "    return np.load(io.BytesIO(payload), allow_pickle=True)\n"
                    "def load_c(buffer):\n"
                    "    return np.frombuffer(buffer)\n"
                ),
            },
        )
        violations = analyze_paths([root], select=["SKL105"])
        assert [v.rule for v in violations] == ["SKL105"] * 3
        assert {v.line for v in violations} == {4, 6, 8}

    def test_explicit_dtype_and_allow_pickle_false_are_clean(self, tmp_path):
        root = write_project(
            tmp_path,
            {
                "repro/core/io.py": (
                    "import io\n"
                    "import numpy as np\n"
                    "def load_a(payload):\n"
                    "    return np.load(io.BytesIO(payload), allow_pickle=False)\n"
                    "def load_c(buffer):\n"
                    "    return np.frombuffer(buffer, dtype=np.int64)\n"
                ),
            },
        )
        assert analyze_paths([root], select=["SKL105"]) == []


class TestSuppression:
    def test_file_level_suppression(self, tmp_path):
        root = write_project(
            tmp_path,
            {
                "repro/core/io.py": (
                    "# sketchlint: disable-file=SKL105\n"
                    "import io\n"
                    "import numpy as np\n"
                    "def load(payload):\n"
                    "    return np.load(io.BytesIO(payload))\n"
                ),
            },
        )
        assert analyze_paths([root], select=["SKL105"]) == []

    def test_line_level_suppression_of_semantic_rule(self, tmp_path):
        root = write_project(
            tmp_path,
            {
                "repro/core/io.py": (
                    "import io\n"
                    "import numpy as np\n"
                    "def load(payload):\n"
                    "    return np.load(io.BytesIO(payload))  # sketchlint: disable=SKL105\n"
                ),
            },
        )
        assert analyze_paths([root], select=["SKL105"]) == []

    def test_suppressions_object(self):
        source = (
            "# sketchlint: disable-file=SKL004\n"
            "x = 1  # sketchlint: disable=SKL006\n"
        )
        sup = Suppressions(source)
        assert sup.file_wide == {"SKL004"}
        assert sup.hides(Violation("SKL004", "p.py", 99, 1, "m"))
        assert sup.hides(Violation("SKL006", "p.py", 2, 1, "m"))
        assert not sup.hides(Violation("SKL006", "p.py", 3, 1, "m"))


#: A project with findings in every semantic analysis: SKL101 and
#: SKL102 (dataflow), SKL103, SKL104, SKL105, SKL201 and SKL202
#: (concurrency: ``SketchTree.merge`` is an admin entry point) and SKL301.
EVERY_ANALYSIS = {
    "repro/hashing/pairing.py": PAIRING,
    "repro/sketch/ams.py": AMS,
    "repro/core/config.py": CONFIG,
    "repro/use.py": (
        "import random\n"
        "import numpy as np\n"
        "from repro.hashing.pairing import pair2\n"
        "from repro.sketch.ams import SketchMatrix\n"
        "def narrowed(sketch: SketchMatrix, a, b):\n"
        "    sketch.update_batch([pair2(a, b)], [1])\n"
        "def unseeded():\n"
        "    return np.random.default_rng(random.random())\n"
    ),
    "repro/core/snapshot.py": (
        "import pickle\n"
        "import numpy as np\n"
        "def save_snapshot(tree):\n"
        "    return pickle.dumps(tree)\n"
        "def load_counters(payload):\n"
        "    return np.frombuffer(payload)\n"
    ),
    "repro/sketch/est.py": (
        "class Sketch:\n"
        "    def estimate_batch(self, values):\n"
        "        self.counters[0] += 1\n"
        "        return self.counters[0]\n"
    ),
    "repro/core/sketchtree.py": (
        "class SketchTree:\n"
        "    def __init__(self):\n"
        "        self.n_trees = 0\n"
        "    def merge(self, other):\n"
        "        self.n_trees += other\n"
        "        self.last = other\n"
        "        return self\n"
    ),
    "repro/stats.py": (
        "def total_and_peak(values):\n"
        "    squares = (v * v for v in values)\n"
        "    total = sum(squares)\n"
        "    return total, max(squares)\n"
    ),
}

HOT_PATH_RULES = ["SKL301", "SKL302", "SKL303", "SKL304", "SKL305"]


class TestSelectRunsOnlySelectedAnalyses:
    @pytest.mark.parametrize(
        "selected",
        [
            ["SKL101", "SKL102"],
            ["SKL102"],
            ["SKL103"],
            ["SKL104"],
            ["SKL105"],
            ["SKL201", "SKL202", "SKL203", "SKL204", "SKL205"],
            ["SKL202"],
            HOT_PATH_RULES,
        ],
    )
    def test_selected_run_equals_the_filtered_full_run(self, tmp_path, selected):
        root = write_project(tmp_path, EVERY_ANALYSIS)
        expected = [v for v in analyze_paths([root]) if v.rule in selected]
        assert expected, "the project must trip the selected family"
        assert analyze_paths([root], select=selected) == expected

    def test_hot_path_selection_never_runs_the_dataflow(self, tmp_path, monkeypatch):
        root = write_project(tmp_path, EVERY_ANALYSIS)

        def run(self):
            raise AssertionError("the SKL101/102 dataflow ran for SKL3xx only")

        monkeypatch.setattr(DataflowAnalysis, "run", run)
        violations = analyze_paths([root], select=HOT_PATH_RULES)
        assert [v.rule for v in violations] == ["SKL301"]


_rule_ids = st.sampled_from(["SKL101", "SKL102", "SKL103", "SKL104", "SKL105"])
_line_texts = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126, exclude_characters="|"),
    min_size=0,
    max_size=40,
)


class TestBaseline:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(_rule_ids, st.integers(1, 20), _line_texts),
            min_size=0,
            max_size=12,
        )
    )
    def test_baseline_round_trips(self, tmp_path_factory, raw):
        """write -> read -> identical suppression set: every finding the
        baseline was rendered from is baselined on re-read, none are new."""
        lines = [f"line {i}" for i in range(21)]
        for _, lineno, text in raw:
            lines[lineno - 1] = text
        source = "\n".join(lines)
        sources = {"src/repro/m.py": source}
        violations = [
            Violation(rule, "src/repro/m.py", lineno, 1, f"finding {i}")
            for i, (rule, lineno, _) in enumerate(raw)
        ]
        path = tmp_path_factory.mktemp("baseline") / "baseline.json"
        path.write_text(render_baseline(violations, sources), encoding="utf-8")
        reloaded = load_baseline(path)
        new, known = split_baselined(violations, reloaded, sources)
        assert new == []
        assert sorted(known, key=Violation.sort_key) == sorted(
            set(violations), key=Violation.sort_key
        ) or len(known) == len(violations)

    def test_keys_are_line_number_independent(self):
        source_a = "import pickle\n"
        source_b = "# a new comment pushes the line down\nimport pickle\n"
        v_a = Violation("SKL103", "m.py", 1, 1, "msg")
        v_b = Violation("SKL103", "m.py", 2, 1, "msg")
        key_a = finding_keys([v_a], {"m.py": source_a})[v_a]
        key_b = finding_keys([v_b], {"m.py": source_b})[v_b]
        assert key_a == key_b

    def test_identical_lines_get_distinct_keys(self):
        source = "import pickle\nimport pickle\n"
        v1 = Violation("SKL103", "m.py", 1, 1, "msg")
        v2 = Violation("SKL103", "m.py", 2, 1, "msg")
        keys = finding_keys([v1, v2], {"m.py": source})
        assert keys[v1] != keys[v2]

    def test_new_findings_not_masked_by_baseline(self):
        sources = {"m.py": "import pickle\nimport marshal\n"}
        old = Violation("SKL103", "m.py", 1, 1, "pickle")
        new = Violation("SKL103", "m.py", 2, 1, "marshal")
        baseline_doc = render_baseline([old], sources)
        baseline = json.loads(baseline_doc)["findings"]
        fresh, known = split_baselined([old, new], baseline, sources)
        assert fresh == [new]
        assert known == [old]

    def test_committed_baseline_is_empty(self):
        baseline = load_baseline(
            REPO_ROOT / "tools" / "sketchlint" / "baseline.json"
        )
        assert baseline == {}


class TestCli:
    def _run(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "tools.sketchlint", *args],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
        )

    def test_src_clean_both_phases(self):
        result = self._run("src")
        assert result.returncode == 0, result.stdout + result.stderr
        assert "0 violations" in result.stdout

    def test_syntax_error_is_finding_not_usage_error(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n", encoding="utf-8")
        result = self._run(str(bad))
        assert result.returncode == 1, result.stdout + result.stderr
        assert "SKL000" in result.stdout

    def test_unknown_rule_still_exits_two(self):
        result = self._run("--select", "SKL999", "src")
        assert result.returncode == 2

    def test_unreadable_path_is_skl000_finding(self):
        result = self._run("does/not/exist.py")
        assert result.returncode == 1
        assert "SKL000" in result.stdout

    def test_select_semantic_rule(self, tmp_path):
        target = tmp_path / "io.py"
        target.write_text(
            "import numpy as np\n"
            "def load(buffer):\n"
            "    return np.frombuffer(buffer)\n",
            encoding="utf-8",
        )
        (tmp_path / "__init__.py").write_text("", encoding="utf-8")
        result = self._run("--select", "SKL105", str(tmp_path))
        assert result.returncode == 1
        assert "SKL105" in result.stdout

    def test_no_semantic_skips_skl1xx(self, tmp_path):
        target = tmp_path / "io.py"
        target.write_text(
            "import numpy as np\n"
            "def load(buffer):\n"
            "    return np.frombuffer(buffer)\n",
            encoding="utf-8",
        )
        (tmp_path / "__init__.py").write_text("", encoding="utf-8")
        result = self._run("--no-semantic", str(tmp_path))
        assert result.returncode == 0, result.stdout + result.stderr

    def test_sarif_output_shape(self, tmp_path):
        target = tmp_path / "io.py"
        target.write_text(
            "import numpy as np\n"
            "def load(buffer):\n"
            "    return np.frombuffer(buffer)\n",
            encoding="utf-8",
        )
        (tmp_path / "__init__.py").write_text("", encoding="utf-8")
        result = self._run("--format", "sarif", str(tmp_path))
        assert result.returncode == 1
        sarif = json.loads(result.stdout)
        assert sarif["version"] == "2.1.0"
        assert "sarif-2.1.0" in sarif["$schema"]
        run = sarif["runs"][0]
        assert run["tool"]["driver"]["name"] == "sketchlint"
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {"SKL000", "SKL001", "SKL105"} <= rule_ids
        (finding,) = [r for r in run["results"] if r["ruleId"] == "SKL105"]
        location = finding["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"].endswith("io.py")
        assert location["region"]["startLine"] == 3
        assert finding["partialFingerprints"]["sketchlint/v1"]

    def test_sarif_clean_run_has_empty_results(self):
        result = self._run("--format", "sarif", "src")
        assert result.returncode == 0, result.stderr
        sarif = json.loads(result.stdout)
        assert sarif["runs"][0]["results"] == []

    def test_baseline_accepts_existing_and_catches_new(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("", encoding="utf-8")
        target = pkg / "io.py"
        target.write_text(
            "import numpy as np\n"
            "def load(buffer):\n"
            "    return np.frombuffer(buffer)\n",
            encoding="utf-8",
        )
        baseline = tmp_path / "baseline.json"
        update = self._run(
            "--baseline", str(baseline), "--update-baseline", str(pkg)
        )
        assert update.returncode == 0, update.stdout + update.stderr
        assert "baseline updated with 1 finding" in update.stdout
        # Same findings -> clean exit against the baseline.
        rerun = self._run("--baseline", str(baseline), str(pkg))
        assert rerun.returncode == 0, rerun.stdout + rerun.stderr
        assert "(1 baselined)" in rerun.stdout
        # A new finding still fails.
        target.write_text(
            "import numpy as np\n"
            "def load(buffer):\n"
            "    return np.frombuffer(buffer)\n"
            "def load2(buffer):\n"
            "    return np.load(buffer)\n",
            encoding="utf-8",
        )
        result = self._run("--baseline", str(baseline), str(pkg))
        assert result.returncode == 1
        assert "np.load" in result.stdout
        assert "(1 baselined)" in result.stdout

    def test_update_baseline_on_clean_tree_matches_committed_file(self, tmp_path):
        """The CI staleness contract: regenerating the baseline over src/
        reproduces the committed (empty) baseline byte for byte."""
        out = tmp_path / "baseline.json"
        result = self._run("--baseline", str(out), "--update-baseline", "src")
        assert result.returncode == 0, result.stdout + result.stderr
        committed = (
            REPO_ROOT / "tools" / "sketchlint" / "baseline.json"
        ).read_text(encoding="utf-8")
        assert out.read_text(encoding="utf-8") == committed


class TestSourceTreeSemanticClean:
    def test_whole_repo_semantic_phase_is_clean(self):
        violations = analyze_paths(
            [REPO_ROOT / "src", REPO_ROOT / "tools"]
        )
        assert [v.render() for v in violations] == []

    def test_seeded_regression_countsketch_estimate_reduces_first(self):
        """PR regression pin: CountSketch.estimate used to narrow a raw
        pairing code to int64 *before* reducing mod p (found by SKL101)."""
        import numpy  # noqa: F401  (skip if unavailable)

        sys.path.insert(0, str(REPO_ROOT / "src"))
        try:
            from repro.sketch.countsketch import CountSketch
        finally:
            sys.path.pop(0)
        sketch = CountSketch(width=64, depth=5, seed=1)
        big = 2**80 + 12345  # a pairing-mode code beyond int64
        sketch.update_counts({big: 7})
        assert sketch.estimate(big) == pytest.approx(7.0)
