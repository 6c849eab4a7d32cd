"""Shared plumbing of the benchmark suite.

Every workload module builds on the same few pieces: the paper
configuration, the result record a run hands back to ``run.py``,
order statistics, sha256 digests of sketch counters, the layer clock
of a traced run, and the provenance block written into every report.
"""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, TypeVar

import numpy as np

from repro import SketchTreeConfig

SUITE_DIR = Path(__file__).resolve().parent
ROOT = SUITE_DIR.parent.parent
SRC = ROOT / "src"
#: Scratch space for generated inputs, inside the checkout (gitignored).
WORK_DIR = ROOT / ".bench_work"

#: The paper configuration (Section 7.1) every workload runs.
S1, S2, K, P = 50, 7, 4, 229
#: Trees per micro-batch on every ingest path.
BATCH_TREES = 50
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Layers of the traced decomposition, in pipeline order.  ``other`` is
#: the traced total minus the layers (loop and bookkeeping overhead).
LAYERS = ("parse", "enumerate", "encode", "route", "apply", "track", "estimate")

T = TypeVar("T")


def paper_config(
    seed: int, topk_size: int = 0, maintain_summary: bool = False
) -> SketchTreeConfig:
    """``s1=50, s2=7, k=4, p=229`` with the run's seed."""
    return SketchTreeConfig(
        s1=S1,
        s2=S2,
        max_pattern_edges=K,
        n_virtual_streams=P,
        topk_size=topk_size,
        maintain_summary=maintain_summary,
        seed=seed,
    )


def config_fields(config: SketchTreeConfig) -> dict:
    """The configuration as it is written into a report."""
    return {
        "s1": config.s1,
        "s2": config.s2,
        "k": config.max_pattern_edges,
        "p": config.n_virtual_streams,
        "topk_size": config.topk_size,
        "maintain_summary": config.maintain_summary,
    }


@dataclass
class RunParams:
    """What ``run.py`` hands a workload."""

    seed: int
    seconds: float
    trace: bool
    scale: str
    workdir: Path


@dataclass
class Result:
    """One run of one workload, before it is printed.

    ``metrics`` holds the contract metrics of the run's mode (end-to-end
    untraced, per-layer traced); ``details`` holds the rest of what was
    measured, for the report file only.
    """

    sizes: dict
    config: dict
    metrics: dict[str, float] = field(default_factory=dict)
    details: dict[str, object] = field(default_factory=dict)
    checks: dict[str, bool] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0

    @property
    def correct(self) -> bool:
        return all(self.checks.values())


# ---------------------------------------------------------------------------
# Order statistics
# ---------------------------------------------------------------------------

def percentile(values: Iterable[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0-100) of ``values``."""
    return float(np.percentile(np.asarray(list(values), dtype=np.float64), q))


def median(values: Iterable[float]) -> float:
    return float(statistics.median(values))


def position_medians(rounds: list[list[float]]) -> list[float]:
    """Per position, the median over identical rounds.

    Rounds repeat the same operations in the same order, so taking each
    operation's median before any percentile keeps a burst of machine
    noise in one round out of the latency distribution.
    """
    return [median(samples) for samples in zip(*rounds)]


class SpreadSetups:
    """A run's set-up, timed ``SETUP_REPEATS`` times.

    :meth:`first` runs before the timed phase and its result is the one
    the run uses; the repeats run between rounds, spread evenly through
    the phase, so that ``setup_s`` (the median) samples the same machine
    conditions as the rounds rather than one short window.  Set-up is
    deterministic: every repeat's ``key`` must equal the first's.
    """

    def __init__(self, build: Callable[[], T], key: Callable[[T], object], seconds: float):
        self._build = build
        self._key = key
        self._seconds = seconds
        self._first_key: object = None
        self.times: list[float] = []
        self.repeatable = True

    def _timed(self) -> T:
        start = time.perf_counter()
        result = self._build()
        self.times.append(time.perf_counter() - start)
        return result

    def first(self) -> T:
        result = self._timed()
        self._first_key = self._key(result)
        return result

    def between_rounds(self, elapsed: float) -> None:
        """Repeat the set-up if one is due ``elapsed`` seconds in."""
        done = len(self.times)
        if done < SETUP_REPEATS and elapsed >= self._seconds * done / SETUP_REPEATS:
            self.repeatable &= self._key(self._timed()) == self._first_key

    def finish(self) -> float:
        """Run any repeats still owed; return the median set-up time."""
        while len(self.times) < SETUP_REPEATS:
            self.repeatable &= self._key(self._timed()) == self._first_key
        return median(self.times)


class Schedule:
    """The rounds of one timed phase.

    Iterating yields, per round, whether it is traced; the caller runs
    the round and records its duration.  Another round starts while one
    as long as the last would still end within ``seconds``.  There is
    always one untraced round and, in a traced run, one traced round;
    traced and untraced rounds alternate, traced first.
    """

    def __init__(self, seconds: float, trace: bool):
        self.seconds = seconds
        self.trace = trace
        self.untraced: list[float] = []
        self.traced: list[float] = []
        self.elapsed = 0.0
        self._last = 0.0

    def __iter__(self) -> Iterator[bool]:
        while (
            not self.untraced
            or (self.trace and not self.traced)
            or self.elapsed + self._last <= self.seconds
        ):
            yield self.trace and len(self.traced) <= len(self.untraced)

    def record(self, traced: bool, seconds: float) -> None:
        (self.traced if traced else self.untraced).append(seconds)
        self.elapsed += seconds
        self._last = seconds

    @property
    def rounds(self) -> int:
        return len(self.untraced) + len(self.traced)


# ---------------------------------------------------------------------------
# Traced runs
# ---------------------------------------------------------------------------

class LayerClock:
    """Self time per layer, accumulated by the benchmark around each call
    it makes into a layer's public entry point (spans never nest)."""

    def __init__(self) -> None:
        self.seconds = dict.fromkeys(LAYERS, 0.0)

    def add(self, layer: str, seconds: float) -> None:
        self.seconds[layer] += seconds

    def merge(self, other: LayerClock) -> None:
        for layer, seconds in other.seconds.items():
            self.seconds[layer] += seconds

    def shares(self, total: float) -> dict[str, float]:
        """``<layer>.self_pct`` per layer plus ``other.self_pct``."""
        out = {f"{layer}.self_pct": 100.0 * s / total for layer, s in self.seconds.items()}
        out["other.self_pct"] = 100.0 * (total - sum(self.seconds.values())) / total
        return out


#: Per-layer metrics a workload leaves at zero when its path does not
#: reach the layer; each workload overwrites the ones it measures.
ZERO_LAYER_COUNTS = {
    "enumerate.patterns": 0.0,
    "enumerate.memo_hit_ratio": 0.0,
    "encode.cache_hit_ratio": 0.0,
    "encode.misses": 0.0,
    "apply.calls": 0.0,
    "apply.distinct_ratio": 0.0,
    "track.process_calls": 0.0,
    "track.evictions": 0.0,
    "track.rearrivals": 0.0,
    "queue.depth_max": 0.0,
    "queue.depth_mean": 0.0,
    "serve.transport_share": 0.0,
    "serve.generator_late_share": 0.0,
    "serve.drain_tail_share": 0.0,
}


def overhead_pct(traced: list[float], untraced: list[float]) -> float:
    """Median traced round time over median untraced round time, as %."""
    return 100.0 * (median(traced) / median(untraced) - 1.0)


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------

def counters_digest(streams) -> str:
    """sha256 over every non-zero virtual-stream counter array, by residue.

    All-zero arrays are skipped so that a stream allocated by one path
    and never touched by another does not change the digest.
    """
    digest = hashlib.sha256()
    for residue in range(streams.n_streams):
        matrix = streams.sketch_if_allocated(residue)
        if matrix is not None and matrix.counters.any():
            digest.update(residue.to_bytes(4, "little"))
            digest.update(matrix.counters.tobytes())
    return digest.hexdigest()


def floats_digest(values: Iterable[float]) -> str:
    """sha256 over the exact reprs of a float sequence."""
    return hashlib.sha256(",".join(repr(float(v)) for v in values).encode()).hexdigest()


def mean_relative_error(estimates: list[float], truths: list[int]) -> float:
    return sum(abs(e - t) / t for e, t in zip(estimates, truths)) / len(truths)


#: Mean relative error allowed over the frequent band (bench_corpus's gate).
REL_ERROR_GATE = 0.25


# ---------------------------------------------------------------------------
# Resources and provenance
# ---------------------------------------------------------------------------

def peak_rss_mb() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            models = [
                line.split(":", 1)[1].strip()
                for line in handle
                if line.startswith("model name")
            ]
    except OSError:
        models = []
    return models[0] if models else platform.processor() or "unknown"


def provenance() -> dict:
    """Where a report came from: revision, machine and toolchain."""
    revision = dirty = None
    if (ROOT / ".git").exists():
        revision = _git("rev-parse", "HEAD")
        status = _git("status", "--porcelain")
        dirty = None if status is None else bool(status)
    return {
        "git_revision": revision,
        "git_dirty": dirty,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
