"""The service layer: shard routing, query fan-out, admin operations.

:class:`ShardedService` is what the HTTP handlers call into — it owns
the shard set and implements the three interaction patterns of the tier:

* **Ingest** — round-robin routing of tree batches onto the shards'
  bounded queues (backpressure propagates as ``queue.Full``).
* **Read path** — one :class:`~repro.core.view.CounterView` over the
  shard synopses (or over their windows' live buckets) sums their
  counters per virtual stream with no locks taken, and one table maps a
  validated kind to the view's estimator.  Shard synopses follow the
  single-writer contract, whose racy-but-benign concurrent reads are
  exactly the AMS-linearity argument of docs/concurrency.md: an answer
  is an estimate over *some* valid prefix of each shard's sub-stream.
* **Admin path** — operations needing a serialisation point (quiesced
  estimates, ``merge()``, checkpoints, drain, shutdown) hold the *admin
  gate*, which new ingest submissions also take briefly: while an admin
  operation runs, ingress stalls, the queues drain to empty, and the
  shard synopses are quiesced — so the same view then answers
  bit-identically to one synopsis over the concatenated stream.

Health/readiness are *derived from the metrics registry's gauges* (not
from privileged internal state): the service registers pull gauges for
queue depth, shards started/alive and faults, and :meth:`health` /
:meth:`ready` read those same gauges a scraper sees on ``/metrics``.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Any, Callable

from repro.core.config import SketchTreeConfig
from repro.core.sketchtree import SketchTree, register_synopsis_metrics
from repro.core.snapshot import CheckpointManager
from repro.core.view import CounterView
from repro.core.window import WindowedSketchTree
from repro.errors import ConfigError
from repro.obs.registry import MetricsRegistry, Registry
from repro.serve.models import ESTIMATE_KINDS, ApiError, render_topk_entries
from repro.serve.shards import IngestShard, ShardFaultError
from repro.trees.tree import LabeledTree

__all__ = ["ShardedService"]


class ShardedService:  # sketchlint: thread-safe
    """N single-writer ingest shards behind one query/admin facade.

    Thread-safe: every public method may be called from any HTTP
    handler thread.  The round-robin cursor is lock-guarded, admin
    operations serialise on the admin gate, and everything else is
    either immutable after construction or delegates to components
    carrying their own contracts (shards, checkpoint managers, the
    registry).

    Parameters
    ----------
    config:
        The one synopsis configuration every shard shares — the
        ``merge()`` contract (same config and seed) is what makes summed
        counters sound.  ``mapping="pairing"`` is refused: each shard's
        encoder numbers labels in its own first-seen order.
        ``topk_size > 0`` runs per-shard trackers freely: the fold/
        unfold protocol of :mod:`repro.core.topk` lets quiesce-and-merge
        compose them, and ``/admin/topk`` serves the merged heavy-hitter
        list.
    n_shards:
        Ingest parallelism (one drain thread per shard).
    window_trees, bucket_trees:
        ``window_trees > 0`` additionally runs one
        :class:`~repro.core.window.WindowedSketchTree` per shard (fed by
        that shard's drain thread), enabling the ``/window/*`` query
        surface — sliding-window estimates and, with ``topk_size > 0``,
        the live trending-pattern list of ``/window/topk``.  Each shard
        windows its *own* sub-stream, so the served window covers the
        last ``≈ n_shards × window_trees`` trees of the interleaved
        stream; size ``window_trees`` accordingly.  Windows are
        in-memory only: checkpoints persist the whole-stream synopses,
        and a resumed service re-fills its windows from live traffic.
    max_pending:
        Per-shard queue capacity in batches (backpressure bound).
    metrics:
        The registry health and ``/metrics`` are served from; ``None``
        builds a private :class:`~repro.obs.registry.MetricsRegistry`
        (the serving tier always runs with live metrics — they are its
        health surface).
    checkpoint_dir:
        Directory for per-shard checkpoints (``shard00-*.sktsnap``, …);
        ``None`` disables snapshot/resume endpoints.
    resume:
        Restore each shard from its newest valid checkpoint before
        serving (missing checkpoints start that shard fresh).
    """

    def __init__(
        self,
        config: SketchTreeConfig,
        n_shards: int = 4,
        max_pending: int = 64,
        metrics: Registry | None = None,
        checkpoint_dir: str | Path | None = None,
        keep_last: int = 3,
        resume: bool = False,
        window_trees: int = 0,
        bucket_trees: int | None = None,
    ):
        if n_shards < 1:
            raise ConfigError(f"n_shards must be >= 1, got {n_shards}")
        if window_trees < 0:
            raise ConfigError(f"window_trees must be >= 0, got {window_trees}")
        if resume and checkpoint_dir is None:
            raise ConfigError("resume=True needs a checkpoint_dir")
        if config.mapping == "pairing":
            raise ConfigError(
                "shards encode independently, and pairing numbers labels in "
                "each encoder's first-seen order: serve with mapping='rabin'"
            )
        self.config = config
        self.metrics: Registry = (
            metrics if metrics is not None else MetricsRegistry()
        )
        self.checkpoints: tuple[CheckpointManager, ...] = ()
        if checkpoint_dir is not None:
            self.checkpoints = tuple(
                CheckpointManager(
                    checkpoint_dir,
                    keep_last=keep_last,
                    prefix=f"shard{index:02d}",
                    metrics=self.metrics,
                )
                for index in range(n_shards)
            )
        self.window_trees = window_trees
        self.bucket_trees = bucket_trees
        self.shards: tuple[IngestShard, ...] = tuple(
            IngestShard(
                index,
                config,
                metrics=self.metrics,
                max_pending=max_pending,
                synopsis=(
                    self._resumed_synopsis(index) if resume else None
                ),
                window=(
                    WindowedSketchTree(config, window_trees, bucket_trees)
                    if window_trees
                    else None
                ),
            )
            for index in range(n_shards)
        )
        self._route_lock = threading.Lock()
        self._next_shard = 0
        #: The admin gate: held (briefly) by every ingest submission and
        #: (for the whole operation) by quiescing admin paths.
        self._gate = threading.Lock()
        self._stopped = False
        self._register_metrics()

    def _resumed_synopsis(self, index: int) -> SketchTree | None:
        """Shard ``index``'s newest checkpoint, narrowed to a synopsis.

        Shard checkpoints are whole-stream :class:`SketchTree` snapshots;
        a window container in the shard's slot means the directory is
        being shared with some other producer — refuse rather than adopt
        the wrong synopsis type.
        """
        restored = self.checkpoints[index].load_latest(
            expected_config=self.config
        )
        if restored is not None and not isinstance(restored, SketchTree):
            raise ConfigError(
                f"checkpoint for shard {index} holds a windowed snapshot; "
                "shard checkpoints are whole-stream synopses"
            )
        return restored

    # ------------------------------------------------------------------
    # Observability (the health surface)
    # ------------------------------------------------------------------
    def _register_metrics(self) -> None:
        shards = self.shards
        obs = self.metrics
        # Over every shard: each shard synopsis registered over itself
        # alone when it was built or resumed, and this registration wins.
        register_synopsis_metrics(obs, tuple(shard.synopsis for shard in shards))
        obs.gauge(
            "serve_shards",
            help="configured ingest shards",
            fn=lambda: len(shards),
        )
        obs.gauge(
            "serve_shards_started",
            help="shards whose drain thread has started",
            fn=lambda: sum(1 for shard in shards if shard.started),
        )
        obs.gauge(
            "serve_shards_alive",
            help="shards whose drain thread is running",
            fn=lambda: sum(1 for shard in shards if shard.alive),
        )
        obs.gauge(
            "serve_shard_faults",
            help="shards that recorded an ingest fault",
            fn=lambda: sum(1 for shard in shards if shard.error() is not None),
        )
        # The multi-line help string doubles as live coverage of the
        # exporter's HELP escaping (a raw newline would corrupt the
        # exposition text) — tests parse /metrics and round-trip it.
        obs.gauge(
            "serve_queue_depth",
            help=(
                "ingest batches waiting in shard queues\n"
                "(bounded per shard; a full queue answers 503 backpressure)"
            ),
            fn=lambda: sum(shard.pending for shard in shards),
        )
        obs.gauge(
            "serve_queue_capacity",
            help="total ingest queue capacity across shards (batches)",
            fn=lambda: sum(shard.capacity for shard in shards),
        )
        obs.counter(
            "serve_trees_total",
            help="trees absorbed into shard synopses since (re)start",
            fn=lambda: sum(shard.synopsis.n_trees for shard in shards),
        )
        if self.config.topk_size:
            obs.gauge(
                "serve_topk_deleted_self_join_mass",
                help="self-join mass held out of the whole-stream counters "
                "by the shards' top-k trackers",
                fn=lambda: float(self.view().deleted_self_join_mass()),
            )
        if self.window_trees:
            obs.gauge(
                "serve_window_trees_covered",
                help="trees currently covered by the shards' sliding windows",
                fn=lambda: sum(
                    shard.window.window_size_actual
                    for shard in shards
                    if shard.window is not None
                ),
            )
            if self.config.topk_size:
                obs.counter(
                    "serve_window_topk_refolds_total",
                    help="per-stream trackers refolded on window bucket "
                    "expiry, summed across shards",
                    fn=lambda: sum(
                        shard.window.n_refolds
                        for shard in shards
                        if shard.window is not None
                    ),
                )
                obs.gauge(
                    "serve_window_topk_deleted_self_join_mass",
                    help="self-join mass deleted by the live window "
                    "buckets' trackers, summed across shards",
                    fn=lambda: float(self._window_view().deleted_self_join_mass()),
                )

    def health(self) -> dict:
        """Liveness, derived from the registry's gauges.

        Healthy while no shard has faulted and every started drain
        thread is still running — the same numbers a scraper reads off
        ``/metrics``.
        """
        obs = self.metrics
        alive = obs.gauge("serve_shards_alive").value
        started = obs.gauge("serve_shards_started").value
        faults = obs.gauge("serve_shard_faults").value
        healthy = faults == 0 and alive >= started
        return {
            "status": "ok" if healthy else "failing",
            "shards": len(self.shards),
            "alive": int(alive),
            "faults": int(faults),
        }

    def ready(self) -> dict:
        """Readiness: started, running, and accepting ingest.

        Not ready before every drain thread is up, after :meth:`stop`,
        while any shard has faulted (it refuses its share of ingest), or
        while the queues are saturated (backpressure — tell the load
        balancer to back off rather than queueing 503s).
        """
        obs = self.metrics
        started = obs.gauge("serve_shards_started").value
        alive = obs.gauge("serve_shards_alive").value
        faults = obs.gauge("serve_shard_faults").value
        depth = obs.gauge("serve_queue_depth").value
        capacity = obs.gauge("serve_queue_capacity").value
        ready = (
            not self._stopped
            and started == len(self.shards)
            and alive == len(self.shards)
            and faults == 0
            and depth < capacity
        )
        return {
            "ready": ready,
            "started": int(started),
            "faults": int(faults),
            "queue_depth": int(depth),
            "queue_capacity": int(capacity),
        }

    def faulted_shards(self) -> list[int]:
        """Indices of the shards that recorded an ingest fault.

        Their counters stop at the fault, so every estimate response
        lists them: those answers miss the faulted shards' later share
        of the stream.
        """
        return [shard.index for shard in self.shards if shard.error() is not None]

    def stats(self) -> dict:
        """Per-shard introspection for the ``/stats`` endpoint."""
        return {
            "config": {
                "s1": self.config.s1,
                "s2": self.config.s2,
                "max_pattern_edges": self.config.max_pattern_edges,
                "n_virtual_streams": self.config.n_virtual_streams,
                "seed": self.config.seed,
                "maintain_summary": self.config.maintain_summary,
                "topk_size": self.config.topk_size,
            },
            "window": (
                {
                    "window_trees": self.window_trees,
                    "bucket_trees": self.shards[0].window.bucket_trees,
                    "trees_covered": sum(
                        shard.window.window_size_actual
                        for shard in self.shards
                        if shard.window is not None
                    ),
                }
                if self.window_trees
                else None
            ),
            "n_trees": sum(shard.synopsis.n_trees for shard in self.shards),
            "shards": [
                {
                    "index": shard.index,
                    "trees": shard.synopsis.n_trees,
                    "pending": shard.pending,
                    "alive": shard.alive,
                    "fault": (
                        None if shard.error() is None else repr(shard.error())
                    ),
                }
                for shard in self.shards
            ],
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start every shard's drain thread."""
        for shard in self.shards:
            shard.start()

    def stop(self) -> list[Path]:
        """Graceful shutdown: gate ingress, drain, stop, checkpoint.

        The SIGTERM path: new submissions are refused, every queued
        batch is applied, the drain threads exit, and (when a
        checkpoint directory is configured) each quiesced shard writes
        a final checkpoint — so a restart with ``resume=True`` loses
        nothing that was ever acknowledged.  Returns the checkpoint
        paths written (empty without a checkpoint directory).
        """
        with self._gate:
            if self._stopped:
                return []
            self._stopped = True
            for shard in self.shards:
                shard.stop(drain=True)
            return self._checkpoint_quiesced()

    # ------------------------------------------------------------------
    # Ingest path (HTTP handler threads)
    # ------------------------------------------------------------------
    def submit(self, trees: list[LabeledTree]) -> dict:
        """Route one batch to the next shard (round-robin), non-blocking.

        Raises ``queue.Full`` (→ 503) when the chosen shard is
        saturated, :class:`~repro.serve.shards.ShardFaultError` (→ 503
        naming the shard) when it has faulted, and :class:`ApiError` 503
        after shutdown began.  The admin gate is held only for the
        enqueue itself, so ingest stalls exactly while a quiescing admin
        operation runs.
        """
        with self._gate:
            if self._stopped:
                raise ApiError("service is shutting down", status=503)
            with self._route_lock:
                index = self._next_shard
                self._next_shard = (index + 1) % len(self.shards)
            shard = self.shards[index]
            fault = shard.error()
            if fault is not None:
                # It would acknowledge the batch and never apply it.
                raise ShardFaultError(index, fault)
            shard.submit(trees)
        return {"accepted": len(trees), "shard": index}

    # ------------------------------------------------------------------
    # Read path (lock-free: one view over the shards' counters)
    # ------------------------------------------------------------------
    def view(self) -> CounterView:
        """Every shard synopsis' counters, summed per virtual stream.

        Lock-free: reads race the drain threads benignly, so an answer
        is an estimate over some valid prefix of each shard's
        sub-stream; over quiesced shards it is bit-identical to one
        synopsis fed the whole stream (AMS linearity).
        """
        return CounterView([shard.synopsis for shard in self.shards])

    def estimate(self, kind: str, parsed: object) -> dict:
        """A validated ``/estimate/<kind>`` request, answered from :meth:`view`."""
        return {
            "kind": kind,
            "estimate": _ESTIMATORS[kind](self.view(), parsed),
            "shards": len(self.shards),
            "faulted_shards": self.faulted_shards(),
            "n_trees": sum(s.synopsis.n_trees for s in self.shards),
        }

    # ------------------------------------------------------------------
    # Window read path (lock-free, like /estimate)
    # ------------------------------------------------------------------
    def _windows(self) -> list[WindowedSketchTree]:
        """Every shard's window, or a 409 when none were configured."""
        if not self.window_trees:
            raise ApiError(
                "no sliding window configured (--window-trees)", status=409
            )
        return [
            shard.window for shard in self.shards if shard.window is not None
        ]

    def _window_view(self) -> CounterView:
        """One view over every shard window's live buckets (or a 409)."""
        return CounterView([b for w in self._windows() for b in w.view().sources])

    def window_estimate(self, kind: str, parsed: object) -> dict:
        """A ``/window/estimate/<kind>`` request: the same estimators as
        :meth:`estimate`, over every shard window's live buckets."""
        view = self._window_view()
        return {
            "kind": kind,
            "estimate": _ESTIMATORS[kind](view, parsed),
            "window_trees": self.window_trees,
            "trees_covered": sum(bucket.n_trees for bucket in view.sources),
            "faulted_shards": self.faulted_shards(),
        }

    def window_topk(self, limit: int | None = None) -> dict:
        """``GET /window/topk``: the live window's trending patterns.

        One view over every shard window's live buckets (each shard
        windows its own sub-stream) sums tracked frequencies per value
        and names them from every window's encoder, without quiescing:
        the racy-benign read semantics of the whole tier.
        """
        view = self._window_view()
        if not self.config.topk_size:
            raise ApiError(
                "top-k tracking disabled (topk_size=0, see --topk)",
                status=409,
            )
        return {
            "window_trees": self.window_trees,
            "trees_covered": sum(bucket.n_trees for bucket in view.sources),
            "patterns": render_topk_entries(view.tracked_patterns(limit)),
        }

    # ------------------------------------------------------------------
    # Admin path (quiesce-and-merge under the gate)
    # ------------------------------------------------------------------
    def merged_synopsis(self) -> SketchTree:
        """Quiesce the shards and merge them into one fresh synopsis.

        Holds the admin gate (stalling new ingest), drains every queue
        to empty — so no updates are in flight — then runs one
        :meth:`SketchTree.merge` over every shard synopsis.  By
        linearity its counters are bit-identical to a single-threaded
        synopsis over the concatenated stream; the caller owns the
        returned copy, whose counters and trackers no shard mutates
        later (it shares the first shard's thread-safe encoder).
        """
        with self._gate:
            self._quiesce()
            return SketchTree.merge(*(shard.synopsis for shard in self.shards))

    def admin_estimate(self, kind: str, parsed: object) -> dict:
        """Quiesce, then answer from the same view as :meth:`estimate`:
        bit-identical to one synopsis over the whole stream, at the cost
        of stalling ingest while it runs."""
        with self._gate:
            self._quiesce()
            estimate = _ESTIMATORS[kind](self.view(), parsed)
        return {
            "kind": kind,
            "estimate": estimate,
            "quiesced": True,
            "faulted_shards": self.faulted_shards(),
            "n_trees": sum(s.synopsis.n_trees for s in self.shards),
        }

    def topk(self, limit: int | None = None) -> dict:
        """``GET /admin/topk``: the whole stream's heavy hitters, exact-merged.

        Quiesces the shards and merges them (one fold/unfold composition
        of the per-shard trackers, see :meth:`SketchTree.merge`), then
        lists the merged trackers' state — the heavy hitters the
        refolded trackers selected over the *combined* stream — named by
        every shard encoder that saw the stream
        (:meth:`~repro.core.view.CounterView.lookup_values`).
        """
        if not self.config.topk_size:
            raise ApiError(
                "top-k tracking disabled (topk_size=0, see --topk)",
                status=409,
            )
        merged = self.merged_synopsis()
        entries = merged.tracked_patterns(limit)
        names = self.view().lookup_values(entry["value"] for entry in entries)
        for entry in entries:
            entry["pattern"] = names.get(entry["value"])
        return {
            "merged": True,
            "n_trees": merged.n_trees,
            "patterns": render_topk_entries(entries),
        }

    def drain(self) -> dict:
        """Quiesce: stall ingress, wait until every queue is applied."""
        with self._gate:
            self._quiesce()
        return {"drained": True, "n_trees": sum(
            shard.synopsis.n_trees for shard in self.shards
        )}

    def snapshot(self) -> list[Path]:
        """Checkpoint every shard at a common quiesced point."""
        if not self.checkpoints:
            raise ApiError(
                "no checkpoint directory configured (--checkpoint-dir)",
                status=409,
            )
        with self._gate:
            self._quiesce()
            return self._checkpoint_quiesced()

    def _quiesce(self) -> None:  # sketchlint: guarded-by=_gate
        for shard in self.shards:
            shard.drain()

    def _checkpoint_quiesced(self) -> list[Path]:  # sketchlint: guarded-by=_gate
        if not self.checkpoints:
            return []
        return [
            manager.save(shard.synopsis)
            for manager, shard in zip(self.checkpoints, self.shards)
        ]

    def __repr__(self) -> str:
        return (
            f"ShardedService(shards={len(self.shards)}, "
            f"trees={sum(s.synopsis.n_trees for s in self.shards)}, "
            f"stopped={self._stopped})"
        )


#: The one dispatch table: a ``<kind>`` validated by
#: :func:`~repro.serve.models.parse_estimate_request` to the view's estimator.
_ESTIMATORS: dict[str, Callable[[CounterView, Any], float]] = {
    "ordered": CounterView.estimate_ordered,
    "unordered": CounterView.estimate_unordered,
    "sum": CounterView.estimate_sum,
    "xpath": CounterView.estimate_xpath,
}
assert set(_ESTIMATORS) == set(ESTIMATE_KINDS)

