"""Tests for the versioned snapshot & recovery subsystem.

Covers the format round trip (property-based), the typed rejection of
corrupt / truncated / version-mismatched / misconfigured snapshots, the
crash-safe :class:`CheckpointManager`, checkpoint-resume equivalence in
:class:`StreamProcessor`, the summary-preserving merge fix, the
rejection of pickle blobs, and the canonical value-reduction regression
for values at and beyond 2^31 - 1.
"""

import dataclasses
import hashlib
import json
import os
import pickle
import signal
import subprocess
import sys
import zlib
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SketchTree, SketchTreeConfig
from repro.core.snapshot import (
    _DIGEST_LEN,
    FORMAT_VERSION,
    MAGIC,
    WINDOW_MAGIC,
    CheckpointManager,
    _deserialise,
    _frame,
    _unframe,
    config_fingerprint,
    load_snapshot,
    save_snapshot,
    snapshot_from_bytes,
)
from repro.core.topk import TopKTracker
from repro.core.window import WindowedSketchTree
from repro.datasets.dblp import DblpGenerator
from repro.errors import (
    ConfigError,
    PatternError,
    SnapshotConfigError,
    SnapshotError,
    SnapshotFormatError,
    SnapshotIntegrityError,
    SnapshotVersionError,
)
from repro.obs import MetricsRegistry
from repro.query.summary import QueryNode, StructuralSummary
from repro.query.xpath import parse_xpath
from repro.sketch.ams import SketchMatrix
from repro.sketch.bch import BchXiGenerator
from repro.sketch.xi import MERSENNE_31, XiGenerator
from repro.stream.engine import StreamProcessor
from repro.trees import from_sexpr
from repro.trees.builders import from_nested
from tests.strategies import nested_trees

BASE = SketchTreeConfig(
    s1=12, s2=3, max_pattern_edges=2, n_virtual_streams=13, seed=5
)
FULL = SketchTreeConfig(
    s1=12,
    s2=3,
    max_pattern_edges=2,
    n_virtual_streams=13,
    topk_size=3,
    maintain_summary=True,
    seed=5,
)

STREAM = [
    "(A (B) (C))",
    "(A (C) (B))",
    "(A (B (C)))",
    "(X (A (B)))",
    "(A (B) (B))",
    "(B (C))",
] * 4


def build(config=FULL, texts=STREAM):
    synopsis = SketchTree(config)
    for text in texts:
        synopsis.update(from_sexpr(text))
    return synopsis


def assert_same_state(a: SketchTree, b: SketchTree):
    """Bit-identical counters plus identical trackers/summary/bookkeeping."""
    assert a.config == b.config
    assert a.n_trees == b.n_trees
    assert a.n_values == b.n_values
    left = dict(a.streams.iter_sketches())
    right = dict(b.streams.iter_sketches())
    assert left.keys() == right.keys()
    for residue, matrix in left.items():
        assert np.array_equal(matrix.counters, right[residue].counters)
    left_tracked = {r: t.tracked for r, t in a.streams.iter_trackers()}
    right_tracked = {r: t.tracked for r, t in b.streams.iter_trackers()}
    assert {r: t for r, t in left_tracked.items() if t} == {
        r: t for r, t in right_tracked.items() if t
    }
    if a.summary is None:
        assert b.summary is None
    else:
        assert b.summary is not None
        assert a.summary.to_dict() == b.summary.to_dict()


def rewrite_header(blob: bytes, mutate) -> bytes:
    """Re-frame ``blob`` after applying ``mutate(header_dict)``, so the
    tampered header carries a valid digest."""
    header, payload = _unframe(blob, MAGIC)
    mutate(header)
    return _frame(MAGIC, header, payload)


class TestRoundTrip:
    def test_bit_identical_state(self):
        synopsis = build()
        restored = SketchTree.from_bytes(synopsis.to_bytes())
        assert_same_state(synopsis, restored)

    def test_estimates_identical(self):
        synopsis = build()
        restored = SketchTree.from_bytes(synopsis.to_bytes())
        queries = ["(A (B))", "(A (B) (C))", "(B (C))"]
        for q in queries:
            assert synopsis.estimate_ordered(q) == restored.estimate_ordered(q)
            assert synopsis.estimate_unordered(q) == restored.estimate_unordered(q)
        assert synopsis.estimate_sum(queries) == restored.estimate_sum(queries)
        extended = parse_xpath("//A/B")
        assert synopsis.estimate_extended(extended) == restored.estimate_extended(
            extended
        )

    def test_interrupted_run_equals_uninterrupted(self):
        # The acceptance scenario: snapshot halfway, restore, continue —
        # with top-k tracking and the structural summary enabled.
        half = len(STREAM) // 2
        uninterrupted = build(FULL, STREAM)
        first_half = build(FULL, STREAM[:half])
        resumed = SketchTree.from_bytes(first_half.to_bytes())
        for text in STREAM[half:]:
            resumed.update(from_sexpr(text))
        assert_same_state(uninterrupted, resumed)
        for q in ["(A (B))", "(A (C) (B))", "(X (A))"]:
            assert uninterrupted.estimate_ordered(q) == resumed.estimate_ordered(q)
            assert uninterrupted.estimate_unordered(
                q
            ) == resumed.estimate_unordered(q)
        expression = "COUNT(A/B) + COUNT(A/C) - COUNT(B/C)"
        assert uninterrupted.estimate_expression(
            expression
        ) == resumed.estimate_expression(expression)
        extended = parse_xpath("//A/*")
        assert uninterrupted.estimate_extended(
            extended
        ) == resumed.estimate_extended(extended)

    def test_empty_synopsis_round_trips(self):
        synopsis = SketchTree(FULL)
        restored = SketchTree.from_bytes(synopsis.to_bytes())
        assert_same_state(synopsis, restored)
        assert restored.n_trees == 0

    def test_pairing_big_values_round_trip(self):
        # Pairing-mode values exceed 64 bits; tracker state must survive
        # the decimal-string encoding in the header.
        config = SketchTreeConfig(
            s1=8,
            s2=3,
            max_pattern_edges=2,
            n_virtual_streams=7,
            topk_size=2,
            mapping="pairing",
            seed=3,
        )
        synopsis = build(config, STREAM[:8])
        restored = SketchTree.from_bytes(synopsis.to_bytes())
        assert_same_state(synopsis, restored)

    def test_unframe_then_frame_is_the_identity(self):
        window = WindowedSketchTree(FULL, window_trees=8, bucket_trees=4)
        window.ingest([from_sexpr(text) for text in STREAM[:10]])
        for magic, blob in [(MAGIC, build().to_bytes()), (WINDOW_MAGIC, window.to_bytes())]:
            assert _frame(magic, *_unframe(blob, magic)) == blob

    @settings(max_examples=20, deadline=None)
    @given(st.lists(nested_trees(max_nodes=6), min_size=0, max_size=5))
    def test_round_trip_property(self, forest):
        synopsis = SketchTree(FULL)
        for nested in forest:
            synopsis.update(from_nested(nested))
        restored = SketchTree.from_bytes(synopsis.to_bytes())
        assert_same_state(synopsis, restored)
        assert synopsis.estimate_ordered("(A (B))") == restored.estimate_ordered(
            "(A (B))"
        )


class TestRejection:
    def test_bad_magic(self):
        with pytest.raises(SnapshotFormatError):
            snapshot_from_bytes(b"NOTASNAP" + b"\x00" * 32)

    def test_empty_blob(self):
        with pytest.raises(SnapshotFormatError):
            snapshot_from_bytes(b"")

    def test_pickle_blob_is_rejected(self):
        blob = pickle.dumps({"anything": 1})
        with pytest.raises(SnapshotFormatError, match="bad magic"):
            snapshot_from_bytes(blob)

    def test_truncation_rejected_everywhere(self):
        blob = build(BASE, STREAM[:6]).to_bytes()
        header_len = int.from_bytes(blob[len(MAGIC) : len(MAGIC) + 8], "big")
        cuts = [
            4,  # inside the magic
            len(MAGIC) + 3,  # inside the length field
            len(MAGIC) + 8 + header_len // 2,  # inside the header
            len(MAGIC) + 8 + header_len,  # payload gone entirely
            len(blob) - 1,  # one payload byte short
        ]
        for cut in cuts:
            with pytest.raises(SnapshotIntegrityError):
                snapshot_from_bytes(blob[:cut])

    def test_flipped_payload_byte_rejected(self):
        blob = bytearray(build(BASE, STREAM[:6]).to_bytes())
        blob[-1 - _DIGEST_LEN] ^= 0xFF  # the payload's last byte
        with pytest.raises(SnapshotIntegrityError, match="checksum"):
            snapshot_from_bytes(bytes(blob))

    @pytest.mark.parametrize("version", [0, 1, 2, FORMAT_VERSION + 7])
    def test_version_mismatch_rejected(self, version):
        blob = build(BASE, STREAM[:4]).to_bytes()
        tampered = rewrite_header(
            blob, lambda h: h.__setitem__("format_version", version)
        )
        with pytest.raises(SnapshotVersionError):
            snapshot_from_bytes(tampered)

    def test_version_1_blob_is_refused(self):
        # Version 1 had no trailing digest: its header carried the
        # payload's size and SHA-256 instead.
        header, payload = _unframe(build(BASE, STREAM[:4]).to_bytes(), MAGIC)
        header.update(
            format_version=1,
            payload_size=len(payload),
            payload_sha256=hashlib.sha256(payload).hexdigest(),
        )
        header_bytes = json.dumps(
            header, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        v1 = MAGIC + len(header_bytes).to_bytes(8, "big") + header_bytes + payload
        with pytest.raises(SnapshotIntegrityError, match="version 1"):
            snapshot_from_bytes(v1)

    def test_non_integer_version_rejected(self):
        blob = build(BASE, STREAM[:4]).to_bytes()
        tampered = rewrite_header(
            blob, lambda h: h.__setitem__("format_version", "1")
        )
        with pytest.raises(SnapshotFormatError):
            snapshot_from_bytes(tampered)

    def test_wrong_format_name_rejected(self):
        blob = build(BASE, STREAM[:4]).to_bytes()
        tampered = rewrite_header(
            blob, lambda h: h.__setitem__("format", "other-format")
        )
        with pytest.raises(SnapshotFormatError):
            snapshot_from_bytes(tampered)

    def test_missing_header_key_rejected(self):
        blob = build(BASE, STREAM[:4]).to_bytes()
        tampered = rewrite_header(blob, lambda h: h.pop("n_trees"))
        with pytest.raises(SnapshotFormatError, match="missing"):
            snapshot_from_bytes(tampered)

    def test_edited_config_fails_fingerprint(self):
        blob = build(BASE, STREAM[:4]).to_bytes()
        tampered = rewrite_header(
            blob, lambda h: h["config"].__setitem__("seed", 999)
        )
        with pytest.raises(SnapshotIntegrityError, match="fingerprint"):
            snapshot_from_bytes(tampered)

    def test_tracker_state_without_topk_rejected(self):
        blob = build(BASE, STREAM[:4]).to_bytes()  # BASE has topk_size=0
        tampered = rewrite_header(
            blob, lambda h: h.__setitem__("trackers", {"0": [["5", 2]]})
        )
        with pytest.raises(SnapshotFormatError, match="topk_size=0"):
            snapshot_from_bytes(tampered)

    @pytest.mark.parametrize("misfile", ["other_stream", "negative", "beyond_rabin"])
    def test_tracker_value_outside_its_stream_rejected(self, misfile):
        blob = build(FULL, STREAM).to_bytes()

        def mutate(header):
            residue, entries = sorted(header["trackers"].items())[0]
            value = int(entries[0][0])
            if misfile == "negative":
                # Still in the stream's residue class: only the sign is wrong.
                value = int(residue) - FULL.n_virtual_streams
            elif misfile == "beyond_rabin":
                # Same residue, but no degree-31 Rabin encoder reaches 2**31.
                value += FULL.n_virtual_streams * 2**40
            else:
                value += 1
            entries[0][0] = str(value)

        tampered = rewrite_header(blob, mutate)
        with pytest.raises(SnapshotFormatError, match="not in that stream"):
            snapshot_from_bytes(tampered)

    def test_large_pairing_tracker_value_restores(self):
        """Pairing values are unbounded: only sign and residue are checked."""
        config = dataclasses.replace(FULL, mapping="pairing")
        blob = build(config, STREAM).to_bytes()
        big = 5 + config.n_virtual_streams * 2**40

        def mutate(header):
            header["trackers"][str(big % config.n_virtual_streams)] = [[str(big), 1]]

        restored = snapshot_from_bytes(rewrite_header(blob, mutate))
        assert restored.streams.tracker(5).tracked[big] == 1

    def test_summary_without_maintain_summary_rejected(self):
        blob = build(BASE, STREAM[:4]).to_bytes()
        tampered = rewrite_header(
            blob, lambda h: h.__setitem__("summary", {"A": {}})
        )
        with pytest.raises(SnapshotFormatError, match="maintain_summary"):
            snapshot_from_bytes(tampered)

    def test_maintain_summary_without_summary_rejected(self):
        blob = build(FULL, STREAM[:4]).to_bytes()
        tampered = rewrite_header(blob, lambda h: h.__setitem__("summary", None))
        with pytest.raises(SnapshotFormatError, match="carries none"):
            snapshot_from_bytes(tampered)

    def test_negative_counts_rejected(self):
        blob = build(BASE, STREAM[:4]).to_bytes()
        tampered = rewrite_header(blob, lambda h: h.__setitem__("n_trees", -1))
        with pytest.raises(SnapshotFormatError):
            snapshot_from_bytes(tampered)

    def test_garbage_payload_rejected(self):
        header, _ = _unframe(build(BASE, STREAM[:4]).to_bytes(), MAGIC)
        tampered = _frame(MAGIC, header, b"this is not an npz archive")
        with pytest.raises(SnapshotFormatError, match="zlib"):
            snapshot_from_bytes(tampered)

    @pytest.mark.parametrize(
        "damage", ["row_short", "byte_extra", "trailing", "cut_short"]
    )
    def test_payload_of_the_wrong_size_rejected(self, damage):
        """The config fixes the counter array's shape: a re-framed payload
        that inflates to one row less or one byte more, runs on past its
        zlib stream, or stops inside it is refused."""
        synopsis = build(BASE, STREAM[:4])
        header, payload = _unframe(synopsis.to_bytes(), MAGIC)
        raw = synopsis.streams.counters.astype("<i8").tobytes()
        row = BASE.s1 * BASE.s2 * 8
        tampered = {
            "row_short": zlib.compress(raw[:-row]),
            "byte_extra": zlib.compress(raw + b"\0"),
            "trailing": payload + b"\0",
            "cut_short": payload[:-1],
        }[damage]
        with pytest.raises(SnapshotFormatError, match="one whole zlib stream"):
            snapshot_from_bytes(_frame(MAGIC, header, tampered))


class TestEveryByteIsChecked:
    """Every single-bit flip and every truncation of a synopsis frame and
    of its window's frame is refused with a typed error — flips in the
    header too (summary, tracker state, tree counts), which a digest
    over the payload alone let through."""

    CONFIG = SketchTreeConfig(
        s1=4, s2=3, max_pattern_edges=3, n_virtual_streams=3, topk_size=2,
        maintain_summary=True,
    )

    def blobs(self) -> list[bytes]:
        trees = list(DblpGenerator(seed=1).generate(12))
        synopsis = SketchTree(self.CONFIG)
        synopsis.update_batch(trees)
        window = WindowedSketchTree(self.CONFIG, window_trees=8, bucket_trees=4)
        window.ingest(trees)
        return [synopsis.to_bytes(), window.to_bytes()]

    @staticmethod
    def loads(blob: bytes) -> bool:
        """Whether ``blob`` restores; any error but a SnapshotError escapes."""
        try:
            _deserialise(blob)
        except SnapshotError:
            return False
        return True

    def test_every_flip_and_cut_is_refused(self):
        accepted = []
        for blob in self.blobs():
            assert self.loads(blob)
            corrupt = bytearray(blob)
            for position in range(len(blob)):
                for bit in range(8):
                    corrupt[position] ^= 1 << bit
                    if self.loads(bytes(corrupt)):
                        accepted.append((blob[:8], "flip", position, bit))
                    corrupt[position] ^= 1 << bit
            accepted += [
                (blob[:8], "cut", cut)
                for cut in range(len(blob))
                if self.loads(blob[:cut])
            ]
        assert accepted == []

    def test_payload_flips_raise_only_snapshot_errors(self):
        """Every bit of the zlib payload flipped, one at a time, and
        re-framed so the digest holds: the restore raises a SnapshotError
        or, where the flip leaves the inflated array unchanged, restores
        the same counters; no zlib or numpy error escapes."""
        config = SketchTreeConfig(
            s1=4, s2=3, max_pattern_edges=3, n_virtual_streams=3
        )
        synopsis = SketchTree(config)
        synopsis.update_batch(list(DblpGenerator(seed=1).generate(12)))
        header, payload = _unframe(synopsis.to_bytes(), MAGIC)
        refused = 0
        corrupt = bytearray(payload)
        for position in range(len(payload)):
            for bit in range(8):
                corrupt[position] ^= 1 << bit
                try:
                    restored = _deserialise(_frame(MAGIC, header, bytes(corrupt)))
                except SnapshotError:
                    refused += 1
                else:
                    assert np.array_equal(
                        restored.streams.counters, synopsis.streams.counters
                    )
                corrupt[position] ^= 1 << bit
        assert refused > 4 * len(payload)


class TestFiles:
    def test_save_load_round_trip(self, tmp_path):
        synopsis = build()
        path = save_snapshot(synopsis, tmp_path / "snap.sktsnap")
        assert path.exists()
        assert_same_state(synopsis, load_snapshot(path))

    def test_no_temp_files_left_behind(self, tmp_path):
        save_snapshot(build(BASE, STREAM[:4]), tmp_path / "snap.sktsnap")
        assert [p.name for p in tmp_path.iterdir()] == ["snap.sktsnap"]

    def test_expected_config_match_accepted(self, tmp_path):
        path = save_snapshot(build(), tmp_path / "snap.sktsnap")
        assert load_snapshot(path, expected_config=FULL).n_trees == len(STREAM)

    def test_expected_config_mismatch_rejected(self, tmp_path):
        path = save_snapshot(build(), tmp_path / "snap.sktsnap")
        with pytest.raises(SnapshotConfigError):
            load_snapshot(path, expected_config=BASE)

    def test_fingerprint_distinguishes_configs(self):
        assert config_fingerprint(BASE) != config_fingerprint(FULL)
        assert config_fingerprint(BASE) == config_fingerprint(BASE)


class TestCheckpointManager:
    def test_keep_last_n(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep_last=2)
        synopsis = SketchTree(BASE)
        for text in STREAM[:6]:
            synopsis.update(from_sexpr(text))
            manager.save(synopsis)
        names = [p.name for p in manager.paths()]
        assert names == [
            "checkpoint-000000000005.sktsnap",
            "checkpoint-000000000006.sktsnap",
        ]

    def test_load_latest_empty_directory(self, tmp_path):
        assert CheckpointManager(tmp_path).load_latest() is None

    def test_load_latest_falls_back_past_corruption(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep_last=3)
        synopsis = SketchTree(BASE)
        for text in STREAM[:3]:
            synopsis.update(from_sexpr(text))
            manager.save(synopsis)
        newest = manager.latest_path()
        newest.write_bytes(newest.read_bytes()[:-5])  # damage the newest
        restored = manager.load_latest()
        assert restored is not None
        assert restored.n_trees == 2  # the newest *valid* checkpoint

    def test_load_latest_skips_a_flipped_header_byte(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep_last=3)
        synopsis = SketchTree(BASE)
        for text in STREAM[:3]:
            synopsis.update(from_sexpr(text))
            manager.save(synopsis)
        newest = manager.latest_path()
        blob = bytearray(newest.read_bytes())
        # "n_trees":3 becomes "n_trees":1 — a header that still parses and
        # passes every field check; only the digest can tell.
        blob[blob.index(b'"n_trees":3') + len(b'"n_trees":')] ^= 0x02
        newest.write_bytes(bytes(blob))
        restored = manager.load_latest()
        assert restored is not None
        assert restored.n_trees == 2

    def test_overlapping_prefixes_keep_to_their_own_files(self, tmp_path):
        short = CheckpointManager(tmp_path, keep_last=1, prefix="a")
        long = CheckpointManager(tmp_path, keep_last=1, prefix="a-b")
        synopsis = build(BASE, STREAM[:1])
        long.save(synopsis)
        in_flight = tmp_path / ".a-b-000000000009.sktsnap.1.tmp"
        in_flight.write_bytes(b"")
        synopsis.update(from_sexpr(STREAM[1]))
        short.save(synopsis)
        assert [p.name for p in short.paths()] == ["a-000000000002.sktsnap"]
        assert [p.name for p in long.paths()] == ["a-b-000000000001.sktsnap"]
        assert in_flight.exists()
        assert short.load_latest().n_trees == 2

    def test_all_corrupt_raises(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        synopsis = build(BASE, STREAM[:2])
        path = manager.save(synopsis)
        path.write_bytes(b"garbage")
        with pytest.raises(SnapshotIntegrityError, match="no loadable"):
            manager.load_latest()

    def test_failed_load_records_nothing(self, tmp_path):
        """Only a load that returns a synopsis is timed and counted."""
        registry = MetricsRegistry()
        manager = CheckpointManager(tmp_path, metrics=registry)
        path = manager.save(build(BASE, STREAM[:2]))
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(SnapshotError):
            manager.load(path)
        names = [
            instrument.name
            for instrument in registry.all_histograms() + registry.all_counters()
        ]
        assert "snapshot_save_seconds" in names
        assert not [name for name in names if name.startswith("snapshot_load_")]

    def test_invalid_parameters(self, tmp_path):
        with pytest.raises(ConfigError):
            CheckpointManager(tmp_path, keep_last=0)
        with pytest.raises(ConfigError):
            CheckpointManager(tmp_path, prefix="a/b")


class TestStreamProcessorRecovery:
    def trees(self):
        return [from_sexpr(text) for text in STREAM]

    def test_resume_equals_uninterrupted(self, tmp_path):
        uninterrupted = SketchTree(FULL)
        StreamProcessor([uninterrupted]).run(self.trees())

        # "Crash" partway: only the first 10 trees get processed, with a
        # checkpoint every 4 — the last checkpoint holds 8 trees.
        manager = CheckpointManager(tmp_path, keep_last=2)
        crashed = StreamProcessor(
            [SketchTree(FULL)], snapshot_every=4, checkpoints=manager
        )
        crashed.run(self.trees()[:10])
        assert len(manager.paths()) == 2

        recovered = StreamProcessor(
            [SketchTree(FULL)], snapshot_every=4, checkpoints=manager
        )
        stats = recovered.resume(self.trees())
        assert stats.resumed_from == 8
        assert stats.n_trees == len(STREAM) - 8
        assert_same_state(uninterrupted, recovered.consumers[0])

    def test_resume_without_checkpoints_is_plain_run(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        processor = StreamProcessor([SketchTree(BASE)], checkpoints=manager)
        stats = processor.resume(self.trees())
        assert stats.resumed_from == 0
        assert stats.n_trees == len(STREAM)

    def test_snapshot_every_requires_manager(self):
        with pytest.raises(ConfigError):
            StreamProcessor([SketchTree(BASE)], snapshot_every=5)

    def test_checkpointing_requires_to_bytes(self, tmp_path):
        from repro.core import ExactCounter

        with pytest.raises(ConfigError, match="to_bytes"):
            StreamProcessor(
                [ExactCounter(2)],
                checkpoints=CheckpointManager(tmp_path),
            )

    def test_run_writes_snapshots_on_schedule(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep_last=10)
        processor = StreamProcessor(
            [SketchTree(BASE)], snapshot_every=6, checkpoints=manager
        )
        stats = processor.run(self.trees())
        assert len(stats.snapshot_paths) == len(STREAM) // 6
        assert all(Path(p).exists() for p in stats.snapshot_paths)

    @settings(max_examples=12, deadline=None)
    @given(
        crash_at=st.integers(min_value=1, max_value=len(STREAM) - 1),
        every=st.integers(min_value=2, max_value=9),
    )
    def test_resume_matches_uninterrupted_events(self, crash_at, every):
        """Resume == uninterrupted, end to end: final synopsis state,
        checkpoint-callback arguments, and snapshot file names all match
        the run that never crashed — for any crash point and cadence.

        Before the boundary-alignment fix this failed whenever the
        newest checkpoint held a tree count that was not a multiple of
        ``every`` (and, even on multiples, the resumed callbacks
        reported relative positions).
        """
        import tempfile

        trees = [from_sexpr(text) for text in STREAM]

        with tempfile.TemporaryDirectory() as full_dir:
            manager = CheckpointManager(Path(full_dir), keep_last=50)
            full = StreamProcessor(
                [SketchTree(BASE)],
                checkpoint_every=every,
                on_checkpoint=lambda n: n,
                snapshot_every=every,
                checkpoints=manager,
            )
            full_stats = full.run(trees)
            full_names = [p.name for p in full_stats.snapshot_paths]
            uninterrupted = full.consumers[0]

        with tempfile.TemporaryDirectory() as crash_dir:
            manager = CheckpointManager(Path(crash_dir), keep_last=50)
            crashed = StreamProcessor(
                [SketchTree(BASE)],
                checkpoint_every=every,
                on_checkpoint=lambda n: n,
                snapshot_every=every,
                checkpoints=manager,
            )
            crash_stats = crashed.run(trees[:crash_at])

            recovered = StreamProcessor(
                [SketchTree(BASE)],
                checkpoint_every=every,
                on_checkpoint=lambda n: n,
                snapshot_every=every,
                checkpoints=manager,
            )
            stats = recovered.resume(trees)

            assert stats.resumed_from == (crash_at // every) * every
            assert stats.stream_position == len(trees)
            # Callback arguments are absolute: pre-crash events plus the
            # resumed ones reconstruct the uninterrupted sequence.
            assert (
                crash_stats.checkpoint_results + stats.checkpoint_results
                == full_stats.checkpoint_results
            )
            # Snapshot files are written at the same tree counts.
            crash_names = [p.name for p in crash_stats.snapshot_paths]
            resumed_names = [p.name for p in stats.snapshot_paths]
            assert crash_names + resumed_names == full_names
            assert_same_state(uninterrupted, recovered.consumers[0])


#: Runs a checkpointed stream and SIGKILLs itself inside the save of
#: checkpoint 20: after the temp file is written, after its fsync, or
#: after the rename.  argv: the point, the directory, the config as JSON
#: and the stream's s-expressions as JSON.
_KILLED_SAVE = """
import json, os, signal, sys

from repro import SketchTree, SketchTreeConfig
from repro.core import snapshot
from repro.stream.engine import StreamProcessor
from repro.trees import from_sexpr

point, directory, config, texts = sys.argv[1:]
write, replace = snapshot.save_snapshot, os.replace


def die(*_):
    os.kill(os.getpid(), signal.SIGKILL)


def save_snapshot(synopsis, path):
    if synopsis.n_trees == 20:
        if point == "written":
            os.fsync = die
        elif point == "fsynced":
            os.replace = die
        else:
            os.replace = lambda src, dst: (replace(src, dst), die())
    return write(synopsis, path)


snapshot.save_snapshot = save_snapshot
StreamProcessor(
    [SketchTree(SketchTreeConfig(**json.loads(config)))],
    snapshot_every=10,
    checkpoints=snapshot.CheckpointManager(directory, keep_last=5),
).run(from_sexpr(text) for text in json.loads(texts))
"""


@pytest.mark.skipif(os.name != "posix", reason="SIGKILL is POSIX")
class TestKilledSave:
    """A save killed at any point leaves the directory recoverable."""

    TEXTS = STREAM * 2  # checkpoints at 10, 20, 30 and 40 trees

    @pytest.mark.parametrize(
        "point, survivor", [("written", 10), ("fsynced", 10), ("renamed", 20)]
    )
    def test_resume_after_a_killed_save(self, tmp_path, point, survivor):
        src = str(Path(__file__).resolve().parent.parent / "src")
        done = subprocess.run(
            [
                sys.executable, "-c", _KILLED_SAVE, point, str(tmp_path),
                json.dumps(asdict(FULL)), json.dumps(self.TEXTS),
            ],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == -signal.SIGKILL, done.stderr
        leftovers = list(tmp_path.glob(".*.tmp"))
        assert len(leftovers) == (0 if point == "renamed" else 1)

        manager = CheckpointManager(tmp_path, keep_last=5)
        restored = manager.load_latest(expected_config=FULL)
        assert restored is not None and restored.n_trees == survivor

        trees = [from_sexpr(text) for text in self.TEXTS]
        uninterrupted = SketchTree(FULL)
        StreamProcessor([uninterrupted]).run(trees)
        resumed = StreamProcessor(
            [SketchTree(FULL)], snapshot_every=10, checkpoints=manager
        )
        assert resumed.resume(trees).resumed_from == survivor
        assert_same_state(uninterrupted, resumed.consumers[0])
        # The resumed run's first save pruned the killed save's temp file.
        assert list(tmp_path.glob(".*.tmp")) == []


class TestTopKSnapshotRestore:
    def make_tracker(self):
        sketch = SketchMatrix(s1=8, s2=3, seed=11)
        return TopKTracker(size=3, sketch=sketch)

    def test_snapshot_is_independent_copy(self):
        tracker = self.make_tracker()
        for value in [5, 5, 5, 9, 9, 2]:
            tracker.process(value)
        state = tracker.snapshot()
        state[12345] = 99
        assert 12345 not in tracker.snapshot()

    def test_restore_round_trip_continues_identically(self):
        arrivals = [5, 5, 9, 5, 9, 2, 2, 2, 7]
        a = self.make_tracker()
        for value in arrivals:
            a.process(value)

        b = self.make_tracker()
        for value in arrivals[:5]:
            b.process(value)
        state, counters = b.snapshot(), b.sketch.counters.copy()

        c = self.make_tracker()
        c.sketch.counters = counters
        c.restore(state)
        for value in arrivals[5:]:
            c.process(value)
        assert a.tracked == c.tracked
        assert np.array_equal(a.sketch.counters, c.sketch.counters)

    def test_restore_rejects_nonpositive_counts(self):
        tracker = self.make_tracker()
        with pytest.raises(ConfigError):
            tracker.restore({5: 0})
        with pytest.raises(ConfigError):
            tracker.restore({5: -2})

    def test_restore_rejects_oversized_state(self):
        tracker = self.make_tracker()
        with pytest.raises(ConfigError):
            tracker.restore({v: 1 for v in range(tracker.size + 1)})


class TestSummarySerde:
    def test_to_dict_from_dict_round_trip(self):
        summary = StructuralSummary()
        for text in STREAM:
            summary.add_tree(from_sexpr(text))
        clone = StructuralSummary.from_dict(summary.to_dict())
        assert clone.to_dict() == summary.to_dict()
        assert clone.n_paths == summary.n_paths

    def test_from_dict_rejects_malformed(self):
        with pytest.raises(PatternError):
            StructuralSummary.from_dict({"A": "not-a-dict"})
        with pytest.raises(PatternError):
            StructuralSummary.from_dict({"": {}})

    def test_merge_is_trie_union(self):
        a, b = StructuralSummary(), StructuralSummary()
        a.add_tree(from_sexpr("(A (B))"))
        b.add_tree(from_sexpr("(A (C (D)))"))
        merged = a.merge(b)
        assert merged.to_dict() == {"A": {"B": {}, "C": {"D": {}}}}
        # Inputs untouched.
        assert a.to_dict() == {"A": {"B": {}}}
        assert b.to_dict() == {"A": {"C": {"D": {}}}}


class TestMergeFix:
    def merge_config(self, maintain_summary):
        return SketchTreeConfig(
            s1=12,
            s2=3,
            max_pattern_edges=2,
            n_virtual_streams=13,
            maintain_summary=maintain_summary,
            seed=5,
        )

    def test_merged_summary_answers_extended_queries(self):
        config = self.merge_config(True)
        half = len(STREAM) // 2
        a = build(config, STREAM[:half])
        b = build(config, STREAM[half:])
        single = build(config, STREAM)
        merged = a.merge(b)
        assert merged.summary is not None
        assert merged.summary.to_dict() == single.summary.to_dict()
        query = parse_xpath("//A/B")
        assert merged.estimate_extended(query) == single.estimate_extended(query)

    def test_merge_refuses_summary_mismatch(self):
        a = build(self.merge_config(True), STREAM[:4])
        b = build(self.merge_config(False), STREAM[4:8])
        with pytest.raises(ConfigError):
            a.merge(b)


class TestNoPickleInSnapshotPath:
    """The pickle-free invariant is enforced by sketchlint's SKL103
    (reachability from the snapshot entry points); this test pins that the
    check runs clean on the real tree and still has teeth."""

    SRC = Path(__file__).resolve().parent.parent / "src"

    def test_snapshot_path_is_skl103_clean(self):
        from tools.sketchlint.semantic import analyze_paths

        assert [
            v.render() for v in analyze_paths([self.SRC], select=["SKL103"])
        ] == []

    def test_skl103_fires_on_module_level_pickle(self):
        # Guard the guard: injecting a module-level ``import pickle`` into
        # the snapshot module must be caught (the old AST walker's job).
        from tools.sketchlint.semantic import analyze_project

        files = []
        for path in sorted(self.SRC.rglob("*.py")):
            source = path.read_text(encoding="utf-8")
            if path.name == "snapshot.py" and "repro" in path.parts:
                source = "import pickle\n" + source
            files.append((path, source))
        violations = analyze_project(files, select=["SKL103"])
        assert any(
            v.rule == "SKL103" and "module-level import of 'pickle'" in v.message
            for v in violations
        ), [v.render() for v in violations]


class TestCanonicalReduction:
    """Satellite 4: one family-specific reduction point, big-value safe."""

    def test_polynomial_family_values_beyond_field(self):
        xi = XiGenerator(n_instances=6, seed=9)
        for value in [MERSENNE_31 - 1, MERSENNE_31, MERSENNE_31 + 7, 2**63 - 1]:
            reduced = int(xi.to_field([value], count=1)[0])
            assert 0 <= reduced < MERSENNE_31
            assert reduced == value % MERSENNE_31

    def test_to_field_accepts_python_bigints(self):
        # Pairing values exceed int64; np.fromiter must not overflow.
        xi = XiGenerator(n_instances=4, seed=1)
        huge = 2**80 + 12345
        assert int(xi.to_field([huge], count=1)[0]) == huge % MERSENNE_31

    def test_bch_family_reduces_by_mask(self):
        xi = BchXiGenerator(n_instances=4, seed=2)
        mask = (1 << xi.m) - 1
        value = (7 << xi.m) | 123
        assert int(xi.to_field([value], count=1)[0]) == value & mask

    def test_estimates_unchanged_for_values_at_field_boundary(self):
        # Streaming v and v % (2^31 - 1) must hit identical counters —
        # the regression the redundant pre-reduction used to mask.
        big = {MERSENNE_31 + 11: 4, 2 * MERSENNE_31 + 3: 2}
        small = {value % MERSENNE_31: count for value, count in big.items()}
        a = SketchMatrix(s1=10, s2=3, seed=21)
        b = SketchMatrix(s1=10, s2=3, seed=21)
        a.update_counts(big)
        b.update_counts(small)
        assert np.array_equal(a.counters, b.counters)
        for value in big:
            assert a.estimate(value) == b.estimate(value % MERSENNE_31)


class TestExtendedQueryNode:
    def test_query_node_reexported(self):
        # estimate_extended accepts hand-built QueryNode trees too.
        synopsis = build()
        query = QueryNode("A", (QueryNode("*", ()),))
        assert synopsis.estimate_extended(query) == pytest.approx(
            synopsis.estimate_xpath("/A/*")
        )


class TestPairingLabelNumbering:
    """Pairing values hold only under the label numbering that made
    them, so snapshots carry it and restores install it."""

    CONFIG = SketchTreeConfig(
        s1=30, s2=5, max_pattern_edges=2, n_virtual_streams=31, seed=3,
        mapping="pairing",
    )
    TREES = ["(A (B))"] * 20 + ["(X (Y))"] * 5

    def test_restored_synopsis_answers_like_the_saved_one(self):
        # Without the numbering the restore answered 20.0 for (X (Y))
        # and 5.0 for (A (B)): the query's labels were numbered afresh.
        synopsis = SketchTree(self.CONFIG)
        synopsis.update_batch([from_sexpr(text) for text in self.TREES])
        restored = SketchTree.from_bytes(synopsis.to_bytes())
        numbering = synopsis.encoder.label_numbering()
        assert sorted(numbering) == ["A", "B", "X", "Y"]
        assert restored.encoder.label_numbering() == numbering
        for query, count in [("(A (B))", 20), ("(X (Y))", 5)]:
            estimate = restored.estimate_ordered(query)
            assert estimate == synopsis.estimate_ordered(query)
            assert estimate == pytest.approx(count, abs=1)

    def test_window_buckets_restore_one_shared_numbering(self):
        from repro.core.window import WindowedSketchTree

        window = WindowedSketchTree(self.CONFIG, window_trees=40, bucket_trees=20)
        window.ingest([from_sexpr(text) for text in self.TREES])
        restored = WindowedSketchTree.from_bytes(window.to_bytes())
        buckets = restored._live_buckets()
        assert len(buckets) == 2
        assert all(b.encoder is buckets[0].encoder for b in buckets)
        for query in ["(A (B))", "(X (Y))"]:
            assert restored.estimate_ordered(query) == window.estimate_ordered(query)

    def test_window_buckets_numbering_labels_apart_are_refused(
        self, monkeypatch
    ):
        from repro.core import snapshot

        window = WindowedSketchTree(self.CONFIG, window_trees=40, bucket_trees=20)
        window.ingest([from_sexpr(text) for text in self.TREES])
        complete = window._live_buckets()[0]
        write_bucket = snapshot.snapshot_to_bytes

        def tampered_bucket(bucket):
            # The complete bucket claims the in-progress bucket's labels
            # in another order: the two cannot share one encoder.
            blob = write_bucket(bucket)
            if bucket is not complete:
                return blob
            return rewrite_header(
                blob, lambda h: h.__setitem__("labels", h["labels"][::-1])
            )

        monkeypatch.setattr(snapshot, "snapshot_to_bytes", tampered_bucket)
        tampered = window.to_bytes()
        with pytest.raises(SnapshotFormatError, match="numbers labels"):
            snapshot.window_from_bytes(tampered)

    def test_blob_without_numbering_is_refused(self):
        blob = SketchTree(self.CONFIG).to_bytes()
        tampered = rewrite_header(blob, lambda h: h.pop("labels"))
        with pytest.raises(SnapshotFormatError, match="label numbering"):
            snapshot_from_bytes(tampered)

    @pytest.mark.parametrize("labels", [["A", "A"], ["A", 3], "AB"])
    def test_malformed_numbering_is_refused(self, labels):
        blob = SketchTree(self.CONFIG).to_bytes()
        tampered = rewrite_header(blob, lambda h: h.__setitem__("labels", labels))
        with pytest.raises(SnapshotFormatError, match="label numbering"):
            snapshot_from_bytes(tampered)

    def test_rabin_blobs_carry_none_and_refuse_one(self):
        blob = build().to_bytes()
        assert "labels" not in _unframe(blob, MAGIC)[0]
        assert_same_state(build(), snapshot_from_bytes(blob))
        tampered = rewrite_header(blob, lambda h: h.__setitem__("labels", ["A"]))
        with pytest.raises(SnapshotFormatError, match="label numbering"):
            snapshot_from_bytes(tampered)
