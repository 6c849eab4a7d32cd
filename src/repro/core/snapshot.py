"""Versioned, pickle-free snapshot & recovery for SketchTree synopses.

A synopsis that runs for days over a stream is only useful if its state
survives process death.  This module is the persistence subsystem: a
self-describing binary snapshot format that round-trips *all* synopsis
state — sketch counters, top-k tracker state, the structural summary,
and bookkeeping — plus crash-safe checkpointing on top of it.

Format (version 3)
------------------

Every blob — a synopsis, a window container, and each bucket nested in
a window — is one frame, written by :func:`_frame` and read back by
:func:`_unframe`::

    MAGIC (8 bytes) | header length (8 bytes, big-endian) | header
    | payload | SHA-256 of everything before it (32 bytes)

The digest covers the magic, the header and the payload, and is checked
before the header is parsed: a flipped bit anywhere (a tracker entry,
the structural summary, a tree count) is refused, never restored.  The
magic names the kind — ``SKTSNAP`` a synopsis, ``SKTWSNP`` a window —
and :func:`load_snapshot` dispatches on it.  The ``header`` is
canonical JSON (sorted keys) carrying the kind's format name, the
format version, the full :class:`~repro.core.config.SketchTreeConfig`
and a config/ξ-seed fingerprint, plus the kind's own fields.

A synopsis (``SKTSNAP``):

* ``header`` — also top-k tracker state (values as decimal strings, so
  pairing-mode big integers survive), the structural summary trie and
  the tree/value counts.  Pairing-mode snapshots also carry ``labels``,
  the encoder's label numbering (labels in first-seen order): pairing
  values hold only under the numbering that produced them, so a
  restore without it would number query labels afresh and answer
  wrongly, and a pairing blob without it is refused.
* ``payload`` — the synopsis' one ``(p, s1·s2)`` counter array
  (:attr:`~repro.core.virtual.VirtualStreams.counters`) as little-endian
  int64 in C order, compressed with ``zlib``.  The digest-covered config
  fixes its shape, so the payload names no stream: a restore inflates at
  most one byte past that size and refuses a payload that inflates to
  any other size, stops short of its zlib end of stream or carries bytes
  after it.

A :class:`~repro.core.window.WindowedSketchTree` (``SKTWSNP``):

* ``header`` — also the window geometry (``window_trees``,
  ``bucket_trees``), the absolute stream position (``n_trees_seen``,
  which resume skip counts key on), the merge-on-expiry churn counters
  and the bucket count.
* ``payload`` — one length-prefixed (8 bytes, big-endian) ``SKTSNAP``
  frame per retained bucket, complete buckets oldest-first, then the
  in-progress one.  Per-bucket top-k tracker state rides along in each
  nested frame, so a restored window compensates queries exactly like
  the one that was saved.

Nothing in the format executes code on load: the header is JSON, the
payload is a raw array.  Loaders *refuse* — with typed
:class:`~repro.errors.SnapshotError` subclasses — anything corrupt,
truncated, version-mismatched, or configured differently than expected,
instead of restoring garbage that would answer queries wrongly.

Version policy: one ``FORMAT_VERSION`` covers every kind and is bumped
on any incompatible change to the frame, a header schema, or a payload
encoding.  A loader accepts exactly the version it knows how to restore
bit-faithfully and raises :class:`~repro.errors.SnapshotVersionError`
otherwise.  A version 2 blob, whose payload was an ``npz`` archive of
one member per stream, is refused with
:class:`~repro.errors.SnapshotVersionError`.  A version 1 blob, whose
SHA-256 covered only the payload and sat in its header, carries no
trailing digest: it fails the digest check with
:class:`~repro.errors.SnapshotIntegrityError`.  No loader for either
is kept.

Checkpointing
-------------

:class:`CheckpointManager` turns the snapshot format into crash-safe
periodic checkpoints: atomic write-then-rename (a crash mid-write never
clobbers the previous checkpoint), keep-last-N retention (which also
removes the temp file a killed save leaves behind), and a
:meth:`~CheckpointManager.load_latest` that falls back to older
checkpoints when the newest fails validation.
:class:`~repro.stream.engine.StreamProcessor` wires this into streaming
runs (``snapshot_every=...``) and recovery (``resume(...)``).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
import time
import zlib
from collections import deque
from dataclasses import asdict
from math import inf
from pathlib import Path
from typing import TYPE_CHECKING, Any, NamedTuple

if TYPE_CHECKING:
    from repro.core.window import WindowedSketchTree

import numpy as np

from repro.core.config import XI_SEED_OFFSET, SketchTreeConfig
from repro.core.sketchtree import SketchTree
from repro.obs.registry import BYTE_BUCKETS, Registry, get_default_registry
from repro.errors import (
    ConfigError,
    PatternError,
    SnapshotConfigError,
    SnapshotError,
    SnapshotFormatError,
    SnapshotIntegrityError,
    SnapshotVersionError,
)
from repro.query.summary import StructuralSummary

#: First 8 bytes of a synopsis snapshot; the trailing newline makes
#: accidental text-mode corruption (CRLF translation) fail the magic
#: check loudly.
MAGIC = b"SKTSNAP\n"

#: First 8 bytes of a sliding-window container snapshot.
WINDOW_MAGIC = b"SKTWSNP\n"

#: Format version of every frame, whatever its kind.  Bumped on any
#: incompatible change to the frame, a header schema, or a payload
#: encoding; see the module docstring for the acceptance policy.
FORMAT_VERSION = 3

#: How a payload stores each counter: little-endian int64.
_COUNTER_DTYPE = np.dtype("<i8")

_LENGTH_BYTES = 8
_PREFIX_LEN = len(MAGIC) + _LENGTH_BYTES
_DIGEST_LEN = 32  # SHA-256


class _Kind(NamedTuple):
    """What a frame of one kind is called and must carry."""

    name: str  # the header's "format"
    noun: str  # how error messages name a blob of this kind
    keys: frozenset[str]  # header keys the kind's restore reads


_KINDS = {
    MAGIC: _Kind(
        "sketchtree-snapshot",
        "snapshot",
        frozenset(
            {"config", "fingerprint", "n_trees", "n_values", "trackers", "summary"}
        ),
    ),
    WINDOW_MAGIC: _Kind(
        "sketchtree-window-snapshot",
        "window snapshot",
        frozenset(
            {
                "config",
                "fingerprint",
                "window_trees",
                "bucket_trees",
                "n_trees_seen",
                "n_refolds",
                "n_refold_candidates",
                "n_buckets",
            }
        ),
    ),
}


def config_fingerprint(config: SketchTreeConfig) -> str:
    """SHA-256 fingerprint of a config, including the derived ξ seed.

    Two synopses agree on every estimate-relevant random draw iff their
    fingerprints match, which is what checkpoint resume and distributed
    merge check before trusting foreign state.  The derived ξ seed is
    folded in explicitly so the fingerprint documents the randomness it
    covers, not just the knobs it was derived from.
    """
    record: dict[str, Any] = dict(asdict(config))
    record["xi_seed"] = config.seed + XI_SEED_OFFSET
    canonical = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# The frame
# ---------------------------------------------------------------------------

def _frame(magic: bytes, fields: dict[str, Any], payload: bytes) -> bytes:
    """Frame one blob: ``magic | header length | header | payload | digest``.

    The header is ``fields`` as canonical JSON, stamped with the kind's
    format name and :data:`FORMAT_VERSION` unless ``fields`` already
    carries them — as :func:`_unframe` returns them, so re-framing what
    it returned gives back the same bytes.  The digest is the SHA-256 of
    everything before it.
    """
    header: dict[str, Any] = {
        "format": _KINDS[magic].name,
        "format_version": FORMAT_VERSION,
    }
    header.update(fields)
    header_bytes = json.dumps(
        header, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    body = (
        magic
        + len(header_bytes).to_bytes(_LENGTH_BYTES, "big")
        + header_bytes
        + payload
    )
    return body + hashlib.sha256(body).digest()


def _unframe(blob: bytes, magic: bytes) -> tuple[dict[str, Any], bytes]:
    """Check a :func:`_frame` blob of the kind ``magic`` names.

    Returns ``(header, payload)`` or raises a typed
    :class:`~repro.errors.SnapshotError`.  The digest is checked before
    the header is parsed, so nothing after it reads a byte the writer
    did not write.
    """
    kind = _KINDS[magic]
    noun = kind.noun
    if not blob or not magic.startswith(blob[: len(magic)]):
        raise SnapshotFormatError(f"not a SketchTree {noun} (bad magic)")
    if len(blob) < _PREFIX_LEN:
        raise SnapshotIntegrityError(
            f"{noun} truncated inside the {_PREFIX_LEN}-byte prefix"
        )
    header_end = _PREFIX_LEN + int.from_bytes(blob[len(magic) : _PREFIX_LEN], "big")
    if header_end + _DIGEST_LEN > len(blob):
        raise SnapshotIntegrityError(
            f"{noun} truncated inside its header or digest (need "
            f"{header_end + _DIGEST_LEN} bytes, have {len(blob)})"
        )
    body = blob[:-_DIGEST_LEN]
    if hashlib.sha256(body).digest() != blob[-_DIGEST_LEN:]:
        raise SnapshotIntegrityError(
            f"{noun} checksum mismatch — the blob is corrupt (or a version "
            "1 blob, which carried no whole-blob digest)"
        )
    try:
        header = json.loads(body[_PREFIX_LEN:header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotFormatError(f"{noun} header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != kind.name:
        raise SnapshotFormatError(f"{noun} header is not a {kind.name} header")
    version = header.get("format_version")
    if not isinstance(version, int) or isinstance(version, bool):
        raise SnapshotFormatError(
            f"{noun} format_version must be an integer, got {version!r}"
        )
    if version != FORMAT_VERSION:
        raise SnapshotVersionError(
            f"{noun} format version {version} is not supported by this "
            f"loader (supports exactly {FORMAT_VERSION})"
        )
    missing = kind.keys - header.keys()
    if missing:
        raise SnapshotFormatError(
            f"{noun} header is missing keys: {sorted(missing)}"
        )
    return header, body[header_end:]


# ---------------------------------------------------------------------------
# Synopses
# ---------------------------------------------------------------------------

def snapshot_to_bytes(synopsis: SketchTree) -> bytes:
    """Serialise a synopsis into one ``SKTSNAP`` frame."""
    counters = synopsis.streams.counters.astype(_COUNTER_DTYPE, copy=False)
    payload = zlib.compress(counters.tobytes(order="C"))

    trackers: dict[str, list[list[Any]]] = {}
    for residue, tracker in synopsis.streams.iter_trackers():
        state = tracker.snapshot()
        if state:
            trackers[str(residue)] = [
                [str(value), count] for value, count in sorted(state.items())
            ]

    fields: dict[str, Any] = {
        "config": asdict(synopsis.config),
        "fingerprint": config_fingerprint(synopsis.config),
        "n_trees": synopsis.n_trees,
        "n_values": synopsis.n_values,
        "trackers": trackers,
        "summary": (
            synopsis.summary.to_dict() if synopsis.summary is not None else None
        ),
    }
    labels = synopsis.encoder.label_numbering()
    if labels is not None:
        fields["labels"] = labels
    return _frame(MAGIC, fields, payload)


def _config_from_header(header: dict[str, Any]) -> SketchTreeConfig:
    raw = header["config"]
    if not isinstance(raw, dict):
        raise SnapshotFormatError("snapshot config must be a mapping")
    try:
        config = SketchTreeConfig(**raw)
    except (TypeError, ConfigError) as exc:
        raise SnapshotFormatError(f"snapshot config is invalid: {exc}") from exc
    if config_fingerprint(config) != header["fingerprint"]:
        raise SnapshotIntegrityError(
            "snapshot config fingerprint mismatch — the header was edited "
            "or corrupted after the snapshot was written"
        )
    return config


def _restore_counters(synopsis: SketchTree, payload: bytes) -> None:
    counters = synopsis.streams.counters
    inflater = zlib.decompressobj()
    try:
        raw = inflater.decompress(payload, counters.nbytes + 1)
    except zlib.error as exc:
        raise SnapshotFormatError(
            f"snapshot payload is not a zlib stream: {exc}"
        ) from exc
    if len(raw) != counters.nbytes or not inflater.eof or inflater.unused_data:
        raise SnapshotFormatError(
            f"snapshot payload is not one whole zlib stream of exactly "
            f"{counters.nbytes} bytes, the {counters.shape} int64 counters "
            "its config fixes"
        )
    counters[...] = np.frombuffer(raw, dtype=_COUNTER_DTYPE).reshape(counters.shape)


def _restore_trackers(synopsis: SketchTree, header: dict[str, Any]) -> None:
    trackers = header["trackers"]
    if not isinstance(trackers, dict):
        raise SnapshotFormatError("snapshot tracker state must be a mapping")
    if trackers and not synopsis.config.topk_size:
        raise SnapshotFormatError(
            "snapshot carries top-k tracker state but its config has "
            "topk_size=0 — refusing an inconsistent restore"
        )
    config = synopsis.config
    n_streams = config.n_virtual_streams
    ceiling = 1 << config.fingerprint_degree if config.mapping == "rabin" else inf
    for residue_text, entries in trackers.items():
        try:
            residue = int(residue_text)
            state = {int(value): int(count) for value, count in entries}
        except (TypeError, ValueError) as exc:
            raise SnapshotFormatError(
                f"snapshot tracker state for stream {residue_text!r} is "
                f"malformed: {exc}"
            ) from exc
        if not 0 <= residue < n_streams:
            raise SnapshotFormatError(
                f"snapshot tracker stream {residue} outside [0, {n_streams})"
            )
        # Every writer files a value under its own residue (ingest,
        # merge and window refolds all route by it); a value filed
        # elsewhere was never deleted from this stream's counters.  A
        # Rabin value is below 2**degree; pairing values are unbounded.
        misfiled = [
            v for v in state if v < 0 or v % n_streams != residue or v >= ceiling
        ]
        if misfiled:
            raise SnapshotFormatError(
                f"snapshot tracker state for stream {residue} holds value "
                f"{misfiled[0]}, which is not in that stream"
            )
        tracker = synopsis.streams.tracker(residue)
        assert tracker is not None  # topk_size checked above
        try:
            tracker.restore(state)
        except ConfigError as exc:
            raise SnapshotFormatError(
                f"snapshot tracker state for stream {residue} is invalid: "
                f"{exc}"
            ) from exc


def _restore_summary(synopsis: SketchTree, header: dict[str, Any]) -> None:
    summary = header["summary"]
    if synopsis.config.maintain_summary:
        if not isinstance(summary, dict):
            raise SnapshotFormatError(
                "snapshot config maintains a structural summary but the "
                "snapshot carries none — refusing a restore that would "
                "answer extended queries with 0"
            )
        try:
            synopsis.summary = StructuralSummary.from_dict(summary)
        except PatternError as exc:
            raise SnapshotFormatError(
                f"snapshot structural summary is malformed: {exc}"
            ) from exc
    elif summary is not None:
        raise SnapshotFormatError(
            "snapshot carries a structural summary but its config has "
            "maintain_summary=False — refusing an inconsistent restore"
        )


def _restore_labels(synopsis: SketchTree, header: dict[str, Any]) -> None:
    labels = header.get("labels")
    if synopsis.config.mapping != "pairing":
        if labels is not None:
            raise SnapshotFormatError(
                "snapshot carries a label numbering but its config uses "
                f"mapping={synopsis.config.mapping!r}"
            )
        return
    if labels is None:
        raise SnapshotFormatError(
            "pairing snapshot carries no label numbering — its query labels "
            "would be numbered afresh and answer wrongly"
        )
    if not isinstance(labels, list):
        raise SnapshotFormatError("snapshot label numbering must be a list")
    try:
        synopsis.encoder.restore_label_numbering(labels)
    except ConfigError as exc:
        raise SnapshotFormatError(
            f"snapshot label numbering is invalid: {exc}"
        ) from exc


def snapshot_from_bytes(blob: bytes) -> SketchTree:
    """Restore a synopsis from :func:`snapshot_to_bytes` output.

    Raises a :class:`~repro.errors.SnapshotError` subclass — never
    returns a partially restored synopsis — when the blob is corrupt,
    truncated, of an unsupported version, or internally inconsistent.
    """
    header, payload = _unframe(blob, MAGIC)
    config = _config_from_header(header)
    synopsis = SketchTree(config)
    n_trees, n_values = header["n_trees"], header["n_values"]
    for label, count in (("n_trees", n_trees), ("n_values", n_values)):
        if not isinstance(count, int) or isinstance(count, bool) or count < 0:
            raise SnapshotFormatError(
                f"snapshot {label} must be a non-negative integer, got {count!r}"
            )
    _restore_labels(synopsis, header)
    _restore_counters(synopsis, payload)
    _restore_trackers(synopsis, header)
    _restore_summary(synopsis, header)
    synopsis.n_trees = n_trees
    synopsis.n_values = n_values
    return synopsis


# ---------------------------------------------------------------------------
# Windows
# ---------------------------------------------------------------------------

def window_to_bytes(window: "WindowedSketchTree") -> bytes:
    """Serialise a sliding window into one ``SKTWSNP`` frame.

    Every retained bucket (complete buckets oldest-first, then the
    in-progress one) becomes a nested :func:`snapshot_to_bytes` frame —
    counters, per-bucket top-k tracker state, bookkeeping — so the
    restore compensates queries exactly like the saved window did.
    """
    with window._lock:
        buckets = [*window._complete, window._current]
        n_trees_seen = window.n_trees_seen
    blobs = [snapshot_to_bytes(bucket) for bucket in buckets]
    fields: dict[str, Any] = {
        "config": asdict(window.config),
        "fingerprint": config_fingerprint(window.config),
        "window_trees": window.window_trees,
        "bucket_trees": window.bucket_trees,
        "n_trees_seen": n_trees_seen,
        "n_refolds": window.n_refolds,
        "n_refold_candidates": window.n_refold_candidates,
        "n_buckets": len(blobs),
    }
    payload = b"".join(
        len(blob).to_bytes(_LENGTH_BYTES, "big") + blob for blob in blobs
    )
    return _frame(WINDOW_MAGIC, fields, payload)


def window_from_bytes(blob: bytes) -> "WindowedSketchTree":
    """Restore a window from :func:`window_to_bytes` output.

    Raises a :class:`~repro.errors.SnapshotError` subclass — never
    returns a partially restored window — for corrupt, truncated,
    version-mismatched, or internally inconsistent containers (including
    any nested bucket snapshot failing its own validation, or bucket
    geometry disagreeing with the declared window parameters).
    """
    from repro.core.window import WindowedSketchTree

    header, payload = _unframe(blob, WINDOW_MAGIC)
    config = _config_from_header(header)
    for key in ("window_trees", "bucket_trees", "n_buckets"):
        count = header[key]
        if not isinstance(count, int) or isinstance(count, bool) or count < 1:
            raise SnapshotFormatError(
                f"window snapshot {key} must be a positive integer, got {count!r}"
            )
    for key in ("n_trees_seen", "n_refolds", "n_refold_candidates"):
        count = header[key]
        if not isinstance(count, int) or isinstance(count, bool) or count < 0:
            raise SnapshotFormatError(
                f"window snapshot {key} must be a non-negative integer, "
                f"got {count!r}"
            )
    try:
        window = WindowedSketchTree(
            config, header["window_trees"], header["bucket_trees"]
        )
    except ConfigError as exc:
        raise SnapshotFormatError(
            f"window snapshot geometry is invalid: {exc}"
        ) from exc
    buckets: list[SketchTree] = []
    offset = 0
    while offset < len(payload):
        # A length that runs past the payload leaves a short nested
        # frame, which fails its own checks.
        length = int.from_bytes(payload[offset : offset + _LENGTH_BYTES], "big")
        offset += _LENGTH_BYTES + length
        buckets.append(snapshot_from_bytes(payload[offset - length : offset]))
    if len(buckets) != header["n_buckets"]:
        raise SnapshotIntegrityError(
            f"window snapshot carries {len(buckets)} buckets, header "
            f"declares {header['n_buckets']}"
        )
    if not buckets:
        raise SnapshotFormatError(
            "window snapshot carries no buckets (needs at least the "
            "in-progress one)"
        )
    if len(buckets) - 1 > window.n_buckets:
        raise SnapshotFormatError(
            f"window snapshot carries {len(buckets) - 1} complete buckets, "
            f"geometry retains at most {window.n_buckets}"
        )
    for position, bucket in enumerate(buckets):
        if bucket.config != config:
            raise SnapshotFormatError(
                f"window snapshot bucket {position} was written with a "
                "different config than the container declares"
            )
    for position, bucket in enumerate(buckets[:-1]):
        if bucket.n_trees != window.bucket_trees:
            raise SnapshotFormatError(
                f"window snapshot complete bucket {position} holds "
                f"{bucket.n_trees} trees, expected exactly "
                f"{window.bucket_trees}"
            )
    current = buckets[-1]
    if current.n_trees >= window.bucket_trees:
        raise SnapshotFormatError(
            f"window snapshot in-progress bucket holds {current.n_trees} "
            f"trees, expected fewer than {window.bucket_trees}"
        )
    covered = sum(bucket.n_trees for bucket in buckets)
    if header["n_trees_seen"] < covered:
        raise SnapshotIntegrityError(
            f"window snapshot n_trees_seen={header['n_trees_seen']} is "
            f"smaller than the {covered} trees its buckets cover"
        )
    # A window's buckets share one encoder: the in-progress bucket's,
    # restored from its label numbering.  Every bucket was written from
    # that encoder, so each numbering must be a prefix of its own.
    numbering = current.encoder.label_numbering() or []
    for position, bucket in enumerate(buckets[:-1]):
        own = bucket.encoder.label_numbering() or []
        if own != numbering[: len(own)]:
            raise SnapshotFormatError(
                f"window snapshot bucket {position} numbers labels unlike "
                "the in-progress bucket — they cannot share one encoder"
            )
        bucket._encoder = current.encoder
    window._complete = deque(buckets[:-1])
    window._current = current
    window.n_trees_seen = header["n_trees_seen"]
    window.n_refolds = header["n_refolds"]
    window.n_refold_candidates = header["n_refold_candidates"]
    return window


# ---------------------------------------------------------------------------
# Files
# ---------------------------------------------------------------------------

def _serialise(synopsis: "SketchTree | WindowedSketchTree") -> bytes:
    """Dispatch on the synopsis type: plain snapshot or window container."""
    if isinstance(synopsis, SketchTree):
        return snapshot_to_bytes(synopsis)
    from repro.core.window import WindowedSketchTree

    if isinstance(synopsis, WindowedSketchTree):
        return window_to_bytes(synopsis)
    raise ConfigError(
        f"cannot snapshot a {type(synopsis).__name__}: expected a "
        "SketchTree or WindowedSketchTree"
    )


def _deserialise(blob: bytes) -> "SketchTree | WindowedSketchTree":
    """Dispatch on the leading magic: plain snapshot or window container."""
    if blob.startswith(WINDOW_MAGIC):
        return window_from_bytes(blob)
    return snapshot_from_bytes(blob)


def save_snapshot(
    synopsis: "SketchTree | WindowedSketchTree", path: str | Path
) -> Path:
    """Write a snapshot atomically: temp file, fsync, then rename.

    A crash at any point leaves either the previous file or the new one,
    never a torn mixture — the property periodic checkpointing relies on
    (a crash before the rename also leaves the temp file, which
    :class:`CheckpointManager`'s retention removes).  Accepts plain synopses and sliding windows (dispatching to the
    matching format; see the module docstring).
    """
    target = Path(path)
    blob = _serialise(synopsis)
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    with open(tmp, "wb") as handle:
        handle.write(blob)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, target)
    if os.name == "posix":
        # Persist the rename itself, not just the file contents.
        dir_fd = os.open(str(target.parent), os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    return target


def load_snapshot(
    path: str | Path, expected_config: SketchTreeConfig | None = None
) -> "SketchTree | WindowedSketchTree":
    """Load a snapshot file, optionally insisting on a specific config.

    Dispatches on the file's leading magic: a plain synopsis snapshot
    restores a :class:`SketchTree`, a window container restores a
    :class:`~repro.core.window.WindowedSketchTree`.

    ``expected_config`` guards resume paths: restoring a synopsis whose
    config (and therefore ξ randomness) differs from the running job's
    would silently produce garbage estimates, so a mismatch raises
    :class:`~repro.errors.SnapshotConfigError` instead.
    """
    synopsis = _deserialise(Path(path).read_bytes())
    if expected_config is not None and synopsis.config != expected_config:
        raise SnapshotConfigError(
            f"snapshot {path} was written with a different configuration "
            f"(fingerprint {config_fingerprint(synopsis.config)[:12]}… vs "
            f"expected {config_fingerprint(expected_config)[:12]}…)"
        )
    return synopsis


class CheckpointManager:  # sketchlint: thread-safe
    """Crash-safe, keep-last-N checkpoint directory for one synopsis run.

    Checkpoints are snapshot files named ``<prefix>-<n_trees>`` (zero
    padded, so lexicographic order is stream order) written atomically by
    :func:`save_snapshot`.  Retention keeps the newest ``keep_last``
    files; recovery loads the newest checkpoint that validates, falling
    back to older ones if the newest is damaged.

    Thread-safe: one mutex serialises save → prune → recover over the
    directory, so a recovery scan never races retention's unlinks and
    two admin threads cannot interleave a save and a prune.

    ``metrics`` (``None`` → the process default, a no-op) records
    save/load durations and byte totals — timing lives here at the call
    sites, keeping the module-level snapshot functions deterministic.

    >>> manager = CheckpointManager("/tmp/ckpts", keep_last=3)  # doctest: +SKIP
    """

    #: File extension shared by every checkpoint this manager writes.
    SUFFIX = ".sktsnap"

    def __init__(
        self,
        directory: str | Path,
        keep_last: int = 3,
        prefix: str = "checkpoint",
        metrics: Registry | None = None,
    ):
        if keep_last < 1:
            raise ConfigError(f"keep_last must be >= 1, got {keep_last}")
        if not prefix or "/" in prefix:
            raise ConfigError(f"invalid checkpoint prefix {prefix!r}")
        self.directory = Path(directory)
        self.keep_last = keep_last
        self.prefix = prefix
        self.metrics = metrics if metrics is not None else get_default_registry()
        self._lock = threading.Lock()
        #: Lifetime checkpoint saves through this manager (introspection;
        #: surfaced as a pull counter by callers that care).
        self.n_saves = 0
        # This prefix's checkpoints, and the temp file save_snapshot
        # leaves behind when a save is killed before its rename.  A
        # longer prefix sharing the directory (``<prefix>-b``) matches
        # neither.
        name = re.escape(prefix) + r"-\d+" + re.escape(self.SUFFIX)
        self._checkpoint = re.compile(name)
        self._leftover = re.compile(rf"\.{name}\.\d+\.tmp")
        self.directory.mkdir(parents=True, exist_ok=True)

    def paths(self) -> list[Path]:
        """Existing checkpoint files, oldest first."""
        return sorted(
            path
            for path in self.directory.iterdir()
            if self._checkpoint.fullmatch(path.name)
        )

    def latest_path(self) -> Path | None:
        """The newest checkpoint file, or ``None`` when none exist."""
        existing = self.paths()
        return existing[-1] if existing else None

    def save(self, synopsis: "SketchTree | WindowedSketchTree") -> Path:
        """Checkpoint ``synopsis`` now and prune to ``keep_last`` files.

        Accepts plain synopses and sliding windows; a window's file is
        named by its absolute stream position (``n_trees_seen``), so
        lexicographic order stays stream order either way.
        """
        name = f"{self.prefix}-{synopsis.n_trees:012d}{self.SUFFIX}"
        obs = self.metrics
        with self._lock:
            start = time.perf_counter()
            path = save_snapshot(synopsis, self.directory / name)
            obs.histogram("snapshot_save_seconds").observe(
                time.perf_counter() - start
            )
            size = path.stat().st_size
            obs.histogram(
                "snapshot_save_bytes", buckets=BYTE_BUCKETS
            ).observe(size)
            obs.counter(
                "snapshot_save_bytes_total",
                help="bytes written by checkpoint saves",
            ).inc(size)
            self.n_saves += 1
            self._prune()
        return path

    def prune(self) -> None:
        """Delete all but the newest ``keep_last`` checkpoints, and any
        temp file a killed save of this prefix left behind."""
        with self._lock:
            self._prune()

    def _prune(self) -> None:  # sketchlint: guarded-by=_lock
        for stale in self.paths()[: -self.keep_last]:
            stale.unlink(missing_ok=True)
        for path in self.directory.iterdir():
            if self._leftover.fullmatch(path.name):
                path.unlink(missing_ok=True)

    def load(
        self,
        path: str | Path,
        expected_config: SketchTreeConfig | None = None,
    ) -> "SketchTree | WindowedSketchTree":
        """Load one checkpoint file (see :func:`load_snapshot`)."""
        obs = self.metrics
        start = time.perf_counter()
        synopsis = load_snapshot(path, expected_config)
        obs.histogram("snapshot_load_seconds").observe(
            time.perf_counter() - start
        )
        size = Path(path).stat().st_size
        obs.histogram("snapshot_load_bytes", buckets=BYTE_BUCKETS).observe(size)
        obs.counter(
            "snapshot_load_bytes_total",
            help="bytes read by checkpoint loads",
        ).inc(size)
        return synopsis

    def load_latest(
        self, expected_config: SketchTreeConfig | None = None
    ) -> "SketchTree | WindowedSketchTree | None":
        """Restore from the newest checkpoint that validates.

        Returns ``None`` when the directory holds no checkpoints.  When
        checkpoints exist but every one fails validation, raises the
        newest checkpoint's error — recovery must not silently start
        from scratch and undercount.
        """
        failures: list[tuple[Path, SnapshotError]] = []
        with self._lock:
            for path in reversed(self.paths()):
                try:
                    return self.load(path, expected_config)
                except SnapshotError as exc:
                    failures.append((path, exc))
        if failures:
            names = ", ".join(path.name for path, _ in failures)
            raise SnapshotIntegrityError(
                f"no loadable checkpoint in {self.directory} "
                f"(all failed validation: {names}); newest error: "
                f"{failures[0][1]}"
            ) from failures[0][1]
        return None

    def __repr__(self) -> str:
        return (
            f"CheckpointManager(directory={str(self.directory)!r}, "
            f"keep_last={self.keep_last}, checkpoints={len(self.paths())})"
        )
