"""The sharded always-on serving tier.

A long-lived, stdlib-only HTTP service over the paper's synopsis: N
ingest *shards* — each a single-writer thread draining a bounded queue
into its own :class:`~repro.core.sketchtree.SketchTree` built from one
shared config/seed — and a query tier that answers ``estimate_*`` by
summing per-shard estimates (lock-free reads under the single-writer
contract) or, for exact-merge admin queries, by quiescing the queues and
:meth:`~repro.core.sketchtree.SketchTree.merge`-ing the shards.  AMS
linearity is the scale-out story: shard synopses built with the same
config/seed merge bit-identically to one synopsis over the concatenated
stream, so sharding changes throughput, never answers.

Layering (the api / services split):

======================  ==================================================
``repro.serve.models``  request/response schemas, validation, API errors
``repro.serve.shards``  ``IngestShard`` — queue + drain thread + synopsis
``repro.serve.service`` ``ShardedService`` — routing, estimates, admin
``repro.serve.api``     HTTP handler: routing table, JSON, error mapping
``repro.serve.app``     process lifecycle: args, signals, graceful stop
======================  ==================================================

Run it::

    sketchtree-experiments serve --shards 4 --port 8080
    python -m repro.serve --port 0          # ephemeral port, printed

See docs/serving.md for the endpoint reference and the restart/resume
semantics, and docs/concurrency.md for the threading model the
``http-handlers`` / ``shard-ingest`` sketchlint entrypoint groups check.
"""

from repro.serve.models import ApiError, ESTIMATE_KINDS
from repro.serve.service import ShardedService
from repro.serve.shards import IngestShard, ShardFaultError

__all__ = [
    "ApiError",
    "ESTIMATE_KINDS",
    "IngestShard",
    "ShardFaultError",
    "ShardedService",
]
