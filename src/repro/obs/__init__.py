"""Runtime observability: metrics registry, timing spans, exporters.

See :mod:`repro.obs.registry` for the design (one code path with
metrics on or off, pull instruments) and :doc:`docs/observability.md` for
usage.  Quick start::

    from repro.obs import MetricsRegistry, to_prometheus_text

    registry = MetricsRegistry()
    synopsis = SketchTree(config, metrics=registry)
    synopsis.ingest(trees)
    print(to_prometheus_text(registry))
"""

from repro.obs.export import to_json_dict, to_prometheus_text, write_json
from repro.obs.registry import (
    BYTE_BUCKETS,
    COUNT_BUCKETS,
    LATENCY_BUCKETS,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    Registry,
    Span,
    get_default_registry,
    set_default_registry,
    use_registry,
)

__all__ = [
    "BYTE_BUCKETS",
    "COUNT_BUCKETS",
    "LATENCY_BUCKETS",
    "NULL_REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "Registry",
    "Span",
    "get_default_registry",
    "set_default_registry",
    "to_json_dict",
    "to_prometheus_text",
    "use_registry",
    "write_json",
]
