"""Every estimate kind, as one call on anything with the ``estimate_*`` surface.

The parity tests parametrise over :data:`KINDS`: a synopsis, a window,
a counter view and a merged copy must return the same floats for each.
The stream mixes tree shapes unevenly, so window buckets and service
shards see different compositions and per-part medians do not add up
to the summed-counter answer.
"""

import random

from repro.core.config import SketchTreeConfig

#: ``maintain_summary`` for the ``*``/``//`` kinds; independence 4 for
#: the expression's product term; three streams, so each holds many
#: values.  With this seed, every kind's per-bucket or per-shard sum of
#: answers differs from the summed-counter answer, so a regression to
#: adding per-part answers fails the parity tests.
CONFIG = SketchTreeConfig(
    s1=20,
    s2=5,
    max_pattern_edges=3,
    n_virtual_streams=3,
    maintain_summary=True,
    seed=11,
)

_SHAPES = [
    "(A (B) (C))",
    "(A (B (C)))",
    "(A (C) (B))",
    "(E (E1))",
    "(A (B) (B))",
    "(X (A (B)))",
    "(A (D) (C))",
    "(E (E1) (E2))",
]
STREAM = random.Random(5).choices(_SHAPES, k=60)

KINDS = {
    "ordered": lambda s: s.estimate_ordered("(A (B))"),
    "unordered": lambda s: s.estimate_unordered("(A (B) (C))"),
    "sum": lambda s: s.estimate_sum(["(A (B))", "(E (E1))", "(A (C))"]),
    "or": lambda s: s.estimate_or("(A (B|C))"),
    "expression": lambda s: s.estimate_expression(
        "COUNT(A/B) * COUNT(A/C) - COUNT(E/E1)"
    ),
    "xpath": lambda s: s.estimate_xpath("/A/B"),
    "xpath_descendant": lambda s: s.estimate_xpath("/A//C"),
    "xpath_wildcard": lambda s: s.estimate_xpath("/*/B"),
    "interval": lambda s: (
        lambda interval: (interval.estimate, interval.half_width)
    )(s.estimate_ordered_interval("(A (C))")),
    "self_join": lambda s: s.estimate_self_join_size(),
}

#: ``POST /estimate/<kind>`` requests for the :data:`KINDS` the HTTP
#: tier serves: the endpoint's kind and its JSON body.
HTTP_REQUESTS = {
    "ordered": ("ordered", {"query": "(A (B))"}),
    "unordered": ("unordered", {"query": "(A (B) (C))"}),
    "sum": ("sum", {"queries": ["(A (B))", "(E (E1))", "(A (C))"]}),
    "xpath": ("xpath", {"query": "/A/B"}),
    "xpath_descendant": ("xpath", {"query": "/A//C"}),
    "xpath_wildcard": ("xpath", {"query": "/*/B"}),
}

#: Synopsis configurations the grouped Theorem 2 pass must answer bit
#: for bit as the per-residue loop did: top-k on and off, both ξ
#: families, both value mappings, odd and even ``s2`` (the two median
#: branches), one stream (``p = 1``) and 8-wise independence.
SUM_CONFIGS = {
    "default": SketchTreeConfig(s1=20, s2=5, max_pattern_edges=3, n_virtual_streams=7),
    "topk": SketchTreeConfig(
        s1=20, s2=5, max_pattern_edges=3, n_virtual_streams=7, topk_size=4
    ),
    "bch": SketchTreeConfig(
        s1=16, s2=5, max_pattern_edges=3, n_virtual_streams=7, xi_family="bch"
    ),
    "pairing": SketchTreeConfig(
        s1=20, s2=5, max_pattern_edges=3, n_virtual_streams=7, mapping="pairing"
    ),
    "even_s2": SketchTreeConfig(
        s1=20, s2=6, max_pattern_edges=3, n_virtual_streams=7, topk_size=4
    ),
    "one_stream": SketchTreeConfig(s1=20, s2=4, max_pattern_edges=3, n_virtual_streams=1),
    "independence_8": SketchTreeConfig(
        s1=20, s2=5, max_pattern_edges=3, n_virtual_streams=7, independence=8
    ),
}
