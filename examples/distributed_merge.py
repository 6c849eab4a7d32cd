"""Distributed ingest: merge synopses built over disjoint sub-streams.

AMS sketches are linear projections, so two SketchTree synopses built
with the *same configuration and seeds* over different parts of a stream
can be added counter-wise into a synopsis of the whole stream — the
standard "sketch at the edges, merge at the center" deployment (and a
natural extension of the paper's Section 5.3 observation that sketches
sharing seeds are additive).

This example splits one stream across three "ingest nodes", merges the
three synopses, round-trips the result through serialisation, and checks
the merged estimates against a single-node synopsis and exact counts.

Run:  python examples/distributed_merge.py
"""

from repro import ExactCounter, SketchTree, SketchTreeConfig
from repro.datasets import DblpGenerator

N_RECORDS = 900
N_NODES = 3
K = 3


def main() -> None:
    config = SketchTreeConfig(
        s1=60, s2=7, max_pattern_edges=K, n_virtual_streams=229, seed=6,
    )
    trees = list(DblpGenerator(seed=12).generate(N_RECORDS))
    exact = ExactCounter(K).ingest(trees)

    # --- each node sketches its shard --------------------------------
    shards = [trees[i::N_NODES] for i in range(N_NODES)]
    nodes = []
    for index, shard in enumerate(shards):
        node = SketchTree(config).ingest(shard)
        print(f"node {index}: {node.n_trees} trees, "
              f"{node.n_values} pattern occurrences")
        nodes.append(node)

    # --- center merges (e.g. after shipping snapshot bytes) -----------
    blobs = [node.to_bytes() for node in nodes]
    print(f"snapshot sizes: {[len(b) // 1024 for b in blobs]} KB")
    restored = [SketchTree.from_bytes(blob) for blob in blobs]
    merged = restored[0].merge(*restored[1:])
    print(f"merged: {merged.n_trees} trees, {merged.n_values} occurrences\n")

    # --- merged synopsis answers like a single-node one ---------------
    single = SketchTree(config).ingest(trees)
    queries = [
        "(article (journal))",
        "(inproceedings (author) (title))",
        "(article (author (author_0000)))",
    ]
    print(f"{'query':<36} {'merged':>8} {'single':>8} {'actual':>8}")
    for sexpr in queries:
        merged_estimate = merged.estimate_ordered(sexpr)
        single_estimate = single.estimate_ordered(sexpr)
        from repro.trees import from_sexpr

        actual = exact.count_ordered(from_sexpr(sexpr).to_nested())
        print(f"{sexpr:<36} {merged_estimate:>8.1f} {single_estimate:>8.1f} "
              f"{actual:>8}")
    print("\nmerged and single-node estimates coincide exactly: the sketch "
          "is a linear projection, so ingest order and sharding cannot "
          "change the counters.")


if __name__ == "__main__":
    main()
