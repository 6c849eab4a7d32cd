"""Command-line entry point: paper experiments and snapshot operations.

Usage::

    sketchtree-experiments table1 --scale default
    sketchtree-experiments fig10 --dataset dblp --s1 75 --scale smoke
    sketchtree-experiments all --scale smoke
    sketchtree-experiments snapshot save out.sktsnap --dataset dblp --n-trees 300
    sketchtree-experiments snapshot load out.sktsnap --query "(article (author))"
    sketchtree-experiments snapshot resume ckpts/ --dataset dblp --n-trees 600
    sketchtree-experiments stats --dataset dblp --n-trees 200 --format prom
    sketchtree-experiments table1 --scale smoke --metrics-out metrics.json
    sketchtree-experiments serve --shards 4 --port 8080
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments import (
    ablations,
    appendix_xmark,
    cost,
    fig08,
    fig09,
    fig10,
    fig11,
    fig12,
    table1,
)
from repro.experiments.scale import by_name

_EXPERIMENTS = (
    "table1",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "cost",
    "ablations",
    "xmark",
    "export",
    "all",
)

_DATASETS = ("treebank", "dblp", "xmark")


def _add_experiment_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        default="default",
        choices=("smoke", "default", "paper"),
        help="stream sizes and sweep widths (default: default)",
    )
    parser.add_argument(
        "--dataset",
        default=None,
        choices=_DATASETS,
        help="restrict dataset-parameterised experiments (default: the "
        "paper's two corpora; 'xmark' selects the appendix dataset)",
    )
    parser.add_argument(
        "--s1",
        type=int,
        default=None,
        help="override the s1 sweep with a single value (fig10/fig12)",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="also append all rendered tables to FILE; for the 'export' "
        "experiment, the XML output path (default <dataset>.xml)",
    )
    _add_metrics_option(parser)


def _add_metrics_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="enable runtime metrics for this run and dump the registry "
        "to FILE as JSON when it finishes (see docs/observability.md)",
    )


def _add_synopsis_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("synopsis configuration")
    group.add_argument("--s1", type=int, default=50, help="AMS instances per group")
    group.add_argument("--s2", type=int, default=7, help="median-of-means groups")
    group.add_argument("--k", type=int, default=3, help="max pattern edges")
    group.add_argument(
        "--streams", type=int, default=229, help="virtual streams (prime)"
    )
    group.add_argument(
        "--topk", type=int, default=0, help="top-k tracked per stream (0 = off)"
    )
    group.add_argument(
        "--summary",
        action="store_true",
        help="maintain the structural summary (enables * and // queries)",
    )
    group.add_argument("--seed", type=int, default=0, help="master seed")


def _add_stream_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("input stream")
    group.add_argument(
        "--dataset", default="dblp", choices=_DATASETS, help="synthetic corpus"
    )
    group.add_argument(
        "--n-trees", type=int, default=200, help="trees to stream"
    )
    group.add_argument(
        "--data-seed", type=int, default=0, help="corpus generator seed"
    )
    corpus = parser.add_argument_group(
        "real corpus input (overrides --dataset; see docs/corpora.md)"
    )
    corpus.add_argument(
        "--corpus",
        nargs="+",
        default=None,
        metavar="GLOB",
        help="stream real corpus files/globs instead of a synthetic --dataset",
    )
    corpus.add_argument(
        "--corpus-format",
        default="ptb",
        choices=("ptb", "export", "dblp-xml"),
        help="Penn-Treebank brackets, Negra export, or DBLP-style XML",
    )
    corpus.add_argument(
        "--corpus-encoding", default="utf-8", help="corpus file encoding"
    )
    corpus.add_argument(
        "--strip-functions",
        action="store_true",
        help="strip grammatical-function suffixes (NP-SBJ -> NP)",
    )
    corpus.add_argument(
        "--drop-punct",
        action="store_true",
        help="drop punctuation preterminals",
    )
    corpus.add_argument(
        "--remove-empty",
        action="store_true",
        help="drop -NONE- trace preterminals and emptied ancestors",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sketchtree-experiments",
        description="Regenerate the SketchTree paper's tables and figures "
        "on synthetic streams (see DESIGN.md for the substitutions), and "
        "save/load/resume synopsis snapshots.",
    )
    commands = parser.add_subparsers(
        dest="experiment", required=True, metavar="experiment"
    )
    for name in _EXPERIMENTS:
        _add_experiment_options(commands.add_parser(name))

    snapshot = commands.add_parser(
        "snapshot",
        help="versioned synopsis persistence (save / load / resume)",
    )
    actions = snapshot.add_subparsers(
        dest="snapshot_command", required=True, metavar="action"
    )

    save = actions.add_parser(
        "save", help="stream a corpus into a synopsis and snapshot it"
    )
    save.add_argument("path", help="snapshot file to write")
    _add_stream_options(save)
    _add_synopsis_options(save)
    _add_metrics_option(save)

    load = actions.add_parser(
        "load", help="validate a snapshot and describe (or query) it"
    )
    load.add_argument("path", help="snapshot file to read")
    load.add_argument(
        "--query",
        default=None,
        metavar="SEXPR",
        help="also estimate this ordered pattern, e.g. \"(article (author))\"",
    )

    resume = actions.add_parser(
        "resume",
        help="continue a checkpointed streaming run from its last checkpoint",
    )
    resume.add_argument("directory", help="checkpoint directory")
    resume.add_argument(
        "--every", type=int, default=100, help="checkpoint every N trees"
    )
    resume.add_argument(
        "--keep", type=int, default=3, help="checkpoints retained (keep-last-N)"
    )
    resume.add_argument(
        "--query", default=None, metavar="SEXPR", help="estimate after the run"
    )
    _add_stream_options(resume)
    _add_synopsis_options(resume)
    _add_metrics_option(resume)

    stats = commands.add_parser(
        "stats",
        help="stream a corpus with runtime metrics enabled and report the "
        "registry (Prometheus text or JSON)",
    )
    _add_stream_options(stats)
    _add_synopsis_options(stats)
    stats.add_argument(
        "--batch-trees",
        type=int,
        default=32,
        help="cross-tree micro-batch size (default 32)",
    )
    stats.add_argument(
        "--format",
        default="prom",
        choices=("prom", "json"),
        help="report format: Prometheus text exposition or JSON (default prom)",
    )
    stats.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="write the report to FILE instead of stdout",
    )

    from repro.serve.app import add_serve_arguments

    serve = commands.add_parser(
        "serve",
        help="run the sharded always-on serving tier over HTTP "
        "(see docs/serving.md)",
    )
    add_serve_arguments(serve)
    return parser


# ---------------------------------------------------------------------------
# Snapshot subcommands
# ---------------------------------------------------------------------------

def _synopsis_config(args: argparse.Namespace):
    from repro.core.config import SketchTreeConfig

    return SketchTreeConfig(
        s1=args.s1,
        s2=args.s2,
        max_pattern_edges=args.k,
        n_virtual_streams=args.streams,
        topk_size=args.topk,
        maintain_summary=args.summary,
        seed=args.seed,
    )


def _dataset_stream(args: argparse.Namespace):
    if getattr(args, "corpus", None):
        from itertools import islice

        from repro.corpora import CorpusReader

        reader = CorpusReader(
            args.corpus,
            format=args.corpus_format,
            encoding=args.corpus_encoding,
            functions="remove" if args.strip_functions else None,
            punct="remove" if args.drop_punct else None,
            remove_empty=args.remove_empty,
        )
        # --n-trees caps real corpora too (0 or negative = the whole corpus).
        if args.n_trees > 0:
            return islice(reader.itertrees(), args.n_trees)
        return reader.itertrees()
    from repro.datasets import DblpGenerator, TreebankGenerator, XMarkGenerator

    generator_cls = {
        "treebank": TreebankGenerator,
        "dblp": DblpGenerator,
        "xmark": XMarkGenerator,
    }[args.dataset]
    return generator_cls(seed=args.data_seed).generate(args.n_trees)


def _describe(synopsis) -> None:
    from repro.core.snapshot import FORMAT_VERSION, config_fingerprint

    config = synopsis.config
    print(f"format version:  {FORMAT_VERSION}")
    print(f"fingerprint:     {config_fingerprint(config)[:16]}…")
    print(
        f"config:          s1={config.s1} s2={config.s2} "
        f"k={config.max_pattern_edges} streams={config.n_virtual_streams} "
        f"topk={config.topk_size} summary={config.maintain_summary} "
        f"seed={config.seed}"
    )
    print(f"trees:           {synopsis.n_trees}")
    print(f"occurrences:     {synopsis.n_values}")
    print(f"streams in use:  {synopsis.streams.n_nonzero}")
    if synopsis.summary is not None:
        print(f"summary paths:   {synopsis.summary.n_paths}")


def _run_snapshot(args: argparse.Namespace) -> int:
    import time

    from repro.core.sketchtree import SketchTree
    from repro.core.snapshot import (
        CheckpointManager,
        load_snapshot,
        save_snapshot,
    )
    from repro.errors import ReproError
    from repro.obs import MetricsRegistry, write_json
    from repro.obs.registry import BYTE_BUCKETS
    from repro.stream.engine import StreamProcessor

    metrics_out = getattr(args, "metrics_out", None)
    registry = MetricsRegistry() if metrics_out else None
    try:
        if args.snapshot_command == "save":
            synopsis = SketchTree(_synopsis_config(args), metrics=registry)
            processor = StreamProcessor([synopsis], metrics=registry)
            processor.run(_dataset_stream(args))
            start = time.perf_counter()
            path = save_snapshot(synopsis, args.path)
            if registry is not None:
                registry.histogram("snapshot_save_seconds").observe(
                    time.perf_counter() - start
                )
                registry.histogram(
                    "snapshot_save_bytes", buckets=BYTE_BUCKETS
                ).observe(path.stat().st_size)
            print(f"wrote {path}")
            _describe(synopsis)
        elif args.snapshot_command == "load":
            synopsis = load_snapshot(args.path)
            print(f"loaded {args.path}")
            _describe(synopsis)
            if args.query:
                estimate = synopsis.estimate_ordered(args.query)
                print(f"estimate:        {args.query} -> {estimate:.1f}")
        else:  # resume
            manager = CheckpointManager(
                args.directory, keep_last=args.keep, metrics=registry
            )
            processor = StreamProcessor(
                [SketchTree(_synopsis_config(args), metrics=registry)],
                snapshot_every=args.every,
                checkpoints=manager,
                metrics=registry,
            )
            stats = processor.resume(_dataset_stream(args))
            synopsis = processor.consumers[0]
            if registry is not None:
                synopsis.set_metrics(registry)  # re-attach after restore
            processor.snapshot_now()
            print(
                f"resumed from {stats.resumed_from} checkpointed trees; "
                f"processed {stats.n_trees} more "
                f"({len(stats.snapshot_paths) + 1} checkpoints written)"
            )
            _describe(synopsis)
            if args.query:
                estimate = synopsis.estimate_ordered(args.query)
                print(f"estimate:        {args.query} -> {estimate:.1f}")
        if registry is not None:
            print(f"wrote metrics to {write_json(registry, metrics_out)}")
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _run_stats(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.core.sketchtree import SketchTree
    from repro.errors import ReproError
    from repro.obs import MetricsRegistry, to_json_dict, to_prometheus_text
    from repro.stream.engine import StreamProcessor

    registry = MetricsRegistry()
    try:
        synopsis = SketchTree(_synopsis_config(args), metrics=registry)
        processor = StreamProcessor(
            [synopsis], batch_trees=args.batch_trees, metrics=registry
        )
        stats = processor.run(_dataset_stream(args))
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "prom":
        report = to_prometheus_text(registry)
    else:
        report = json.dumps(to_json_dict(registry), indent=2, sort_keys=True) + "\n"
    print(
        f"processed {stats.n_trees} trees "
        f"({stats.trees_per_second:.1f} trees/s)",
        file=sys.stderr,
    )
    if args.out:
        Path(args.out).write_text(report)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(report, end="")
    return 0


# ---------------------------------------------------------------------------
# Experiment dispatch
# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.experiment == "serve":
        from repro.serve.app import run_from_args

        return run_from_args(args)
    if args.experiment == "stats":
        return _run_stats(args)
    if args.experiment == "snapshot":
        return _run_snapshot(args)
    scale = by_name(args.scale)
    datasets = (args.dataset,) if args.dataset else ("treebank", "dblp")
    sink = open(args.out, "a") if args.out else None

    registry = previous = None
    if args.metrics_out:
        from repro.obs import MetricsRegistry, set_default_registry

        # Experiments build their synopses internally; installing a process
        # default is how metrics reach them without threading a parameter
        # through every experiment module.
        registry = MetricsRegistry()
        previous = set_default_registry(registry)

    def emit(text: str = "") -> None:
        print(text)
        if sink is not None:
            sink.write(text + "\n")

    def run_one(name: str) -> None:
        if name == "table1":
            emit(table1.render(table1.run(scale)))
        elif name == "fig8":
            for dataset in datasets:
                emit(fig08.render(fig08.run(dataset, scale)))
                emit("")
        elif name == "fig9":
            for dataset in datasets:
                emit(fig09.render(fig09.run(dataset, scale)))
                emit("")
        elif name == "fig10":
            for dataset in datasets:
                s1_values = (
                    (args.s1,)
                    if args.s1
                    else (scale.treebank_s1 if dataset == "treebank" else scale.dblp_s1)
                )
                for s1 in s1_values:
                    emit(fig10.render(fig10.run(dataset, s1=s1, scale=scale)))
                    emit("")
        elif name == "fig11":
            for kind in ("sum", "product"):
                emit(fig11.render(fig11.run(kind, scale)))
                emit("")
        elif name == "fig12":
            for kind in ("sum", "product"):
                s1_values = (args.s1,) if args.s1 else scale.treebank_s1
                for s1 in s1_values:
                    emit(fig12.render(fig12.run(kind, s1=s1, scale=scale)))
                    emit("")
        elif name == "cost":
            for dataset in datasets:
                emit(cost.render(cost.run(dataset, scale)))
                emit("")
        elif name == "ablations":
            emit(ablations.render_virtual_streams(ablations.run_virtual_streams(scale)))
            emit("")
            emit(ablations.render_countsketch(ablations.run_countsketch(scale)))
            emit("")
            emit(ablations.render_mapping(ablations.run_mapping(scale)))
            emit("")
            emit(ablations.render_sum_estimator(ablations.run_sum_estimator(scale)))
            emit("")
            emit(ablations.render_xi_family(ablations.run_xi_family(scale)))
            emit("")
            emit(ablations.render_self_join(ablations.run_self_join(scale)))
            emit("")
            emit(
                ablations.render_false_positives(
                    ablations.run_false_positives(scale)
                )
            )
            emit("")
            emit(
                ablations.render_stream_scaling(
                    ablations.run_stream_scaling(scale)
                )
            )
            emit("")
            emit(ablations.render_query_size(ablations.run_query_size(scale)))
        elif name == "xmark":
            emit(appendix_xmark.render(appendix_xmark.run(scale=scale)))
        elif name == "export":
            from repro.experiments.data import export_xml

            for dataset in datasets:
                path = args.out or f"{dataset}.xml"
                count = export_xml(dataset, path, scale)
                print(f"wrote {count} trees to {path}")

    try:
        if args.experiment == "all":
            # 'export' writes XML files rather than tables; not part of 'all'.
            for name in _EXPERIMENTS[:-2]:
                run_one(name)
                emit("")
        else:
            run_one(args.experiment)
    finally:
        if registry is not None:
            from repro.obs import set_default_registry, write_json

            set_default_registry(previous)
            print(f"wrote metrics to {write_json(registry, args.metrics_out)}")
        if sink is not None:
            sink.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
