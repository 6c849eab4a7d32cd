"""Streaming readers for real corpus formats.

The synthetic :mod:`repro.datasets` generators reproduce the *shape* of
the paper's corpora; this package reads the real formats those corpora
ship in, as lazily-streaming ``LabeledTree`` iterators that plug
straight into :class:`~repro.stream.engine.StreamProcessor`:

* :func:`~repro.corpora.ptb.iter_parse_ptb` — Penn-Treebank bracketed
  trees (``.mrg``), with position-annotated
  :class:`~repro.errors.CorpusParseError`;
* :func:`~repro.corpora.export.iter_parse_export` — Negra/Tiger export
  format;
* :func:`~repro.corpora.dblp.iter_dblp_trees` — a real DBLP-style XML
  document split into one tree per publication ("remove the root tag")
  with memory bounded by one record;
* :class:`~repro.corpora.reader.CorpusReader` — glob'd multi-file
  corpora with encoding and normalisation options (strip function
  labels, drop punctuation, remove ``-NONE-`` traces).

See ``docs/corpora.md`` for formats, options, CLI usage and fixture
provenance.
"""

from repro.corpora.dblp import DBLP_RECORD_TAGS, iter_dblp_trees
from repro.corpora.export import iter_parse_export, parse_export
from repro.corpora.normalize import NormalizeOptions, normalize_node, strip_function
from repro.corpora.ptb import iter_parse_ptb, parse_ptb
from repro.corpora.reader import FORMATS, CorpusReader

__all__ = [
    "CorpusReader",
    "DBLP_RECORD_TAGS",
    "FORMATS",
    "NormalizeOptions",
    "iter_dblp_trees",
    "iter_parse_export",
    "iter_parse_ptb",
    "normalize_node",
    "parse_export",
    "parse_ptb",
    "strip_function",
]
