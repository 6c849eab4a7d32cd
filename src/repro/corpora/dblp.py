"""Streaming reader for real DBLP-style XML: one tree per publication.

The paper's stream construction "removed the root tag of the document"
and treated each remaining top-level element as one tree of the stream.
A real ``dblp.xml`` is far larger than memory, so this reader never
materialises the document: the file's chunks are fed to the library's
one XML lexer (:mod:`repro.trees.xml`), which reads them at depth 1 —
the root's own tags, its attributes and the character data directly
inside it are dropped — and every child element of the root becomes one
tree.  Each byte is lexed once, and entity handling, attribute mapping
and errors are those of :func:`~repro.trees.xml.parse_forest`; an error
carries the absolute document offset of the fault.

Memory is bounded by one record plus one chunk: the lexer's buffer
holds only an unfinished construct between chunks.
"""

from __future__ import annotations

from typing import Iterator

from repro.trees.tree import LabeledTree
from repro.trees.xml import _events, _fold

#: The publication elements of the real DBLP DTD (children of ``<dblp>``).
DBLP_RECORD_TAGS = frozenset(
    {
        "article",
        "inproceedings",
        "proceedings",
        "book",
        "incollection",
        "phdthesis",
        "mastersthesis",
        "www",
        "data",
    }
)

#: Default chunk size in characters (~64 KiB of text per read).
DEFAULT_CHUNK_CHARS = 1 << 16


def iter_dblp_trees(
    path: str,
    record_tags=None,
    keep_attributes: bool = True,
    chunk_chars: int = DEFAULT_CHUNK_CHARS,
    encoding: str = "utf-8",
) -> Iterator[LabeledTree]:
    """Stream one :class:`LabeledTree` per publication from a DBLP XML file.

    ``record_tags`` restricts the yielded records to the given element
    names (e.g. :data:`DBLP_RECORD_TAGS`); ``None`` keeps every child of
    the root.  The document must have exactly one root element.  Memory
    stays bounded by the largest single record.
    """
    wanted = frozenset(record_tags) if record_tags is not None else None
    with open(path, "r", encoding=encoding) as handle:
        chunks = iter(lambda: handle.read(chunk_chars), "")
        events = _events(chunks, keep_attributes, depth=1, document=True)
        for tree in _fold(events):
            if wanted is None or tree.label_of(tree.root) in wanted:
                yield tree
