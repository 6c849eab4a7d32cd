"""A chunk-fed XML lexer and serializer for labeled trees.

The paper streams XML documents (TREEBANK and DBLP) as ordered labeled
trees.  This module implements the subset of XML those corpora use, with
the mapping the paper's evaluation implies:

* an element becomes a node labeled with the element name;
* non-whitespace character data (CDATA / text) becomes a *leaf child* of
  the enclosing element, labeled with the text — this is how the paper's
  DBLP queries can mix "element names as well as values (CDATA)";
* attributes become child nodes labeled ``@name`` with a single text leaf
  child holding the value (DBLP uses attributes sparingly; this keeps the
  information without special cases downstream);
* comments, processing instructions, the XML declaration and DOCTYPE
  (internal subset included) are skipped.

Every reader runs on one lexer.  :class:`_Lexer` takes text a chunk at a
time and turns it into open/text/close events.  One compiled pattern
takes one whole construct at a time — a tag, a text run, a comment, a
CDATA section, a processing instruction or a declaration — and the lexer
waits for the next chunk only when a construct is cut off at the end of
its buffer.  Because a construct is only ever matched whole, every
chunking of a document reads the same events, the same trees and the
same errors.  :func:`_fold` turns events into one tree per element at
the lexer's depth: the whole-text entry points here read at depth 0,
and :func:`repro.corpora.dblp.iter_dblp_trees` reads a file's chunks at
depth 1, dropping the root's own tags.

The lexer is hand-rolled rather than a wrapper over :mod:`xml.etree`: it
is a substrate of the reproduction, and every defect is an
:class:`~repro.errors.XmlParseError` carrying the absolute document
offset of the fault.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator

from repro.errors import XmlParseError
from repro.trees.node import TreeNode
from repro.trees.tree import LabeledTree

_ENTITY_MAP = {"lt": "<", "gt": ">", "amp": "&", "apos": "'", "quot": '"'}

#: An element or attribute name: no whitespace, markup or quote
#: character, and no leading ``!`` or ``?`` (those open declarations and
#: processing instructions).
_NAME = r"[^\s<>/=\"'!?][^\s<>/=\"']*"

#: One whole construct.  The last group that matched tells which: 1 a
#: text run, 2 a close tag, 5 a start tag (3 its name, 4 its attributes,
#: 5 the ``/`` of an empty element), 6 a CDATA section, none a comment,
#: processing instruction or declaration.
_TOKEN = re.compile(
    rf"""
    ([^<]+)(?=<)
  | </({_NAME})\s*>
  | <({_NAME})((?:\s*{_NAME}\s*=\s*(?:"[^"]*"|'[^']*'))*)\s*(/?)>
  | <!\[CDATA\[(.*?)]]>
  | <!--.*?-->
  | <\?.*?\?>
  | <!(?!--|\[CDATA\[)[^>\[]*(?:\[[^\]]*][^>\[]*)*>
    """,
    re.S | re.X,
)
_ATTRIBUTE = re.compile(rf"""\s*({_NAME})\s*=\s*(["'])(.*?)\2""", re.S)
#: A tag's extent: up to the first ``>`` outside quotes.
_TAG_EXTENT = re.compile(r"""<[^>"']*(?:(?:"[^"]*"|'[^']*')[^>"']*)*>""")
_NON_SPACE = re.compile(r"\S")
#: Skipped constructs by opener.  ``<!`` comes last: it also covers
#: the cut-off beginnings of ``<!--`` and ``<![CDATA[``.
_SKIPPED = (
    ("<!--", "comment"),
    ("<![CDATA[", "CDATA section"),
    ("<?", "processing instruction"),
    ("<!", "declaration"),
)
_CLOSE = ("close",)
#: Slice size in characters for the whole-text entry points.
_SLICE_CHARS = 1 << 16


def parse_xml(text: str, keep_attributes: bool = True) -> LabeledTree:
    """Parse one XML document into a :class:`LabeledTree`.

    Parameters
    ----------
    text:
        The XML document text.  Exactly one root element is expected.
    keep_attributes:
        When ``False``, attributes are dropped instead of becoming
        ``@name`` child nodes.
    """
    (tree,) = _fold(_events(_slices(text), keep_attributes, document=True))
    return tree


def parse_forest(text: str, keep_attributes: bool = True) -> list[LabeledTree]:
    """Parse a sequence of sibling XML elements into a list of trees.

    This is the paper's stream construction: "a forest of trees were
    created by removing the root tag of the document".
    """
    return list(iter_parse_forest(text, keep_attributes=keep_attributes))


def iter_parse_forest(text: str, keep_attributes: bool = True) -> Iterator[LabeledTree]:
    """Lazily parse top-level elements, yielding one tree per element.

    This is the streaming entry point: each yielded tree can be fed to
    :meth:`repro.SketchTree.update` without materialising the whole forest.
    """
    return _fold(_events(_slices(text), keep_attributes))


def iter_events(text: str, keep_attributes: bool = True) -> Iterator[tuple]:
    """SAX-style event stream over a sequence of top-level XML elements.

    Yields tuples:

    * ``("open", label)`` — a start tag (attributes, when kept, follow
      immediately as an ``open``/``text``/``close`` triple per attribute,
      mirroring :func:`parse_xml`'s ``@name`` mapping);
    * ``("text", value)`` — non-whitespace character data / CDATA;
    * ``("close",)`` — the matching end tag.

    Each top-level element produces a balanced open/close bracket; the
    event stream applied to a tree builder reproduces
    :func:`iter_parse_forest` exactly (tested), but lets consumers — such
    as :class:`repro.stream.sax.SaxPatternEnumerator` — process documents
    without materialising whole trees.
    """
    return _events(_slices(text), keep_attributes)


def _slices(text: str) -> Iterator[str]:
    """Feed a whole text in bounded slices, so events stay one slice deep."""
    for start in range(0, len(text), _SLICE_CHARS):
        yield text[start : start + _SLICE_CHARS]


def _events(
    chunks: Iterable[str],
    keep_attributes: bool,
    depth: int = 0,
    document: bool = False,
) -> Iterator[tuple]:
    """Lex ``chunks`` in order; see :class:`_Lexer` for the arguments."""
    lexer = _Lexer(keep_attributes, depth, document)
    for chunk in chunks:
        yield from lexer.feed(chunk)
    lexer.close()


def _fold(events: Iterable[tuple]) -> Iterator[LabeledTree]:
    """Fold balanced events into one tree per outermost element."""
    stack: list[TreeNode] = []
    for event in events:
        kind = event[0]
        if kind == "open":
            node = TreeNode(event[1])
            if stack:
                stack[-1].children.append(node)
            stack.append(node)
        elif kind == "text":
            stack[-1].children.append(TreeNode(event[1]))
        else:
            node = stack.pop()
            if not stack:
                yield LabeledTree(node)


class _Lexer:  # sketchlint: thread-confined
    """Chunk-fed XML lexer: text in, open/text/close events out.

    ``depth`` drops the tags of the outermost ``depth`` levels, their
    attributes and the character data directly inside them, so each
    element at that depth becomes an outermost bracket of events.  With
    ``document`` set, exactly one root element is required.
    :attr:`buffer` holds only an unfinished construct between calls.
    """

    def __init__(self, keep_attributes: bool, depth: int = 0, document: bool = False):
        self.keep_attributes = keep_attributes
        self.depth = depth
        self.document = document
        self.buffer = ""
        self.offset = 0  # document offset of buffer[0]
        self.names: list[str] = []  # open elements, outermost first
        self.text: list[str] = []  # character data since the last tag
        self.roots = 0

    def feed(self, chunk: str) -> list[tuple]:
        """Lex ``chunk`` after the buffered text; return its events."""
        buf = self.buffer + chunk
        end = len(buf)
        offset = self.offset
        keep = self.keep_attributes
        depth = self.depth
        names = self.names
        text = self.text
        events: list[tuple] = []
        emit = events.append
        match = _TOKEN.match
        pos = 0
        while pos < end:
            if not names:
                visible = _NON_SPACE.search(buf, pos)
                if visible is None:
                    pos = end
                    break
                pos = visible.start()
                if buf[pos] != "<":
                    raise XmlParseError(
                        "unexpected character data at the top level", offset + pos
                    )
            token = match(buf, pos)
            if token is None:
                self._stall(buf, pos, final=False)
                break
            at = offset + pos
            pos = token.end()
            kind = token.lastindex
            if kind is None:  # a comment, processing instruction or declaration
                continue
            if kind == 1:
                text.append(_unescape(token.group(1), at))
                continue
            if kind == 6:
                if not names:
                    raise XmlParseError(
                        "unexpected character data at the top level", at
                    )
                text.append(token.group(6))
                continue
            # A tag ends the character data before it.
            if text:
                value = "".join(text).strip()
                text.clear()
                if value and len(names) > depth:
                    emit(("text", value))
            if kind == 2:
                name = token.group(2)
                if not names:
                    raise XmlParseError(
                        f"close tag </{name}> without an open element", at
                    )
                if name != names[-1]:
                    raise XmlParseError(
                        f"mismatched close tag </{name}> for <{names[-1]}>", at
                    )
                names.pop()
                if len(names) >= depth:
                    emit(_CLOSE)
                continue
            name = token.group(3)
            level = len(names)
            if not level:
                if self.document and self.roots:
                    raise XmlParseError(f"second root element <{name}>", at)
                self.roots += 1
            shown = level >= depth
            if shown:
                emit(("open", name))
            attributes = token.group(4)
            # Values are unescaped even when dropped, so a malformed
            # character reference always raises.
            if attributes and (keep or "&" in attributes):
                base = offset + token.start(4)
                for pair in _ATTRIBUTE.finditer(attributes):
                    value = _unescape(pair.group(3), base + pair.start(3))
                    if keep and shown:
                        emit(("open", "@" + pair.group(1)))
                        if value:
                            emit(("text", value))
                        emit(_CLOSE)
            if not token.group(5):
                names.append(name)
            elif shown:
                emit(_CLOSE)
        self.buffer = buf[pos:]
        self.offset = offset + pos
        return events

    def close(self) -> None:
        """End of input: refuse whatever is left unfinished."""
        if self.buffer:
            self._stall(self.buffer, 0, final=True)
        if self.names:
            raise XmlParseError(f"unterminated element <{self.names[-1]}>", self.offset)
        if self.document and not self.roots:
            raise XmlParseError("no root element found", self.offset)

    def _stall(self, buf: str, pos: int, final: bool) -> None:
        """No whole construct matches at ``buf[pos]``.

        Return when more input could still complete it; otherwise raise
        at its document offset.  Either way the answer depends only on
        text before the construct's end, so it is the same for every
        chunking.
        """
        at = self.offset + pos
        if buf[pos] != "<":  # a text run not yet followed by a tag
            if final:
                raise XmlParseError(
                    f"unterminated element <{self.names[-1]}>", self.offset + len(buf)
                )
            return
        for opener, what in _SKIPPED:
            if buf.startswith(opener, pos):
                if final:
                    raise XmlParseError(f"unterminated {what}", at)
                return
        # A start or end tag.  Names hold no quote, so a complete tag's
        # quotes are its attribute values', and it ends at the first ">"
        # outside them; a tag that failed to match before that is malformed.
        extent = _TAG_EXTENT.match(buf, pos)
        if extent is None:
            if final:
                raise XmlParseError("unterminated tag", at)
            return
        kind = "close" if buf.startswith("</", pos) else "start"
        raise XmlParseError(f"malformed {kind} tag {extent.group()[:60]!r}", at)


def _unescape(text: str, base: int = 0) -> str:
    """Resolve the five predefined entities plus numeric references.

    ``base`` is the absolute document offset of ``text``, so malformed
    numeric character references are reported at their real position.
    """
    if "&" not in text:
        return text
    out: list[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch != "&":
            out.append(ch)
            i += 1
            continue
        end = text.find(";", i + 1)
        if end < 0:
            out.append(ch)
            i += 1
            continue
        entity = text[i + 1 : end]
        if entity in _ENTITY_MAP:
            out.append(_ENTITY_MAP[entity])
        elif entity.startswith("#x") or entity.startswith("#X"):
            out.append(_char_reference(entity[2:], 16, base + i))
        elif entity.startswith("#"):
            out.append(_char_reference(entity[1:], 10, base + i))
        else:
            out.append(text[i : end + 1])  # unknown entity: keep verbatim
        i = end + 1
    return "".join(out)


def _char_reference(digits: str, radix: int, position: int) -> str:
    """Decode one numeric character reference, refusing malformed input.

    ``int``/``chr`` raise ``ValueError``/``OverflowError`` on empty or
    non-numeric digit runs and out-of-range code points; callers of the
    parser expect every malformed-input defect as ``XmlParseError``.
    """
    try:
        return chr(int(digits, radix))
    except (ValueError, OverflowError):
        raise XmlParseError(
            f"malformed numeric character reference &#{'x' if radix == 16 else ''}"
            f"{digits};",
            position,
        ) from None


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
    )


def _escape_attribute(text: str) -> str:
    # Attribute values are always emitted between double quotes, so a
    # literal '"' must become &quot; (a bare single quote is fine there).
    return _escape(text).replace('"', "&quot;")


def to_xml(tree: LabeledTree) -> str:
    """Serialise a tree to XML.

    Nodes whose labels are valid element names become elements; leaf nodes
    whose labels are *not* valid element names (they contain whitespace or
    markup characters) are emitted as text content.  ``@name`` nodes with a
    single leaf child are emitted as attributes, inverting the parser's
    attribute mapping.
    """
    parts: list[str] = []
    # Iterative with explicit close markers so arbitrarily deep trees
    # serialise without hitting the recursion limit.
    stack: list = [("node", tree.root)]
    while stack:
        kind, payload = stack.pop()
        if kind == "close":
            parts.append(payload)
            continue
        closer, content = _emit_open(tree, payload, parts)
        if closer is not None:
            stack.append(("close", closer))
            for kid in reversed(content):
                stack.append(("node", kid))
    return "".join(parts)


def _is_name(label: str) -> bool:
    return bool(label) and not any(c.isspace() or c in "<>&'\"=/" for c in label)


def _emit_open(
    tree: LabeledTree, num: int, parts: list[str]
) -> tuple[str | None, tuple[int, ...]]:
    """Emit a node's text or start tag.

    Returns ``(close_string, content_children)``; ``close_string`` is
    ``None`` when the node is already complete (text or empty element).
    """
    label = tree.label_of(num)
    kids = tree.children_of(num)
    if not kids and not _is_name(label):
        parts.append(_escape(label))
        return None, ()
    if not _is_name(label):
        raise XmlParseError(f"label {label!r} cannot be an XML element name")
    attrs: list[str] = []
    content: list[int] = []
    for kid in kids:
        kid_label = tree.label_of(kid)
        kid_kids = tree.children_of(kid)
        if kid_label.startswith("@") and len(kid_kids) <= 1:
            value = tree.label_of(kid_kids[0]) if kid_kids else ""
            attrs.append(f' {kid_label[1:]}="{_escape_attribute(value)}"')
        else:
            content.append(kid)
    parts.append(f"<{label}{''.join(attrs)}")
    if not content:
        parts.append("/>")
        return None, ()
    parts.append(">")
    return f"</{label}>", tuple(content)
