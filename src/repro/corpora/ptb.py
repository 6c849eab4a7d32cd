"""Penn-Treebank bracketed-tree lexer and parser (streaming).

The classic ``.mrg`` file format is a sequence of bracketed trees::

    ( (S (NP-SBJ (DT The) (NN cat)) (VP (VBD sat)) (. .)) )

The reader is a two-stage design — a regex tokenizer producing
line/column-annotated tokens, and an explicit-stack bracket parser — so
errors point at the offending token and arbitrarily deep parses cannot
overflow the recursion limit.  Each complete top-level tree is yielded
as soon as its closing bracket arrives, so a multi-gigabyte treebank
streams in constant memory straight into
:class:`~repro.stream.engine.StreamProcessor`.

Mapping: a nonterminal ``(NP ...)`` becomes an internal node labeled
``NP``; a terminal token becomes a leaf child of its preterminal —
the same "values are leaf children" convention as
:mod:`repro.trees.xml`, so treebank and XML streams feed identical
queries.  The conventional label-less wrapper bracket around each
sentence is unwrapped.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.corpora.normalize import NormalizeOptions, normalize_node
from repro.errors import CorpusParseError
from repro.trees.builders import SEXPR_TOKEN
from repro.trees.node import TreeNode
from repro.trees.tree import LabeledTree

#: Token kinds.
LPAREN = "("
RPAREN = ")"
STRING = "STRING"


class Token:
    """One lexical token with its 1-based source position."""

    __slots__ = ("kind", "value", "line", "column")

    def __init__(self, kind: str, value: str, line: int, column: int):
        self.kind = kind
        self.value = value
        self.line = line
        self.column = column

    def __repr__(self) -> str:
        return f"Token({self.value!r}, line={self.line}, column={self.column})"


def iter_tokens(lines: Iterable[str]) -> Iterator[Token]:
    """Tokenize lines into parens and label/terminal strings."""
    for lineno, line in enumerate(lines, start=1):
        for match in SEXPR_TOKEN.finditer(line):
            text = match.group()
            if text == "(":
                yield Token(LPAREN, text, lineno, match.start() + 1)
            elif text == ")":
                yield Token(RPAREN, text, lineno, match.start() + 1)
            else:
                yield Token(STRING, text, lineno, match.start() + 1)


class _Frame:
    """One open bracket: its (pending) label, children, and position."""

    __slots__ = ("label", "children", "line", "column")

    def __init__(self, line: int, column: int):
        self.label: str | None = None
        self.children: list[TreeNode] = []
        self.line = line
        self.column = column


def iter_parse_ptb(
    source: str | Iterable[str],
    normalize: NormalizeOptions | None = None,
    path: str | None = None,
) -> Iterator[LabeledTree]:
    """Lazily parse bracketed trees from a string or an iterable of lines.

    ``path`` only decorates error messages.  Trees that normalisation
    empties out entirely (e.g. a sentence that was all traces) are
    skipped, not yielded.
    """
    if isinstance(source, str):
        source = source.splitlines()
    options = normalize if normalize is not None else NormalizeOptions()
    stack: list[_Frame] = []
    last = (1, 1)
    for token in iter_tokens(source):
        last = (token.line, token.column)
        if token.kind == LPAREN:
            stack.append(_Frame(token.line, token.column))
        elif token.kind == STRING:
            if not stack:
                raise CorpusParseError(
                    f"token {token.value!r} outside any bracket",
                    path,
                    token.line,
                    token.column,
                )
            frame = stack[-1]
            if frame.label is None and not frame.children:
                frame.label = token.value
            else:
                frame.children.append(TreeNode(token.value))
        else:  # RPAREN
            if not stack:
                raise CorpusParseError(
                    "unbalanced ')'", path, token.line, token.column
                )
            frame = stack.pop()
            node = _close_frame(frame, path)
            if stack:
                stack[-1].children.append(node)
            else:
                root = normalize_node(node, options)
                if root is not None:
                    yield LabeledTree(root)
    if stack:
        frame = stack[0]
        raise CorpusParseError(
            f"unexpected end of input: bracket opened at line {frame.line}, "
            f"column {frame.column} was never closed",
            path,
            last[0],
            last[1],
        )


def _close_frame(frame: _Frame, path: str | None) -> TreeNode:
    if frame.label is not None:
        return TreeNode(frame.label, frame.children)
    # Label-less bracket: the PTB convention wraps each sentence in an
    # anonymous outer pair — unwrap its single child.
    if len(frame.children) == 1:
        return frame.children[0]
    detail = "an empty bracket" if not frame.children else (
        f"a label-less bracket with {len(frame.children)} children"
    )
    raise CorpusParseError(detail, path, frame.line, frame.column)


def parse_ptb(
    source: str | Iterable[str],
    normalize: NormalizeOptions | None = None,
    path: str | None = None,
) -> list[LabeledTree]:
    """Parse a whole bracketed-tree document into a list of trees."""
    return list(iter_parse_ptb(source, normalize=normalize, path=path))
