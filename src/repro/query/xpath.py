"""A small XPath-subset front end for SketchTree queries.

The paper positions its query semantics relative to XPath (Section 2.1:
``COUNT(//A[B]/C)`` vs the pattern count of ``A(B, C)``), and its
Section 6.2 extension mirrors XPath's ``*`` and ``//``.  This module
parses the corresponding XPath fragment into the library's
:class:`~repro.query.summary.QueryNode` form:

* location steps separated by ``/`` (child) and ``//`` (descendant);
* name tests, ``*`` wildcards, and ``text()=``-free value tests written
  as plain names (values are just labels in this model);
* predicates ``[...]`` holding a relative path, possibly with ``|``
  OR-alternatives over names (paper Example 5's ``VBD|VBP|VBZ``);
* a leading ``/`` or ``//`` (absolute vs anywhere; SketchTree patterns
  match anywhere, so a leading ``/`` restricts nothing and a leading
  ``//`` is the default — both are accepted and ignored, documented).

Important semantic note (Section 2.1): SketchTree counts *pattern
occurrences*, XPath counts *target nodes*.  ``parse_xpath`` converts the
syntax only; the count returned for the converted query is SketchTree's
occurrence count, e.g. ``COUNT(Q) = 5`` vs XPath's 4 in the paper's
Figure 1 discussion.

Grammar (EBNF)::

    query      = ["/" | "//"] step { ("/" | "//") step }
    step       = name-test { predicate }
    name-test  = NAME ("|" NAME)* | "*"
    predicate  = "[" query "]"
"""

from __future__ import annotations

from repro.errors import PatternError
from repro.query.summary import QueryNode

_AXIS_TOKENS = ("//", "/")


def parse_xpath(text: str) -> QueryNode:
    """Parse an XPath-subset expression into a :class:`QueryNode`.

    >>> q = parse_xpath("A[B]/C")
    >>> q.label, [c.label for c in q.children]
    ('A', ['B', 'C'])
    >>> parse_xpath("A//C").children[0].edge
    'descendant'
    """
    parser = _XPathParser(text)
    query = parser.parse_query()
    parser.expect_end()
    return query


class _XPathParser:  # sketchlint: thread-confined
    """One parser per :func:`parse_xpath` call; it never leaves that call."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    # -- helpers ---------------------------------------------------------
    def _peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _take(self) -> str:
        token = self._peek()
        if token is None:
            raise PatternError("unexpected end of XPath expression")
        self.pos += 1
        return token

    def expect_end(self) -> None:
        if self._peek() is not None:
            raise PatternError(
                f"trailing tokens in XPath expression: {self.tokens[self.pos:]!r}"
            )

    # -- grammar ----------------------------------------------------------
    def parse_query(self, in_predicate: bool = False) -> QueryNode:
        first_edge = "child"
        if self._peek() in _AXIS_TOKENS:
            axis = self._take()
            if in_predicate:
                # A[//B]: B is a descendant of the context node A.  A
                # root-anchored A[/B] has no meaning in this model.
                if axis == "/":
                    raise PatternError(
                        "absolute paths inside predicates are not supported"
                    )
                first_edge = "descendant"
            # At the top level a leading / or // anchors nothing extra:
            # SketchTree patterns match anywhere.
        root = self._parse_step(first_edge)
        current = root
        while self._peek() in _AXIS_TOKENS:
            axis = self._take()
            child_edge = "descendant" if axis == "//" else "child"
            child = self._parse_step(child_edge)
            current.children.append(child)
            current = child
        return _rebuild(root)

    def _parse_step(self, edge: str) -> "_MutableStep":
        token = self._take()
        if token in ("/", "//", "[", "]", "|"):
            raise PatternError(f"expected a name test, got {token!r}")
        label = token
        while self._peek() == "|":
            self._take()
            label += "|" + self._take()
        step = _MutableStep(label, edge)
        while self._peek() == "[":
            self._take()
            predicate = self.parse_query(in_predicate=True)
            if self._peek() != "]":
                raise PatternError("unterminated predicate: missing ']'")
            self._take()
            step.children.append(_as_mutable(predicate))
        return step


class _MutableStep:
    """Builder node: QueryNode is frozen, so assemble mutably first."""

    __slots__ = ("label", "edge", "children")

    def __init__(self, label: str, edge: str):
        self.label = label
        self.edge = edge
        self.children: list[_MutableStep] = []


def _as_mutable(node: QueryNode) -> _MutableStep:
    step = _MutableStep(node.label, node.edge)
    step.children = [_as_mutable(child) for child in node.children]
    return step


def _rebuild(step: _MutableStep) -> QueryNode:
    return QueryNode(
        step.label,
        tuple(_rebuild(child) for child in step.children),
        step.edge,
    )


def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif text.startswith("//", i):
            tokens.append("//")
            i += 2
        elif ch in "/[]|":
            tokens.append(ch)
            i += 1
        else:
            j = i
            while j < len(text) and not text[j].isspace() and text[j] not in "/[]|":
                j += 1
            tokens.append(text[i:j])
            i = j
    if not tokens:
        raise PatternError("empty XPath expression")
    return tokens
