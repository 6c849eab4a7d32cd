"""Tests for the real-corpus streaming readers (repro.corpora)."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.corpora import (
    DBLP_RECORD_TAGS,
    CorpusReader,
    NormalizeOptions,
    iter_dblp_trees,
    iter_parse_ptb,
    normalize_node,
    parse_export,
    parse_ptb,
    strip_function,
)
from repro.errors import ConfigError, CorpusParseError, XmlParseError
from repro.stream import StreamProcessor, iter_xml_patterns
from repro.trees import from_nested, iter_events, parse_forest, parse_xml, to_xml
from repro.trees.tree import LabeledTree
from repro.trees.xml import _events, _fold, _Lexer
from tests.strategies import nested_trees

from pathlib import Path

FIXTURES = Path(__file__).parent / "fixtures" / "corpora"


# ---------------------------------------------------------------------------
# Penn-Treebank bracketed trees
# ---------------------------------------------------------------------------

class TestPtbParser:
    def test_simple_tree(self):
        (tree,) = parse_ptb("(S (NP (DT the) (NN cat)) (VP (VBD sat)))")
        assert tree.to_nested() == (
            "S",
            (
                ("NP", (("DT", (("the", ()),)), ("NN", (("cat", ()),)))),
                ("VP", (("VBD", (("sat", ()),)),)),
            ),
        )

    def test_wrapper_bracket_unwrapped(self):
        (tree,) = parse_ptb("( (S (NN dog)) )")
        assert tree.label_of(tree.root) == "S"

    def test_multiple_trees_stream_lazily(self):
        iterator = iter_parse_ptb("(A (x))\n(B (y))\n(C (z))")
        first = next(iterator)
        assert first.label_of(first.root) == "A"
        assert [t.label_of(t.root) for t in iterator] == ["B", "C"]

    def test_tree_spanning_lines(self):
        (tree,) = parse_ptb(["(S\n", "  (NP (DT the))\n", "  (VP (VBD ran)))\n"])
        assert tree.label_of(tree.root) == "S"
        assert tree.n_nodes == 7

    def test_deep_tree_no_recursion_error(self):
        depth = 3000
        text = "(A " * depth + "(leaf x)" + ")" * depth
        (tree,) = parse_ptb(text)
        assert tree.n_nodes == depth + 2
        assert tree.depth() == depth + 1

    def test_mixed_terminal_after_child(self):
        (tree,) = parse_ptb("(NP (DT the) dog)")
        assert tree.to_nested() == ("NP", (("DT", (("the", ()),)), ("dog", ())))

    @pytest.mark.parametrize(
        "text",
        [
            "(S (NP (DT the))",   # unbalanced: missing ')'
            "(S (NP)) )",         # unbalanced: stray ')'
            "()",                 # empty bracket
            "( (A (x)) (B (y)) )",  # label-less bracket, two children
            "stray (S (x))",      # token outside brackets
        ],
    )
    def test_malformed_raises_corpus_parse_error(self, text):
        with pytest.raises(CorpusParseError):
            parse_ptb(text)

    def test_error_carries_line_and_column(self):
        with pytest.raises(CorpusParseError) as excinfo:
            parse_ptb(["(S (NP (DT the)))\n", "  )\n"], path="sample.mrg")
        assert excinfo.value.line == 2
        assert excinfo.value.column == 3
        assert excinfo.value.path == "sample.mrg"
        assert "sample.mrg" in str(excinfo.value)


class TestNormalization:
    def test_strip_function(self):
        assert strip_function("NP-SBJ") == "NP"
        assert strip_function("NP-SBJ-1") == "NP"
        assert strip_function("NP=2") == "NP"
        assert strip_function("-NONE-") == "-NONE-"
        assert strip_function("-LRB-") == "-LRB-"
        assert strip_function("PRP$") == "PRP$"

    def test_functions_removed_only_on_internal_nodes(self):
        options = NormalizeOptions(functions="remove")
        (tree,) = parse_ptb("(S (NP-SBJ (NN x-y)))", normalize=options)
        # The terminal token x-y is a value, not a syntactic label.
        assert tree.to_nested() == ("S", (("NP", (("NN", (("x-y", ()),)),)),))

    def test_trace_removal_prunes_empty_ancestors(self):
        options = NormalizeOptions(remove_empty=True)
        (tree,) = parse_ptb(
            "(S (NP (NN dog)) (SBAR (-NONE- *T*-1)))", normalize=options
        )
        assert tree.to_nested() == ("S", (("NP", (("NN", (("dog", ()),)),)),))

    def test_all_empty_tree_skipped(self):
        options = NormalizeOptions(remove_empty=True)
        assert parse_ptb("(S (-NONE- *)) (A (x))", normalize=options) != []
        trees = parse_ptb("(S (-NONE- *)) (A (x))", normalize=options)
        assert [t.label_of(t.root) for t in trees] == ["A"]

    def test_punctuation_removal(self):
        options = NormalizeOptions(punct="remove")
        (tree,) = parse_ptb("(S (NP (NN dog)) (. .) (, ,))", normalize=options)
        assert tree.to_nested() == ("S", (("NP", (("NN", (("dog", ()),)),)),))

    def test_invalid_option_rejected(self):
        with pytest.raises(ConfigError):
            NormalizeOptions(functions="bogus")
        with pytest.raises(ConfigError):
            NormalizeOptions(punct="move")

    @given(nested_trees(max_nodes=8))
    @settings(max_examples=50, deadline=None)
    def test_noop_normalization_preserves_tree(self, nested):
        from repro.trees.builders import node_from_nested

        root = node_from_nested(nested)
        full = NormalizeOptions(functions="remove", punct="remove", remove_empty=True)
        # Single-letter labels carry no function suffixes, traces or
        # punctuation, so even the full option set must be the identity.
        normalized = normalize_node(root, full)
        assert LabeledTree(normalized) == from_nested(nested)


# ---------------------------------------------------------------------------
# Negra export format
# ---------------------------------------------------------------------------

EXPORT_BLOCK = """\
#BOS 1
the\tDT\t--\tNK\t500
cat\tNN\t--\tNK\t500
sat\tVBD\t--\tHD\t501
#500\tNP\t--\tSB\t501
#501\tS\t--\t--\t0
#EOS 1
"""


class TestExportReader:
    def test_basic_block(self):
        (tree,) = parse_export(EXPORT_BLOCK)
        assert tree.to_nested() == (
            "S",
            (
                ("NP", (("DT", (("the", ()),)), ("NN", (("cat", ()),)))),
                ("VBD", (("sat", ()),)),
            ),
        )

    def test_multiple_roots_get_virtual_root(self):
        text = (
            "#BOS 1\nhi\tUH\t--\t--\t0\n!\t$.\t--\t--\t0\n#EOS 1\n"
        )
        (tree,) = parse_export(text)
        assert tree.label_of(tree.root) == "VROOT"
        assert tree.fanout_of(tree.root) == 2

    def test_functions_add(self):
        (tree,) = parse_export(EXPORT_BLOCK, functions="add")
        labels = set(tree.labels)
        assert "NP-SB" in labels and "S" in labels

    def test_sibling_order_by_first_terminal(self):
        # Nonterminal declared before its right sibling terminal, but its
        # span starts later: order must follow the terminals.
        text = (
            "#BOS 1\n"
            "b\tB\t--\t--\t500\n"
            "a\tA\t--\t--\t0\n"
            "#500\tNT\t--\t--\t0\n"
            "#EOS 1\n"
        )
        (tree,) = parse_export(text)
        kids = [tree.label_of(kid) for kid in tree.children_of(tree.root)]
        assert kids == ["NT", "A"]

    @pytest.mark.parametrize(
        "text",
        [
            "#BOS 1\nw\tT\t--\t--\t999\n#EOS 1\n",  # unknown parent
            "#BOS 1\nw\tT\t--\t--\t0\n",             # missing #EOS
            "#EOS 1\n",                               # EOS without BOS
            "#BOS 1\nw\tT\t--\t--\t0\n#EOS 2\n",     # number mismatch
            "w\tT\t--\t--\t0\n",                      # node outside block
            "#BOS 1\nw\tT\t--\tx\n#EOS 1\n",          # too few columns
            "#BOS 1\nw\tT\t--\t--\tX\n#EOS 1\n",     # non-numeric parent
        ],
    )
    def test_malformed_raises(self, text):
        with pytest.raises(CorpusParseError):
            parse_export(text)

    def test_comments_and_blank_lines_ignored(self):
        assert len(parse_export("%% header\n\n" + EXPORT_BLOCK)) == 1


# ---------------------------------------------------------------------------
# DBLP XML streaming
# ---------------------------------------------------------------------------

DBLP_FIXTURE = FIXTURES / "dblp_sample.xml"


class TestDblpReader:
    def test_fixture_record_count_and_tags(self):
        trees = list(iter_dblp_trees(str(DBLP_FIXTURE)))
        assert len(trees) == 8
        assert all(t.label_of(t.root) in DBLP_RECORD_TAGS for t in trees)

    def test_chunked_equals_whole_document(self):
        text = DBLP_FIXTURE.read_text()
        inner = text[text.index("<dblp>") + len("<dblp>") : text.rindex("</dblp>")]
        whole = parse_forest(inner)
        for chunk_chars in (1, 7, 64, 1 << 16):
            chunked = list(
                iter_dblp_trees(str(DBLP_FIXTURE), chunk_chars=chunk_chars)
            )
            assert chunked == whole

    def test_record_tags_filter(self):
        articles = list(
            iter_dblp_trees(str(DBLP_FIXTURE), record_tags={"article"})
        )
        assert len(articles) == 3
        assert all(t.label_of(t.root) == "article" for t in articles)

    def test_keep_attributes_false(self):
        trees = list(iter_dblp_trees(str(DBLP_FIXTURE), keep_attributes=False))
        assert not any(label.startswith("@") for t in trees for label in t.labels)

    def test_entities_and_cdata_decoded(self):
        trees = list(iter_dblp_trees(str(DBLP_FIXTURE)))
        labels = {label for tree in trees for label in tree.labels}
        assert 'On <Tree> Synopses: a "Sketch" Approach' in labels
        assert "Sorting & Searching <fast>" in labels
        assert "Gödel Numbers for Labeled Trees" in labels
        assert 'A"1"' in labels  # &quot; inside an attribute value

    def test_truncated_document_raises(self, tmp_path):
        truncated = tmp_path / "bad.xml"
        truncated.write_text("<dblp><article><title>x</title>")
        with pytest.raises(XmlParseError):
            list(iter_dblp_trees(str(truncated)))

    def test_malformed_record_error_carries_document_offset(self, tmp_path):
        bad = tmp_path / "bad.xml"
        bad.write_text("<dblp>\n<article><title>x</wrong></article>\n</dblp>")
        with pytest.raises(XmlParseError) as excinfo:
            list(iter_dblp_trees(str(bad)))
        assert excinfo.value.position == 24  # the offset of </wrong>

    def test_lexer_buffer_stays_bounded(self):
        text = DBLP_FIXTURE.read_text()
        lexer = _Lexer(keep_attributes=True, depth=1, document=True)
        high_water = 0
        for position in range(0, len(text), 32):
            lexer.feed(text[position : position + 32])
            high_water = max(high_water, len(lexer.buffer))
        lexer.close()
        # Memory is one record + one chunk, never the whole document.
        longest_record = max(
            len(record) for record in text.split("</article>")
        )
        assert high_water <= longest_record + 64

    @given(nested_trees(max_nodes=8), st.integers(min_value=1, max_value=33))
    @settings(max_examples=40, deadline=None)
    def test_chunked_roundtrip_property(self, nested, chunk_chars):
        # Any serialisable forest wrapped in a root tag must read back
        # record by record, identically, whatever the chunking.
        tree = from_nested(nested)
        record = to_xml(tree)
        document = f"<root>{record}{record}</root>"
        chunks = [
            document[i : i + chunk_chars]
            for i in range(0, len(document), chunk_chars)
        ]
        assert read_records(chunks) == [tree, tree]


def read_records(chunks) -> list[LabeledTree]:
    """The DBLP reader's path over in-memory chunks: depth 1, one root."""
    return list(_fold(_events(chunks, True, depth=1, document=True)))


#: Chunk sizes that cut every construct, cut some, and cut none.
CHUNK_CHARS = (1, 7, 1 << 16)


@pytest.mark.parametrize("chunk_chars", CHUNK_CHARS)
class TestOneRuleAtEveryChunkSize:
    """The DBLP reader's document rules, the same at every chunking."""

    def read(self, tmp_path, text, chunk_chars, keep_attributes=True):
        path = tmp_path / "doc.xml"
        path.write_text(text)
        return list(
            iter_dblp_trees(
                str(path), keep_attributes=keep_attributes, chunk_chars=chunk_chars
            )
        )

    def position_of_error(self, tmp_path, text, chunk_chars, **options) -> int:
        with pytest.raises(XmlParseError) as excinfo:
            self.read(tmp_path, text, chunk_chars, **options)
        return excinfo.value.position

    def test_second_root_raises_at_its_offset(self, tmp_path, chunk_chars):
        text = "<dblp><a/></dblp>\n<dblp><c/></dblp>"
        assert self.position_of_error(tmp_path, text, chunk_chars) == 18

    def test_root_closed_early_raises_at_the_next_element(
        self, tmp_path, chunk_chars
    ):
        text = "<dblp><a/></dblp><b/></dblp>"
        assert self.position_of_error(tmp_path, text, chunk_chars) == 17

    def test_stray_end_tag_raises_at_its_offset(self, tmp_path, chunk_chars):
        text = "<dblp><a/></dblp></dblp>"
        assert self.position_of_error(tmp_path, text, chunk_chars) == 17

    def test_doctype_with_internal_subset(self, tmp_path, chunk_chars):
        text = '<!DOCTYPE dblp [<!ENTITY x "y">]>\n<dblp><a/><b>t</b></dblp>'
        trees = self.read(tmp_path, text, chunk_chars)
        assert [t.to_nested() for t in trees] == [
            ("a", ()),
            ("b", (("t", ()),)),
        ]

    def test_root_attributes_and_text_are_not_records(
        self, tmp_path, chunk_chars
    ):
        text = '<dblp version="1">loose <a k="v"/> text</dblp>'
        trees = self.read(tmp_path, text, chunk_chars)
        assert [t.to_nested() for t in trees] == [
            ("a", (("@k", (("v", ()),)),)),
        ]

    def test_self_closing_root_yields_no_trees(self, tmp_path, chunk_chars):
        text = '<?xml version="1.0"?><dblp a="1"/>'
        assert self.read(tmp_path, text, chunk_chars) == []

    def test_dropped_attribute_values_are_still_unescaped(
        self, tmp_path, chunk_chars
    ):
        text = '<dblp><a k="&#;"/></dblp>'
        position = self.position_of_error(
            tmp_path, text, chunk_chars, keep_attributes=False
        )
        assert position == 12  # the offset of the bad reference's "&"

    def test_no_root_raises(self, tmp_path, chunk_chars):
        with pytest.raises(XmlParseError, match="no root element"):
            self.read(tmp_path, "<!-- only a comment -->\n", chunk_chars)


class TestDoctypeWithInternalSubset:
    TEXT = '<!DOCTYPE a [<!ENTITY x "y">]><a><b/></a>'

    def test_parse_xml(self):
        assert parse_xml(self.TEXT).to_nested() == ("a", (("b", ()),))

    def test_iter_events(self):
        assert list(iter_events(self.TEXT)) == [
            ("open", "a"), ("open", "b"), ("close",), ("close",),
        ]

    def test_iter_xml_patterns(self):
        assert list(iter_xml_patterns(self.TEXT, 2)) == [("a", (("b", ()),))]


#: Fragments of markup: tags, attributes, entities, comments, CDATA,
#: PIs, declarations, and pieces of each that cut them.
MARKUP = st.sampled_from(
    [
        "<r>", "</r>", "<a>", "</a>", "<b/>", "<a x='1'>", '<a y="&amp;>">',
        "text", " ", "\n", "<!--c-->", "<!-- - -->", "<![CDATA[x]]>",
        "<![CDATA[<]]>", "<?pi x?>", "<!DOCTYPE r [<!ENTITY e 'v'>]>",
        "&amp;", "&#65;", "&#;", "&lt;", "<", ">", "/", "'", '"', "=", "!",
        "?", "[", "]", "-", "<!", "<?", "</", "/>", "<a", " x=", "'v'",
        '"w"', "<!-->", "<?>", "]]>", "-->", "<r/>",
    ]
)
NAMES = st.sampled_from(["r", "a", "b2", "x:y"])
#: Attribute values with the characters a lexer can mistake for markup.
VALUES = st.sampled_from(["1", "a>b", "it's", 'say "hi"', "&amp;", "&#x41;", ""])
CONTENT = st.sampled_from(
    ["text", " a &amp; b ", "&#65;", "x > y", "<![CDATA[<x>]]>", "<!-- c -->",
     "<?pi x?>", "\n  "]
)


def _attribute(key: str, value: str) -> str:
    quote = "'" if '"' in value else '"'
    return f" {key}={quote}{value}{quote}"


def _element(parts) -> str:
    name, attributes, content = parts
    attrs = "".join(_attribute(key, value) for key, value in attributes)
    if content is None:
        return f"<{name}{attrs}/>"
    return f"<{name}{attrs}>{''.join(content)}</{name}>"


_ATTRIBUTES = st.lists(st.tuples(NAMES, VALUES), max_size=2)
ELEMENTS = st.recursive(
    st.tuples(NAMES, _ATTRIBUTES, st.none()).map(_element),
    lambda kids: st.tuples(
        NAMES, _ATTRIBUTES, st.lists(kids | CONTENT, max_size=4)
    ).map(_element),
    max_leaves=8,
)


def _document(prolog: str, body: str, junk: str, at: float) -> str:
    text = prolog + body
    cut = round(at * len(text))
    return text[:cut] + junk + text[cut:]


#: Mostly well-formed documents: a prolog, then elements, often under one
#: root, sometimes with a fragment of markup spliced in at a random point.
DOCUMENTS = st.builds(
    _document,
    st.sampled_from(["", "<?xml version='1.0'?>\n", '<!DOCTYPE r [<!ENTITY e "v">]>']),
    st.one_of(
        st.lists(ELEMENTS, max_size=3).map("".join),
        st.tuples(st.just("r"), st.just([]), st.lists(ELEMENTS | CONTENT, max_size=4))
        .map(_element),
    ),
    st.lists(MARKUP, max_size=2).map("".join),
    st.floats(0, 1),
)


def readings(text: str, cuts: list[int], depth: int, document: bool) -> list:
    """Read ``text`` whole, cut at ``cuts``, and one character at a time:
    the trees, or the offset of the error."""
    bounds = [0, *sorted(cuts), len(text)]
    feeds = ([text], [text[a:b] for a, b in zip(bounds, bounds[1:])], list(text))
    out = []
    for feed in feeds:
        try:
            events = _events(feed, True, depth=depth, document=document)
            out.append([t.to_nested() for t in _fold(events)])
        except XmlParseError as exc:
            out.append(exc.position)
    return out


class TestChunkingInvariance:
    """Cutting the input anywhere never changes what is read."""

    @given(
        st.one_of(st.lists(MARKUP, max_size=14).map("".join), DOCUMENTS),
        st.lists(st.floats(0, 1), max_size=6),
        st.sampled_from([(0, False), (0, True), (1, True)]),
    )
    # A quote in a name would open a quoted run only for the tag-extent
    # scan, which could then end this tag early while it is cut off.
    @example('<r><a"b c=">" d="x"/></r>', [], (0, False))
    @settings(max_examples=300, deadline=None)
    def test_chunked_reading_equals_whole_reading(self, text, fractions, mode):
        cuts = [round(f * len(text)) for f in fractions]
        whole, *chunked = readings(text, cuts, *mode)
        assert chunked == [whole, whole]


#: Normalisation settings, or none at all.
NORMALIZE = st.none() | st.builds(
    NormalizeOptions,
    functions=st.sampled_from([None, "leave", "remove"]),
    punct=st.sampled_from([None, "leave", "remove"]),
    remove_empty=st.booleans(),
)


def _splice(parts: list[str], junk: list[tuple[float, str]]) -> list[str]:
    """``parts`` with each piece of ``junk`` inserted at its fraction."""
    parts = list(parts)
    for at, piece in junk:
        parts.insert(round(at * len(parts)), piece)
    return parts


def _bracketed(nested) -> str:
    label, children = nested
    if not children:
        return label
    return f"({label} {' '.join(map(_bracketed, children))})"


#: Labels the normaliser rewrites or drops, and terminal tokens.
_PTB_LABELS = st.sampled_from(
    ["S", "NP-SBJ-1", "-NONE-", "*T*-1", "-LRB-", ",", "``", "x"]
)
#: Bracketed trees, one per line, with bracket, whitespace and label
#: text spliced in between any two characters.
PTB_TEXT = st.builds(
    _splice,
    st.lists(nested_trees(6, _PTB_LABELS).map(_bracketed), max_size=3)
    .map("\n".join)
    .map(list),
    st.lists(
        st.tuples(
            st.floats(0, 1),
            st.sampled_from(["(", ")", "( ", " ", "\n", "\t", "-NONE-", "="])
            | st.text(max_size=3),
        ),
        max_size=3,
    ),
).map("".join)


@st.composite
def _export_sentence(draw) -> list[str]:
    """One #BOS/#EOS block whose nodes hang under the root or any
    nonterminal, cycles and self-parents included."""
    n_nonterminals = draw(st.integers(0, 3))
    parents = st.sampled_from([0, *range(500, 500 + n_nonterminals)])
    tags = st.sampled_from(["NN", "NP", "S", "$.", "-NONE-"])
    functions = st.sampled_from(["--", "SB", "HD"])
    words = draw(st.lists(st.sampled_from(["w", "the", ",", "*T*"]), max_size=4))
    names = [*words, *(f"#{500 + i}" for i in range(n_nonterminals))]
    return [
        "#BOS 1",
        *(
            f"{name}\t{draw(tags)}\t--\t{draw(functions)}\t{draw(parents)}"
            for name in names
        ),
        "#EOS 1",
    ]


_EXPORT_FIELD = st.sampled_from(["w", "NN", "--", "0", "500", "#500", "-1", "x", ""])
#: Export blocks with sentence delimiters, node lines of any width,
#: comments and junk spliced in between any two lines.
EXPORT_TEXT = st.builds(
    _splice,
    st.lists(_export_sentence(), max_size=3).map(lambda blocks: sum(blocks, [])),
    st.lists(
        st.tuples(
            st.floats(0, 1),
            st.builds("#BOS {}".format, st.sampled_from(["1", "2", "x", ""]))
            | st.builds("#EOS {}".format, st.sampled_from(["1", "2", "x", ""]))
            | st.lists(_EXPORT_FIELD, max_size=7).map("\t".join)
            | st.sampled_from(["", "%% comment", "#FORMAT 4", "#BOS", "#EOS"])
            | st.text(max_size=6),
        ),
        max_size=3,
    ),
).map("\n".join)


class TestTreebankReadersRaiseOnlyCorpusParseError:
    """Whatever text comes in, a reader yields trees or raises
    :class:`CorpusParseError`; nothing else escapes."""

    @given(PTB_TEXT, NORMALIZE)
    @settings(max_examples=300, deadline=None)
    def test_ptb(self, text, normalize):
        try:
            trees = parse_ptb(text, normalize=normalize)
        except CorpusParseError:
            return
        assert all(isinstance(tree, LabeledTree) for tree in trees)

    @given(EXPORT_TEXT, st.sampled_from([None, "add", "remove"]), NORMALIZE)
    @settings(max_examples=300, deadline=None)
    def test_export(self, text, functions, normalize):
        try:
            trees = parse_export(text, normalize=normalize, functions=functions)
        except CorpusParseError:
            return
        assert all(isinstance(tree, LabeledTree) for tree in trees)


# ---------------------------------------------------------------------------
# CorpusReader: globs, encodings, option validation
# ---------------------------------------------------------------------------

class TestCorpusReader:
    def test_glob_streams_files_in_sorted_order(self):
        reader = CorpusReader(str(FIXTURES / "wsj_sample_*.mrg"))
        assert [p.name for p in reader.files()] == [
            "wsj_sample_00.mrg",
            "wsj_sample_01.mrg",
        ]
        assert len(reader.trees()) == 11

    def test_multiple_patterns_deduplicated(self):
        reader = CorpusReader(
            [
                str(FIXTURES / "wsj_sample_00.mrg"),
                str(FIXTURES / "wsj_sample_*.mrg"),
            ]
        )
        assert len(reader.files()) == 2

    def test_no_match_raises_config_error(self):
        with pytest.raises(ConfigError):
            CorpusReader(str(FIXTURES / "nothing_*.mrg")).files()

    def test_unknown_format_rejected(self):
        with pytest.raises(ConfigError):
            CorpusReader("x.mrg", format="conll")

    def test_dblp_rejects_treebank_options(self):
        with pytest.raises(ConfigError):
            CorpusReader("d.xml", format="dblp-xml", functions="remove")

    def test_functions_add_only_for_export(self):
        with pytest.raises(ConfigError):
            CorpusReader("x.mrg", format="ptb", functions="add")

    def test_encoding_option(self, tmp_path):
        corpus = tmp_path / "latin.mrg"
        corpus.write_bytes("(S (NN caf\xe9))".encode("latin-1"))
        (tree,) = CorpusReader(str(corpus), encoding="latin-1").trees()
        assert "café" in tree.labels

    def test_normalisation_options_forwarded(self):
        reader = CorpusReader(
            str(FIXTURES / "wsj_sample_*.mrg"),
            functions="remove",
            punct="remove",
            remove_empty=True,
        )
        labels = {label for tree in reader.trees() for label in tree.labels}
        assert "NP" in labels
        assert not any("-SBJ" in label for label in labels)
        assert "-NONE-" not in labels and "." not in labels


# ---------------------------------------------------------------------------
# Integration: fixtures through StreamProcessor into a synopsis
# ---------------------------------------------------------------------------

class TestStreamIntegration:
    @pytest.mark.parametrize(
        "kwargs, expected_trees",
        [
            (dict(path="wsj_sample_*.mrg", format="ptb"), 11),
            (dict(path="negra_sample.export", format="export"), 3),
            (dict(path="dblp_sample.xml", format="dblp-xml"), 8),
        ],
    )
    def test_fixtures_stream_through_processor(self, kwargs, expected_trees):
        from repro import SketchTree, SketchTreeConfig

        kwargs = dict(kwargs, path=str(FIXTURES / kwargs["path"]))
        synopsis = SketchTree(
            SketchTreeConfig(
                s1=20, s2=5, max_pattern_edges=2, n_virtual_streams=31, seed=3
            )
        )
        stats = StreamProcessor([synopsis]).run(CorpusReader(**kwargs))
        assert stats.n_trees == expected_trees
        assert synopsis.n_trees == expected_trees
        assert synopsis.n_values > 0

    def test_estimates_track_exact_on_fixture_corpus(self):
        from repro import ExactCounter, SketchTree, SketchTreeConfig

        trees = CorpusReader(
            str(FIXTURES / "dblp_sample.xml"), format="dblp-xml"
        ).trees()
        config = SketchTreeConfig(
            s1=64, s2=7, max_pattern_edges=2, n_virtual_streams=229, seed=11
        )
        synopsis = SketchTree(config).ingest(trees)
        exact = ExactCounter(2).ingest(trees)
        pattern, truth = exact.counts.most_common(1)[0]
        estimate = synopsis.estimate_ordered(pattern)
        assert truth > 0
        assert abs(estimate - truth) / truth < 0.5

    def test_cli_stats_accepts_corpus(self, capsys):
        from repro.cli import main

        code = main(
            [
                "stats",
                "--corpus",
                str(FIXTURES / "wsj_sample_00.mrg"),
                "--strip-functions",
                "--n-trees",
                "0",
                "--format",
                "json",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "processed 6 trees" in captured.err
