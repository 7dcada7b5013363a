"""Serialization: round trips, determinism, report format, Turtle cross-check."""

import json
import pathlib
import re

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmods.axioms import catalog
from mmods.canonical import canonicalize
from mmods.graph import (
    OWL_NS,
    RDF_NS,
    XSD_BOOLEAN,
    XSD_NS,
    XSD_STRING,
    BlankNode,
    Graph,
    Iri,
    Literal,
    RDF_TYPE,
    escape_literal,
    format_term,
)
from mmods.mapping import map_record
from mmods.modsxml import parse_mods_xml
from mmods.serialize import (
    NTriplesError,
    read_ntriples,
    write_ntriples,
    write_report_json,
    write_report_text,
    write_turtle,
)
from mmods.validate import Finding, ValidationReport, validate
from mmods.vocab import VocabularyRegistry

from oracles import escape_literal_reference, random_vocab_graph, read_ntriples_reference

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
SCHEMA = json.loads(
    (pathlib.Path(__file__).parent.parent / "schemas" / "validation-report.schema.json").read_text()
)


@pytest.fixture(scope="module")
def reg():
    return VocabularyRegistry()


@pytest.fixture(scope="module")
def rules(reg):
    return catalog(reg)


def fixture_graph(name, reg):
    data = (FIXTURES / name).read_bytes()
    return map_record(parse_mods_xml(data), reg).graph


class TestWriteNTriples:
    def test_empty_graph(self):
        assert write_ntriples(Graph()) == ""

    def test_single_triple(self):
        g = Graph().add(Iri("urn:s"), Iri("urn:p"), Iri("urn:o"))
        text = write_ntriples(g)
        lines = text.splitlines()
        assert len(lines) == 1
        assert lines[0].endswith(" .")
        assert text.endswith("\n")

    def test_lines_strictly_sorted(self, reg):
        text = write_ntriples(fixture_graph("personal.xml", reg))
        lines = text.splitlines()
        assert lines == sorted(lines)
        assert len(lines) == len(set(lines))

    def test_write_read_write_fixed_point(self, reg):
        for seed in range(40):
            g = random_vocab_graph(seed, reg)
            once = write_ntriples(g)
            assert write_ntriples(read_ntriples(once)) == once


class TestReadNTriples:
    def test_round_trip_preserves_graph(self, reg):
        g = fixture_graph("attrs.xml", reg)
        assert canonicalize(read_ntriples(write_ntriples(g))) == canonicalize(g)

    def test_duplicate_lines_single_triple(self):
        line = "<urn:s> <urn:p> <urn:o> .\n"
        assert len(read_ntriples(line * 3)) == 1

    def test_blank_labels_preserved(self):
        g = read_ntriples("_:alpha <urn:p> _:beta .\n")
        t = g.triples()[0]
        assert t.s == BlankNode("alpha")
        assert t.o == BlankNode("beta")

    def test_plain_literal_gets_string_type(self):
        g = read_ntriples('<urn:s> <urn:p> "v" .\n')
        assert g.triples()[0].o == Literal("v", XSD_STRING)

    def test_datatype_literal(self):
        g = read_ntriples(
            f'<urn:s> <urn:p> "true"^^<{XSD_BOOLEAN.value}> .\n'
        )
        assert g.triples()[0].o == Literal("true", XSD_BOOLEAN)

    def test_language_literal(self):
        g = read_ntriples('<urn:s> <urn:p> "chat"@fr .\n')
        assert g.triples()[0].o == Literal("chat", lang="fr")

    def test_escapes(self):
        g = read_ntriples('<urn:s> <urn:p> "a\\nb\\t\\"q\\"\\\\z\\u00e9\\U0001F600" .\n')
        assert g.triples()[0].o.lexical == 'a\nb\t"q"\\z\u00e9\U0001F600'

    def test_comments_and_blank_lines(self):
        text = "# header\n\n<urn:s> <urn:p> <urn:o> . # trailing\n   \n"
        assert len(read_ntriples(text)) == 1

    def test_missing_dot_reports_line(self):
        text = "<urn:s> <urn:p> <urn:o> .\n<urn:s> <urn:p> <urn:o2>\n"
        with pytest.raises(NTriplesError) as err:
            read_ntriples(text)
        assert "line 2" in str(err.value)

    def test_unterminated_iri(self):
        with pytest.raises(NTriplesError) as err:
            read_ntriples("<urn:s <urn:p> <urn:o> .\n")
        assert "line 1" in str(err.value)

    def test_unterminated_literal(self):
        with pytest.raises(NTriplesError):
            read_ntriples('<urn:s> <urn:p> "open .\n')

    def test_bad_escape(self):
        with pytest.raises(NTriplesError):
            read_ntriples('<urn:s> <urn:p> "a\\qb" .\n')

    def test_truncated_unicode_escape(self):
        with pytest.raises(NTriplesError):
            read_ntriples('<urn:s> <urn:p> "\\u00e" .\n')

    @pytest.mark.parametrize("escape", ["\\uD800", "\\uDFFF", "\\uD83D\\uDE00", "\\U0000DC00"])
    def test_surrogate_escape_rejected(self, escape):
        # Surrogates are not characters; no writer could encode them.
        for line in (f'_:a <urn:p> "{escape}" .', f"<urn:s{escape}> <urn:p> <urn:o> ."):
            with pytest.raises(NTriplesError) as err:
                read_ntriples("<urn:s> <urn:p> <urn:o> .\n" + line + "\n")
            assert "line 2" in str(err.value)

    def test_escapes_next_to_surrogates_accepted(self):
        g = read_ntriples('<urn:s> <urn:p> "\\uD7FF\\uE000" .\n')
        assert g.triples()[0].o.lexical == "\uD7FF\uE000"

    def test_literal_subject_rejected(self):
        with pytest.raises(NTriplesError):
            read_ntriples('"s" <urn:p> <urn:o> .\n')

    def test_trailing_garbage(self):
        with pytest.raises(NTriplesError):
            read_ntriples("<urn:s> <urn:p> <urn:o> . <urn:x>\n")

    @pytest.mark.parametrize(
        "escape", ["\\u+041", "\\u0x41", "\\u 041", "\\u-041", "\\U+0000041", "\\u\u0660\u0660\u0664\u0661"]
    )
    def test_non_hex_escape_rejected(self, escape):
        # int(..., 16) alone would take a sign, a 0x prefix, a space or
        # non-ASCII digits; an escape has exactly 4 or 8 hex digits.
        for line in (f'_:a <urn:p> "{escape}" .', f"<urn:s{escape}> <urn:p> <urn:o> ."):
            with pytest.raises(NTriplesError) as err:
                read_ntriples("<urn:s> <urn:p> <urn:o> .\n" + line + "\n")
            assert str(err.value).startswith("line 2: bad ")

    def test_escape_beyond_unicode_rejected(self):
        with pytest.raises(NTriplesError, match="line 1: bad "):
            read_ntriples('<urn:s> <urn:p> "\\U00110000" .\n')

    def test_crlf_reads_as_lf(self):
        lf = (FIXTURES / "triangle.nt").read_text() + "# note\n\n_:b <urn:p> \"x\"@en .\n"
        for crlf in (lf.replace("\n", "\r\n"), lf.replace("\n", "\r\r\n"), lf.rstrip("\n") + "\r"):
            assert canonicalize(read_ntriples(crlf)) == canonicalize(read_ntriples(lf))

    def test_crlf_keeps_line_numbers(self):
        text = "<urn:s> <urn:p> <urn:o> .\r\n\r\n<urn:s> <urn:p> <urn:o>\r\n"
        with pytest.raises(NTriplesError, match="^line 3: expected '.'"):
            read_ntriples(text)

    def test_carriage_return_inside_line_rejected(self):
        with pytest.raises(NTriplesError, match="line 1: unexpected text after '.'"):
            read_ntriples("<urn:s> <urn:p> <urn:o> .\r<urn:s> <urn:p> <urn:o> .\n")

    def test_escaped_and_plain_iri_are_one_term(self):
        g = read_ntriples(
            "<urn:\\u0041> <urn:p> <urn:A> .\n<urn:A> <urn:p> <urn:\\U00000041> .\n"
        )
        assert g.triples() == [(Iri("urn:A"), Iri("urn:p"), Iri("urn:A"))]

    def test_blank_label_dots_and_dashes(self):
        # A label does not end in "."; the dot after it ends the triple.
        g = read_ntriples("_:a.b-c <urn:p> _:.d.\n_:a.b-c <urn:p> _:e.\t# x\n")
        assert [(t.s, t.o) for t in g.triples()] == [
            (BlankNode("a.b-c"), BlankNode(".d")),
            (BlankNode("a.b-c"), BlankNode("e")),
        ]

    @pytest.mark.parametrize(
        "line, message",
        [
            ('"s" <urn:p> <urn:o> .', "expected blank node label"),
            ("_: <urn:p> <urn:o> .", "empty blank node label"),
            ("_:a _:p <urn:o> .", "expected IRI, found '_'"),
            ("<urn:s> <urn:p> <urn:o", "unterminated IRI"),
            ('<urn:s> <urn:p> "x"@ .', "empty language tag"),
            ('<urn:s> <urn:p> "x"^^ <urn:d> .', "expected IRI, found ' '"),
            ('<urn:s> <urn:p> "\\q"^^<urn:d .', "unknown escape \\q in literal"),
            (f'<urn:s> <urn:p> "x"^^<{RDF_NS}langString> .', "language string literal requires"),
            ("<urn:s> <urn:p> <a b> .", "invalid IRI: 'a b'"),
            ("<s> <p> <o> .", "relative IRI: 's'"),
            ("<urn:s> <p> <urn:o> .", "relative IRI: 'p'"),
            ('<urn:s> <urn:p> "x"^^<d> .', "relative IRI: 'd'"),
            ("<urn:s> <urn:p> <> .", "empty IRI"),
            ("<urn:s> <urn:p> <urn:o> .. ", "unexpected text after '.'"),
        ],
    )
    def test_error_messages(self, line, message):
        with pytest.raises(NTriplesError) as err:
            read_ntriples("# first\n" + line + "\n")
        assert str(err.value).startswith(f"line 2: {message}")

    @pytest.mark.parametrize("code", list("tbnrf\"'\\"))
    def test_iri_rejects_literal_escape(self, code):
        # N-Triples IRIREF allows UCHAR only, never ECHAR.
        text = f"<urn:s> <urn:p> <urn:o> .\n<urn:a\\{code}b> <urn:p> <urn:o> .\n"
        for reader in (read_ntriples, read_ntriples_reference):
            with pytest.raises(NTriplesError) as err:
                reader(text)
            assert str(err.value) == f"line 2: unknown escape \\{code} in IRI"

    @pytest.mark.parametrize(
        "point", [*range(0x21), *map(ord, '<>"{}|^`\\')], ids=lambda c: f"U+{c:04X}"
    )
    def test_escaped_iri_decoding_to_an_excluded_character(self, point):
        # IRIREF excludes the character even when a \u escape writes it.
        with pytest.raises(NTriplesError) as err:
            read_ntriples(f"<urn:s> <urn:p> <urn:o> .\n<urn:s> <urn:p> <urn:a\\u{point:04X}> .\n")
        assert str(err.value) == f"line 2: invalid IRI: {'urn:a' + chr(point)!r}"


# Generated N-Triples lines: mostly well-formed terms built from pieces
# that reach every branch of the grammar (escapes, blank labels with dots
# and dashes, language tags, datatypes, comments, tabs), some with a bad
# piece, then a few lines mutated with the characters that start or end
# tokens.  Most lines read, so errors come from every line of a text.
_WORD = ["a", "Z", "0", "é", "٣", "Ⅷ", "\U0001F600", "_", "-", ".", ":", "/", "#"]
# IRIREF takes UCHAR (\u, \U) only; a literal also takes ECHAR, which is a
# bad piece in an IRI.
_UCHARS = ["\\u0041", "\\u00E9", "\\U0001F600"]
_GOOD_ESCAPES = _UCHARS + ['\\"', "\\'", "\\\\"]
_BAD_ESCAPES = ["\\u+041", "\\u0x41", "\\u 041", "\\uD800", "\\U00110000", "\\q", "\\u00", "\\"]
_ODD = [" ", "\t", "<", '"', "@", "^", "\r", "\x0b", "　"]
_STRAY = ["<", ">", '"', "\\", ".", " ", "\t", "#", "_", ":", "@", "^", "\r", "a"]


def _text(pieces, min_size=0):
    return st.lists(st.sampled_from(pieces), min_size=min_size, max_size=6).map("".join)


def _weighted(*choices):
    """One of the (strategy, weight) choices, drawn in proportion to weight."""
    return st.sampled_from([s for s, weight in choices for _ in range(weight)]).flatmap(
        lambda s: s
    )


# An IRI needs a scheme, so most drawn IRIs take "urn:" and the rest are
# relative references, an error.
_SCHEMES = st.sampled_from(["urn:"] * 9 + [""])
_CLEAN_IRI = st.builds(lambda scheme, t: f"<{scheme}{t}>", _SCHEMES, _text(_WORD * 4 + _UCHARS, min_size=1))
_ANY_IRI = st.builds(
    lambda scheme, t: f"<{scheme}{t}>", _SCHEMES, _text(_WORD + _GOOD_ESCAPES + _BAD_ESCAPES + _ODD, min_size=1)
)
_IRI = _weighted((_CLEAN_IRI, 7), (_ANY_IRI, 1))
_BLANK = _text(["a", "b", "0", "é", "٣", "_", "-", "-", ".", "."], min_size=1).map(
    lambda t: "_:" + t
)
_LITERAL = st.builds(
    lambda body, suffix: f'"{body}"{suffix}',
    _text(_WORD + _ODD[:-2] + _GOOD_ESCAPES + ["\\n", "\\t", "\\r", "\\b", "\\f"] + _BAD_ESCAPES[:2]),
    _weighted(
        (st.just(""), 2),
        (_text(["en", "fr", "-", "US", "1", "é", "_"]).map(lambda t: "@" + t), 1),
        (_text(["en", "fr", "-", "US", "1"], min_size=1).map(lambda t: "@" + t), 1),
        (_CLEAN_IRI.map(lambda iri: "^^" + iri), 2),
        (st.sampled_from(["^^", "^", f"^^<{RDF_NS}langString>", "^^<urn:d", "^^ <urn:d>"]), 1),
    ),
)
# Only spaces and tabs separate terms; other whitespace is an error.
_SPACE = _weighted(
    (st.sampled_from([" ", " ", "\t", "  ", " \t", ""]), 30),
    (st.sampled_from(["\r", "\x0b", "\x0c", "\x1f", "\u3000"]), 1),
)
_TRIPLE = st.builds(
    lambda s, p, o, gaps, end: s + gaps[0] + p + gaps[1] + o + gaps[2] + end,
    st.one_of(_IRI, _BLANK),
    _weighted((_IRI, 9), (_BLANK, 1)),
    _weighted((_IRI, 3), (_BLANK, 2), (_LITERAL, 4)),
    st.tuples(_SPACE, _SPACE, _SPACE),
    st.sampled_from(
        [".", ".", ".", ".", ".", ". ", ".\t# note", ".#", ". # x . y"]
        + ["", ". x", "..", ". <urn:o> .", ".\r", ".\r# x", "\x0b.", ". \u3000"]
    ),
)
_LINE = _weighted(
    (_TRIPLE, 6),
    (st.sampled_from(["", " ", "\t", "# comment", "  # indented", "\t#", '"s" <urn:p> <urn:o> .']), 1),
)


@st.composite
def _mutated_line(draw):
    line = draw(_LINE)
    for _ in range(draw(st.sampled_from([0, 0, 0, 0, 0, 1, 1, 2]))):
        i = draw(st.integers(0, len(line)))
        kind = draw(st.sampled_from(["insert", "delete", "replace"]))
        if kind == "insert":
            line = line[:i] + draw(st.sampled_from(_STRAY)) + line[i:]
        elif i < len(line):
            replacement = draw(st.sampled_from(_STRAY)) if kind == "replace" else ""
            line = line[:i] + replacement + line[i + 1 :]
    return line


def _read_outcome(reader, text):
    try:
        return canonicalize(reader(text))
    except NTriplesError as exc:
        return f"NTriplesError: {exc}"


class TestReaderMatchesReference:
    """The term-pattern reader against the character scan in oracles.py."""

    @settings(max_examples=600, deadline=None)
    @given(
        st.lists(_mutated_line(), min_size=1, max_size=6),
        st.sampled_from(["\n", "\r\n", "\r\r\n"]),
        st.booleans(),
    )
    def test_same_graph_or_same_error(self, lines, eol, final_eol):
        text = eol.join(lines) + (eol if final_eol else "")
        assert _read_outcome(read_ntriples, text) == _read_outcome(read_ntriples_reference, text)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_TRIPLE.filter(lambda line: line.endswith(".")), min_size=1, max_size=8))
    def test_repeated_terms(self, lines):
        # Repeats of one line, and its terms reused, go through the term cache.
        text = "\n".join(lines + lines[::-1]) + "\n"
        assert _read_outcome(read_ntriples, text) == _read_outcome(read_ntriples_reference, text)


# Tokens for the split path, the writer's own line shape "S P O .": keys as
# the writer spells them, and near misses that the scanner must read.
_KEY_TOKENS = [
    "<urn:a>",
    "<urn:b/c#d>",
    "<urn:\u00e9\U0001F600>",
    "_:c0",
    "_:a.b-c",
    '"x"',
    '"a b ."',
    '"q\\"\\\\n\\r\\t"',
    '"\\u0001\\u001F"',
    '"chat"@fr',
    '"chat"@en-GB',
    '"1"^^<urn:d>',
    f'"t"^^<{XSD_NS}boolean>',
]
_NEAR_MISSES = [
    "<s>",
    "<urn:a\u3000b>",
    "<urn:a\x85b>",
    "<urn:\\u0041>",
    "_:a.",
    "_:",
    '"\\u0041"',
    '"\\u001f"',
    '"\\b"',
    '"a\x01b"',
    '"a\tb"',
    '"x"@en-',
    f'"x"^^<{XSD_NS}string>',
    f'"x"^^<{RDF_NS}langString>',
    '"x"^^<d>',
]
_SPLIT_LINE = st.builds(
    lambda s, p, o: f"{s} {p} {o} .",
    st.sampled_from(_KEY_TOKENS * 3 + _NEAR_MISSES),
    st.sampled_from(_KEY_TOKENS[:3] * 3 + _KEY_TOKENS + _NEAR_MISSES),
    st.sampled_from(_KEY_TOKENS * 3 + _NEAR_MISSES),
)


class TestSplitPath:
    """Lines of the writer's own shape, read by one split and key lookups,
    against the character scan in oracles.py."""

    @settings(max_examples=400, deadline=None)
    @given(st.lists(_SPLIT_LINE, min_size=1, max_size=12))
    def test_repeated_tokens_in_any_place(self, lines):
        # A token repeats across lines and places: a literal or blank key
        # first read as an object may come back as a subject or predicate.
        text = "\n".join(lines) + "\n"
        assert _read_outcome(read_ntriples, text) == _read_outcome(read_ntriples_reference, text)

    @pytest.mark.parametrize("token", _KEY_TOKENS + _NEAR_MISSES)
    def test_keys_and_near_misses_read_as_the_scanner_reads_them(self, token):
        for line in (f"<urn:s> <urn:p> {token} .", f"{token} <urn:p> <urn:o> .", f"<urn:s> {token} <urn:o> ."):
            text = f"{line}\n{line}\n<urn:o> <urn:p> {token} .\n"
            assert _read_outcome(read_ntriples, text) == _read_outcome(read_ntriples_reference, text)

    def test_split_path_takes_the_keys_and_leaves_the_near_misses(self):
        from mmods.serialize import _KEY

        assert all(_KEY.fullmatch(token) for token in _KEY_TOKENS)
        assert not any(_KEY.fullmatch(token) for token in _NEAR_MISSES)

    @pytest.mark.parametrize("token", ['"a"', '"a"@en', '"a"^^<urn:d>', "_:b"])
    def test_key_first_seen_as_object_is_checked_in_its_new_place(self, token):
        first = f"<urn:s> <urn:p> {token} .\n"
        for second in (f"{token} <urn:p> <urn:o> .", f"<urn:s> {token} <urn:o> ."):
            text = first + second + "\n"
            if second.startswith("_:"):
                assert _read_outcome(read_ntriples, text) == _read_outcome(read_ntriples_reference, text)
                continue
            with pytest.raises(NTriplesError) as err:
                read_ntriples(text)
            with pytest.raises(NTriplesError) as reference:
                read_ntriples_reference(text)
            assert str(err.value) == str(reference.value)
            assert str(err.value).startswith("line 2: ")

    @pytest.mark.parametrize("char", ["\u3000", "\x85"], ids=["U+3000", "U+0085"])
    def test_unicode_space_inside_an_iri_is_an_error(self, char):
        with pytest.raises(NTriplesError, match="^line 2: invalid IRI"):
            read_ntriples(f"<urn:s> <urn:p> <urn:o> .\n<urn:s> <urn:p> <urn:a{char}b> .\n")

    @pytest.mark.parametrize("char", ["\x01", "\t"], ids=["U+0001", "tab"])
    def test_raw_control_character_in_a_literal_reads_as_escaped(self, char):
        g = read_ntriples(f'<urn:s> <urn:p> "a{char}b" .\n<urn:s> <urn:p> "a{char}b" .\n')
        assert g.triples() == [(Iri("urn:s"), Iri("urn:p"), Literal(f"a{char}b"))]
        assert write_ntriples(g) == f'<urn:s> <urn:p> "a{escape_literal(char)}b" .\n'

    def test_xsd_string_datatype_reads_as_the_plain_literal(self):
        g = read_ntriples(f'<urn:s> <urn:p> "x"^^<{XSD_NS}string> .\n<urn:s> <urn:p> "x" .\n')
        assert g.triples() == [(Iri("urn:s"), Iri("urn:p"), Literal("x"))]

    def test_lang_string_datatype_is_an_error(self):
        with pytest.raises(NTriplesError, match="^line 2: language string literal requires"):
            read_ntriples(f'<urn:s> <urn:p> "x" .\n<urn:s> <urn:p> "x"^^<{RDF_NS}langString> .\n')

    @pytest.mark.parametrize("n", [1, 2, 5, 40])
    def test_error_after_split_path_lines_names_its_line(self, n):
        good = [f'<urn:s{i}> <urn:p> "v{i}"@en .' for i in range(n - 1)]
        text = "\n".join(good + ['<urn:s> <urn:p> "v"@en- .', "<urn:s> <urn:p> <urn:o> ."]) + "\n"
        with pytest.raises(NTriplesError, match=f"^line {n}: invalid language tag"):
            read_ntriples(text)

    @settings(max_examples=500, deadline=None)
    @given(st.one_of(_IRI, _BLANK, _LITERAL))
    def test_split_pattern_admits_exactly_the_keys(self, token):
        # A token is admitted in a place iff the scanner reads it there as
        # the term whose key is the token itself: a key, with a node's first
        # character in subject place and an IRI's in predicate place.
        from mmods.serialize import _KEY

        for line, place, first in (
            (f"{token} <urn:p> <urn:o> .", 0, "<_"),
            (f"<urn:s> {token} <urn:o> .", 1, "<"),
            (f"<urn:s> <urn:p> {token} .", 2, '<_"'),
        ):
            try:
                key = format_term(read_ntriples_reference(line).triples()[0][place])
            except NTriplesError:
                key = None
            admitted = bool(_KEY.fullmatch(token)) and token[0] in first
            assert admitted == (key == token), (line, key)


def test_whitespace_pattern_is_isspace():
    # "\s" in a term pattern matches exactly the characters for which
    # str.isspace() is true.
    from mmods.graph import _NOT_BLANK_LABEL

    for point in range(0x110000):
        ch = chr(point)
        assert bool(_NOT_BLANK_LABEL.match(ch)) == (ch.isspace() or ch == ":"), hex(point)


def test_escape_literal_matches_the_reference_on_every_code_point():
    for point in range(0x110000):
        ch = chr(point)
        assert escape_literal(ch) == escape_literal_reference(ch), hex(point)


@settings(max_examples=300, deadline=None)
@given(
    st.text(
        st.one_of(
            st.characters(exclude_categories=()),
            st.sampled_from(["\\", '"', "\n", "\r", "\t", "\x00", "\x1f", "\x7f", "\U0001F600"]),
        )
    )
)
def test_escape_literal_matches_the_reference_on_strings(text):
    assert escape_literal(text) == escape_literal_reference(text)


def test_term_text_patterns_match_character_rules():
    # Blank labels run over alphanumerics and "_-."; language tags over
    # alphanumerics and "-".
    from mmods.serialize import _LABEL_CHAR, _TAG_CHAR

    label, tag = re.compile(_LABEL_CHAR), re.compile(_TAG_CHAR)
    for point in range(0x110000):
        ch = chr(point)
        assert bool(label.match(ch)) == (ch.isalnum() or ch in "_-"), hex(point)
        assert bool(tag.match(ch)) == (ch.isalnum() or ch == "-"), hex(point)


# Minimal Turtle reader covering exactly the subset the writer emits;
# independent of the writer so it can serve as a cross-check.
class _TurtleReader:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.prefixes = {}

    def _ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t\n\r":
            self.pos += 1

    def _token(self):
        self._ws()
        if self.pos >= len(self.text):
            return None
        start = self.pos
        if self.text[self.pos] == '"':
            self.pos += 1
            while self.pos < len(self.text):
                if self.text[self.pos] == "\\":
                    self.pos += 2
                    continue
                if self.text[self.pos] == '"':
                    self.pos += 1
                    break
                self.pos += 1
            while self.pos < len(self.text) and self.text[self.pos] not in " \t\n\r":
                self.pos += 1
            return self.text[start : self.pos]
        while self.pos < len(self.text) and self.text[self.pos] not in " \t\n\r":
            self.pos += 1
        return self.text[start : self.pos]

    def _unescape(self, raw):
        out, i = [], 0
        escapes = {"n": "\n", "r": "\r", "t": "\t", "b": "\b", "f": "\f", '"': '"', "\\": "\\", "'": "'"}
        while i < len(raw):
            if raw[i] != "\\":
                out.append(raw[i])
                i += 1
            elif raw[i + 1] in escapes:
                out.append(escapes[raw[i + 1]])
                i += 2
            elif raw[i + 1] == "u":
                out.append(chr(int(raw[i + 2 : i + 6], 16)))
                i += 6
            else:
                out.append(chr(int(raw[i + 2 : i + 10], 16)))
                i += 10
        return "".join(out)

    def _verb(self, token):
        # "a" is rdf:type in predicate position and nowhere else.
        return RDF_TYPE if token == "a" else self._term(token)

    def _term(self, token):
        if token.startswith("<"):
            assert token.endswith(">"), token
            return Iri(token[1:-1])
        if token.startswith("_:"):
            return BlankNode(token[2:])
        if token.startswith('"'):
            end = len(token) - 1
            while token[end] != '"':
                end -= 1
            lexical = self._unescape(token[1:end])
            suffix = token[end + 1 :]
            if suffix.startswith("@"):
                return Literal(lexical, lang=suffix[1:])
            if suffix.startswith("^^"):
                return Literal(lexical, self._term(suffix[2:]))
            return Literal(lexical, XSD_STRING)
        # A prefixed name: the writer's local names are an ASCII subset of
        # PN_LOCAL, letters, digits, "_" and "-", not starting with a digit or "-".
        prefix, colon, local = token.partition(":")
        assert colon and prefix in self.prefixes, token
        assert re.fullmatch(r"[A-Za-z_][\w-]*", local, re.ASCII), token
        return Iri(self.prefixes[prefix] + local)

    def read(self):
        graph = Graph()
        while True:
            token = self._token()
            if token is None:
                return graph
            if token == "@prefix":
                name = self._token()
                iri = self._token()
                assert self._token() == "."
                self.prefixes[name.rstrip(":")] = iri[1:-1]
                continue
            subject = self._term(token)
            while True:
                predicate = self._verb(self._token())
                # Object lists attach the separator comma to the object token.
                while True:
                    obj = self._token()
                    if obj.endswith(","):
                        graph.add(subject, predicate, self._term(obj[:-1]))
                        continue
                    graph.add(subject, predicate, self._term(obj))
                    break
                separator = self._token()
                if separator == ".":
                    break
                assert separator == ";", separator


def read_turtle(text):
    return _TurtleReader(text).read()


# Terms for the Turtle writer's property test, under the default registry's
# base IRI.  IRIs whose local part a prefix cannot take stay full; rdf:type
# and blank nodes can fill any position they are allowed in.
_BASE = VocabularyRegistry().base_iri
_TTL_IRIS = [
    Iri(_BASE + "Agent"),
    Iri(_BASE + "hasName"),
    RDF_TYPE,
    Iri(OWL_NS + "Class"),
    Iri(XSD_NS + "x-y_1"),
    Iri(_BASE + "rec/a1"),
    Iri(_BASE + "1st"),
    Iri(_BASE + "caf\u00e9"),
    Iri(_BASE),
    Iri("urn:x"),
    Iri("urn:\U0001F600"),
]
_TTL_BLANKS = [BlankNode(f"b{i}") for i in range(3)]
_TTL_LEXICAL = _text(
    ["a", " ", "\\", '"', "'", "\n", "\r", "\t", "\x00", "\x08", "\x1f", "\x7f"]
    + ["\u00e9", "\u2028", "\U0001F600", ",", ";", ".", "#", "^", "@", "<", ">"]
    # A body that spells a datatype or language suffix after an inner quote.
    + [f'"^^<{_BASE}Agent', '"^^<urn:d>', '"@en']
)
_TTL_LITERAL = st.one_of(
    st.builds(Literal, _TTL_LEXICAL),
    st.builds(
        lambda lexical, lang: Literal(lexical, lang=lang),
        _TTL_LEXICAL,
        st.sampled_from(["en", "en-US", "fr"]),
    ),
    st.builds(
        Literal,
        _TTL_LEXICAL,
        st.sampled_from(
            [XSD_BOOLEAN, Iri(XSD_NS + "date"), Iri(_BASE + "Code"), Iri(_BASE + "a/b"), Iri("urn:dt")]
        ),
    ),
)
_TTL_NODE = st.sampled_from(_TTL_IRIS + _TTL_BLANKS)
_TTL_TRIPLES = st.lists(
    st.tuples(
        _TTL_NODE,
        st.sampled_from(_TTL_IRIS),
        st.one_of(_TTL_NODE, _TTL_LITERAL),
    ),
    max_size=12,
)


class TestWriteTurtle:
    @settings(max_examples=300, deadline=None)
    @given(_TTL_TRIPLES, st.integers(1, 3))
    def test_reads_back_as_the_ntriples_document(self, reg, triples, copies):
        # Each copy renames the blank nodes apart, so copies > 1 gives blank
        # nodes that only the labelling search can tell apart.
        g = Graph()
        for copy in range(copies):
            rename = {b: BlankNode(f"{b.label}_{copy}") for b in _TTL_BLANKS}
            for s, p, o in triples:
                g.add(rename.get(s, s), p, rename.get(o, o))
        assert canonicalize(read_turtle(write_turtle(g, reg))) == write_ntriples(g)

    @pytest.mark.parametrize("body", ['"^^<{}Agent', '"^^<{}Agent>', '"@en', 'x"^^'])
    def test_literal_spelling_a_suffix_inside_its_quotes(self, reg, body):
        g = Graph().add(Iri("urn:s"), Iri("urn:p"), Literal(body.format(reg.base_iri)))
        g.add(Iri("urn:s"), Iri("urn:p"), Literal("1", reg.cls("Agent")))
        assert canonicalize(read_turtle(write_turtle(g, reg))) == write_ntriples(g)

    def test_empty_graph_header_only(self, reg):
        text = write_turtle(Graph(), reg)
        assert all(line.startswith("@prefix") for line in text.splitlines())
        assert "mmods:" in text

    def test_registry_terms_prefixed(self, reg):
        text = write_turtle(fixture_graph("personal.xml", reg), reg)
        # Registry classes, properties, and individuals never appear as
        # full IRIs; minted record nodes may (slash in the local part).
        assert f"<{reg.cls('Agent').value}>" not in text
        assert f"<{reg.prop('hasName').value}>" not in text
        assert f"<{reg.individual('Primary').value}>" not in text
        assert "mmods:Agent" in text
        assert "mmods:hasName" in text
        assert "    a mmods:" in text

    def test_cross_check_fixtures(self, reg):
        for name in ["personal.xml", "dates.xml", "attrs.xml", "collection.xml"]:
            g = fixture_graph(name, reg)
            back = read_turtle(write_turtle(g, reg))
            assert canonicalize(back) == canonicalize(g)

    def test_cross_check_random_graphs(self, reg):
        for seed in range(60):
            g = random_vocab_graph(seed, reg)
            back = read_turtle(write_turtle(g, reg))
            assert canonicalize(back) == canonicalize(g)

    def test_matches_ntriples_content(self, reg):
        # The ID-less record with identical names is symmetric: its labels
        # come from the tie-branching search.
        symmetric = "<mods>" + "<name><namePart>Same</namePart></name>" * 3 + "</mods>"
        for g in [
            fixture_graph("shared_affiliation.xml", reg),
            map_record(parse_mods_xml(symmetric), reg).graph,
        ]:
            assert canonicalize(read_turtle(write_turtle(g, reg))) == write_ntriples(g)

    def test_deterministic(self, reg):
        g = fixture_graph("dates.xml", reg)
        assert write_turtle(g, reg) == write_turtle(g, reg)

    def test_non_registry_iri_stays_full(self, reg):
        g = Graph().add(Iri("urn:x"), Iri("http://other.example/p"), Iri("urn:y"))
        text = write_turtle(g, reg)
        assert "<http://other.example/p>" in text

    def test_rdf_type_outside_predicate_position(self, reg):
        # Turtle allows "a" only as a verb; as subject or object rdf:type is
        # written as a prefixed name.
        g = read_ntriples(
            f"<urn:x> <urn:p> <{RDF_NS}type> .\n"
            f"<{RDF_NS}type> <urn:p> <urn:y> .\n"
            f"<{RDF_NS}type> <{RDF_NS}type> <{RDF_NS}type> .\n"
        )
        text = write_turtle(g, reg)
        assert "<urn:p> rdf:type ." in text
        assert "\nrdf:type\n    a rdf:type ;\n    <urn:p> <urn:y> .\n" in text
        assert canonicalize(read_turtle(text)) == write_ntriples(g)

    def test_reader_takes_a_only_as_a_verb(self, reg):
        for text in ["<urn:x> <urn:p> a .\n", "a <urn:p> <urn:y> .\n"]:
            with pytest.raises(AssertionError):
                read_turtle(text)

    def test_each_term_formatted_once(self, reg, monkeypatch):
        import mmods.serialize

        calls = []
        real = mmods.serialize._turtle_term

        def counting(key, *rest):
            calls.append(key)
            return real(key, *rest)

        monkeypatch.setattr(mmods.serialize, "_turtle_term", counting)
        g = fixture_graph("dates.xml", reg)
        g.add(XSD_BOOLEAN, Iri("urn:p"), Literal("1", XSD_BOOLEAN))
        g.add(Iri("urn:s"), Iri("urn:p"), Literal("0", XSD_BOOLEAN))
        write_turtle(g, reg)
        terms = {term for t in g for term in t if not isinstance(term, BlankNode)}
        terms |= {
            term.datatype
            for term in terms
            if isinstance(term, Literal) and term.lang is None and term.datatype != XSD_STRING
        }
        assert sorted(calls) == sorted(map(format_term, terms))

    def test_local_name_pattern_accepts_what_the_character_rule_did(self):
        from mmods.serialize import _LOCAL_NAME

        # The per-character rule the pattern replaced, kept as the reference.
        first = set("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
        rest = first | set("0123456789-")

        def local_name_ok(local):
            return bool(local) and local[0] in first and all(ch in rest for ch in local[1:])

        chars = [chr(point) for point in range(128)] + ["é", "٣", "Ⅷ", "　", "\U0001F600"]
        for local in ["", *chars, *(a + b for a in chars for b in chars)]:
            assert bool(_LOCAL_NAME.fullmatch(local)) == local_name_ok(local), repr(local)


def _report(findings, source="test.xml"):
    return ValidationReport(findings, source=source)


def _finding(code="E_NAME_20", severity="error", focus="<urn:n>", detail="missing"):
    return Finding(
        code=code,
        axiom_id=code.rsplit("_", 1)[-1].lower(),
        severity=severity,
        focus=focus,
        detail=detail,
        message="message",
    )


class TestReportJson:
    def test_empty_report(self):
        doc = json.loads(write_report_json(_report([])))
        assert doc["summary"] == {"errors": 0, "warnings": 0, "infos": 0}
        assert doc["findings"] == []
        assert doc["source"] == "test.xml"

    def test_single_error(self):
        doc = json.loads(write_report_json(_report([_finding()])))
        assert doc["summary"]["errors"] == 1
        assert len(doc["findings"]) == 1
        assert doc["findings"][0]["code"] == "E_NAME_20"
        assert doc["findings"][0]["axiom"] == "20"

    def test_findings_sorted_by_code_then_focus(self):
        report = _report(
            [
                _finding(code="E_NAME_22", focus="<urn:b>"),
                _finding(code="E_AGENTROLE_6", focus="<urn:z>"),
                _finding(code="E_NAME_22", focus="<urn:a>"),
            ]
        )
        doc = json.loads(write_report_json(report))
        keys = [(f["code"], f["focus"]) for f in doc["findings"]]
        assert keys == sorted(keys)

    def test_summary_counts_match_tallies(self, reg, rules):
        for seed in range(30):
            g = random_vocab_graph(seed, reg)
            report = validate(g, rules, reg, source=f"seed{seed}")
            doc = json.loads(write_report_json(report))
            by_severity = {"error": 0, "warning": 0, "info": 0}
            for f in doc["findings"]:
                by_severity[f["severity"]] += 1
            assert doc["summary"] == {
                "errors": by_severity["error"],
                "warnings": by_severity["warning"],
                "infos": by_severity["info"],
            }

    def test_byte_identical_across_runs(self, reg, rules):
        g = random_vocab_graph(7, reg)
        a = write_report_json(validate(g, rules, reg, source="x"))
        b = write_report_json(validate(g, rules, reg, source="x"))
        assert a == b

    def test_two_space_indent(self):
        text = write_report_json(_report([]))
        assert '\n  "version"' in text

    def test_validates_against_schema(self, reg, rules):
        jsonschema.Draft202012Validator.check_schema(SCHEMA)
        validator = jsonschema.Draft202012Validator(SCHEMA)
        validator.validate(json.loads(write_report_json(_report([]))))
        validator.validate(json.loads(write_report_json(_report([_finding()]))))
        for seed in range(20):
            g = random_vocab_graph(seed, reg)
            report = validate(g, rules, reg, source=f"seed{seed}")
            validator.validate(json.loads(write_report_json(report)))


class TestReportText:
    def test_summary_line_present(self):
        text = write_report_text(_report([]))
        assert text == "errors: 0, warnings: 0, infos: 0\n"

    def test_finding_lines(self):
        text = write_report_text(_report([_finding()]))
        assert text.splitlines()[0].startswith("error: E_NAME_20 <urn:n>")

    def test_deterministic(self, reg, rules):
        g = random_vocab_graph(3, reg)
        a = write_report_text(validate(g, rules, reg))
        b = write_report_text(validate(g, rules, reg))
        assert a == b
