"""Command-line interface: convert, validate, infer, emit-ontology, vocab.

convert maps all its inputs into one graph; validate, each into its own.

Exit codes: 0 success, 1 parse failure (also a bad record ID or one the
graph already holds, or blank nodes too symmetric to label within the work
budget of canonical._WORK_PER_TRIPLE steps per triple, for at least
canonical._WORK_MIN_TRIPLES triples), 2 I/O or usage failure (also an
invalid base IRI), 3 validation found errors, 4 unknown vocabulary name.
Artifacts go to stdout (or --out) as UTF-8 whatever the locale, diagnostics
to stderr. Same inputs and flags produce byte-identical output.

main() reuses what it builds across calls in one process, each on first use
rather than at import: one argument parser, and one registry and constraint
catalog per resolved base IRI (the last few bases are kept; a base that
fails is not, so it fails again on every call).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .axioms import ConstraintCatalog, catalog
from .canonical import LabellingBudgetError
from .graph import Graph
from .mapping import MappingError, map_record
from .modsxml import ModsParseError, parse_mods_xml
from .serialize import (
    NTriplesError,
    read_ntriples,
    report_to_document,
    write_ntriples,
    write_report_json,
    write_report_text,
    write_turtle,
)
from .validate import validate
from .vocab import DEFAULT_BASE_IRI, VocabularyError, VocabularyRegistry, emit_ontology

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_IO = 2
EXIT_INVALID = 3
EXIT_UNKNOWN_NAME = 4


class _CliError(Exception):
    def __init__(self, exit_code: int, message: str):
        super().__init__(message)
        self.exit_code = exit_code


@functools.lru_cache(maxsize=4)
def _shared_vocabulary(base: str) -> tuple[VocabularyRegistry, ConstraintCatalog]:
    registry = VocabularyRegistry(base)
    return registry, catalog(registry)


def _vocabulary(args) -> tuple[VocabularyRegistry, ConstraintCatalog]:
    """The registry and its catalog under --base-iri, else MMODS_BASE_IRI,
    else the default."""
    base = args.base_iri or os.environ.get("MMODS_BASE_IRI") or DEFAULT_BASE_IRI
    try:
        return _shared_vocabulary(base)
    except VocabularyError as exc:
        raise _CliError(EXIT_IO, exc.args[0]) from exc


def _read_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError as exc:
        raise _CliError(EXIT_IO, f"cannot read {path}: {exc}") from exc


def _write_output(text: str, out_path) -> None:
    if out_path is None:
        # The bytes --out would hold, whatever encoding stdout was given; a
        # stdout with no byte layer (such as an io.StringIO) takes the text.
        stdout = getattr(sys.stdout, "buffer", None)
        if stdout is None:
            sys.stdout.write(text)
        else:
            sys.stdout.flush()
            stdout.write(text.encode("utf-8"))
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    except OSError as exc:
        raise _CliError(EXIT_IO, f"cannot write {out_path}: {exc}") from exc


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _map_mods(path: str, registry, graph: Graph) -> Graph:
    """The graph with a MODS file mapped into it; mapping warnings go to stderr."""
    try:
        result = map_record(parse_mods_xml(_read_bytes(path), source=path), registry, graph)
    except ModsParseError as exc:
        raise _CliError(EXIT_PARSE, str(exc)) from exc
    except MappingError as exc:
        raise _CliError(EXIT_PARSE, f"{path}: {exc}") from exc
    for warning in result.warnings:
        _warn(f"{path}: {warning}")
    return graph


def _read_graph_file(path: str) -> Graph:
    try:
        # A leading byte order mark is dropped, as the XML parser drops it.
        text = _read_bytes(path).decode("utf-8-sig")
        return read_ntriples(text)
    except (NTriplesError, UnicodeDecodeError) as exc:
        raise _CliError(EXIT_PARSE, f"{path}: {exc}") from exc


def _serialize_graph(graph: Graph, registry, fmt: str) -> str:
    try:
        if fmt == "nt":
            return write_ntriples(graph)
        return write_turtle(graph, registry)
    except LabellingBudgetError as exc:
        raise _CliError(EXIT_PARSE, str(exc)) from exc


def _cmd_convert(args) -> int:
    registry, _ = _vocabulary(args)
    graph = Graph()
    for path in args.inputs:
        _map_mods(path, registry, graph)
    _write_output(_serialize_graph(graph, registry, args.format), args.out)
    return EXIT_OK


def _load_for_validation(path: str, args, registry) -> Graph:
    fmt = args.input_format or ("nt" if path.endswith(".nt") else "xml")
    if fmt == "nt":
        return _read_graph_file(path)
    return _map_mods(path, registry, Graph())


def _cmd_validate(args) -> int:
    registry, rules = _vocabulary(args)
    reports = []
    for path in args.inputs:
        # The graph is this command's own, so it is saturated in place.
        graph = _load_for_validation(path, args, registry)
        if not args.no_infer:
            graph.apply_rules(rules.chains(), rules.subclass_pairs())
        reports.append(
            validate(graph, rules, registry, infer=False, strict=args.strict, source=path)
        )
    if args.report == "json":
        if len(reports) == 1:
            text = write_report_json(reports[0])
        else:
            text = json.dumps([report_to_document(r) for r in reports], indent=2) + "\n"
    else:
        blocks = []
        for report in reports:
            header = f"source: {report.source}\n" if len(reports) > 1 else ""
            blocks.append(header + write_report_text(report))
        text = "".join(blocks)
    _write_output(text, args.out)
    if any(not report.ok() for report in reports):
        return EXIT_INVALID
    return EXIT_OK


def _cmd_infer(args) -> int:
    registry, rules = _vocabulary(args)
    graph = _read_graph_file(args.input)
    graph.apply_rules(rules.chains(), rules.subclass_pairs())  # in place: the graph is ours
    _write_output(_serialize_graph(graph, registry, args.format), args.out)
    return EXIT_OK


def _cmd_emit_ontology(args) -> int:
    registry, rules = _vocabulary(args)
    graph = emit_ontology(registry, rules)
    _write_output(_serialize_graph(graph, registry, args.format), args.out)
    return EXIT_OK


def _cmd_vocab(args) -> int:
    registry, _ = _vocabulary(args)
    if args.name is not None:
        vocab = registry.vocabularies.get(args.name)
        if vocab is None:
            raise _CliError(EXIT_UNKNOWN_NAME, f"unknown vocabulary: {args.name!r}")
        lines = list(vocab.member_names)
    else:
        lines = [
            f"{vocab.name}\t{member}"
            for vocab in registry.vocabularies.values()
            for member in vocab.member_names
        ]
    _write_output("\n".join(lines) + ("\n" if lines else ""), args.out)
    return EXIT_OK


def _add_common(parser) -> None:
    parser.add_argument(
        "--base-iri",
        default=None,
        help="base IRI for vocabulary terms (env MMODS_BASE_IRI, then built-in default)",
    )
    parser.add_argument("--out", default=None, help="output file (default stdout)")


def _add_format(parser) -> None:
    parser.add_argument(
        "--format",
        choices=("nt", "ttl"),
        default="ttl",
        help="graph output format (default ttl)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmods",
        description="Compile MODS XML into a typed graph, validate it, and reason over it.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    convert = commands.add_parser("convert", help="MODS XML to graph")
    convert.add_argument("inputs", nargs="+", metavar="FILE")
    _add_common(convert)
    _add_format(convert)
    convert.set_defaults(func=_cmd_convert)

    check = commands.add_parser("validate", help="check a graph or record against the rules")
    check.add_argument("inputs", nargs="+", metavar="FILE")
    _add_common(check)
    check.add_argument(
        "--report", choices=("json", "text"), default="text", help="report format"
    )
    check.add_argument(
        "--input-format",
        choices=("xml", "nt"),
        default=None,
        help="override extension-based input sniffing",
    )
    check.add_argument("--strict", action="store_true", help="treat vocabulary warnings as errors")
    check.add_argument("--no-infer", action="store_true", help="skip rule materialization")
    check.set_defaults(func=_cmd_validate)

    infer = commands.add_parser("infer", help="materialize inference rules to fixpoint")
    infer.add_argument("input", metavar="FILE")
    _add_common(infer)
    _add_format(infer)
    infer.set_defaults(func=_cmd_infer)

    emit = commands.add_parser("emit-ontology", help="write the class and property declarations")
    _add_common(emit)
    _add_format(emit)
    emit.set_defaults(func=_cmd_emit_ontology)

    vocab = commands.add_parser("vocab", help="list controlled vocabulary members")
    vocab.add_argument("name", nargs="?", default=None)
    _add_common(vocab)
    vocab.set_defaults(func=_cmd_vocab)

    return parser


_shared_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
