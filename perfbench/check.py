"""Checks of one op's outputs against the generator's predictions.

The counts are read back from what the CLI wrote (the graph file, the JSON
report, the warnings on stderr) with a tokenizer of the benchmark's own, so
the reference never passes through mmods.
"""

from __future__ import annotations

import json
import re

# Terms and punctuation of the N-Triples and Turtle that mmods writes:
# IRIs, prefixed names, 'a', blank nodes, literals with escapes and an
# optional language tag or datatype.
_TOKEN = re.compile(
    r"""\s*(?:
      (?P<literal>"(?:[^"\\\n]|\\.)*"(?:@[A-Za-z0-9-]+|\^\^(?:<[^<>\s]*>|[A-Za-z][\w-]*:[\w-]*))?)
    | (?P<iri><[^<>\s]*>)
    | (?P<blank>_:[A-Za-z0-9_-]+)
    | (?P<name>[A-Za-z][\w-]*:[\w-]*|a(?=\s))
    | (?P<punct>[.;,])
    )""",
    re.VERBOSE,
)

_SUBJECT, _PREDICATE, _OBJECT, _AFTER_OBJECT = range(4)


def count_graph(text: str) -> tuple[int, int]:
    """(triples, distinct blank nodes) in N-Triples or mmods Turtle text.

    Raises ValueError when the text is not in that form.
    """
    body = "\n".join(line for line in text.split("\n") if not line.startswith("@prefix "))
    state = _SUBJECT
    triples = 0
    blanks: set = set()
    pos = 0
    end = len(body.rstrip())
    while pos < end:
        match = _TOKEN.match(body, pos)
        if match is None:
            raise ValueError(f"unreadable graph text at offset {pos}: {body[pos:pos + 40]!r}")
        pos = match.end()
        kind = match.lastgroup
        if kind == "punct":
            mark = match.group("punct")
            if state != _AFTER_OBJECT:
                raise ValueError(f"unexpected {mark!r} at offset {match.start()}")
            state = {",": _OBJECT, ";": _PREDICATE, ".": _SUBJECT}[mark]
            continue
        if kind == "blank":
            blanks.add(match.group("blank"))
        if state == _AFTER_OBJECT:
            raise ValueError(f"missing punctuation before offset {match.start()}")
        if state == _OBJECT:
            triples += 1
        state = {_SUBJECT: _PREDICATE, _PREDICATE: _OBJECT, _OBJECT: _AFTER_OBJECT}[state]
    if state != _SUBJECT:
        raise ValueError("graph text ends inside a statement")
    return triples, len(blanks)


def out_triples(argv: list, expect: dict) -> int:
    """Triples the op writes or checks, after inference where it infers."""
    if argv[0] == "convert":
        return expect["triples"]
    return expect["triples"] + expect["inferred"]


def check_warnings(stderr: str, expect: dict) -> list[str]:
    lines = [line for line in stderr.split("\n") if line]
    problems = []
    other = [line for line in lines if not line.startswith("warning: ")]
    if other:
        problems.append(f"unexpected stderr line {other[0]!r}")
    if len(lines) != expect["warnings"]:
        problems.append(f"{len(lines)} warnings, expected {expect['warnings']}")
    unmapped = sum(1 for line in lines if "unmapped element" in line)
    if unmapped != expect["unmapped"]:
        problems.append(f"{unmapped} unmapped-element warnings, expected {expect['unmapped']}")
    return problems


def check_output(argv: list, expect: dict, rc: int, stderr: str, output: bytes) -> list[str]:
    """Every way the op's results differ from the predictions; empty if none."""
    problems = []
    if rc != expect["exit"]:
        problems.append(f"exit code {rc}, expected {expect['exit']}")
    if argv[0] != "infer":
        problems.extend(check_warnings(stderr, expect))
    elif stderr:
        problems.append(f"unexpected stderr {stderr[:80]!r}")
    text = output.decode("utf-8")
    if argv[0] == "validate":
        findings = json.loads(text)["findings"]
        name_20 = sum(1 for f in findings if f["code"] == "E_NAME_20")
        if name_20 != expect["name_20"]:
            problems.append(f"{name_20} E_NAME_20 findings, expected {expect['name_20']}")
        if len(findings) != expect["findings"]:
            problems.append(f"{len(findings)} findings, expected {expect['findings']}")
        return problems
    triples, blanks = count_graph(text)
    if triples != out_triples(argv, expect):
        problems.append(f"{triples} triples written, expected {out_triples(argv, expect)}")
    if blanks != expect["blank_nodes"]:
        problems.append(f"{blanks} blank nodes written, expected {expect['blank_nodes']}")
    return problems
