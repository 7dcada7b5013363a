"""The CLI's output on the fixtures, byte for byte, against stored files.

tests/fixtures/expected/ holds the stdout of `convert` (nt and ttl) and
`validate --report json` on every XML fixture, and of `infer` (nt and ttl)
on triangle.nt.  Commands run in the fixtures directory, so the paths in
reports and messages are bare file names.  A change that alters output
bytes on purpose regenerates the files, so the change shows in its diff:

    PYTHONPATH=src python tests/test_expected_outputs.py
"""

import os
import pathlib
import sys

import pytest

from mmods.cli import main

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
EXPECTED = FIXTURES / "expected"

# Fixtures that do not parse (exit 1, nothing on stdout) and the one whose
# report has errors (validate exits 3).
_PARSE_FAILURES = {"malformed.xml", "wrongroot.xml"}
_INVALID = {"nameless.xml"}


def _cases():
    """(argv, exit code, expected-output file name or None for no output)."""
    cases = []
    for path in sorted(FIXTURES.glob("*.xml")):
        name, stem = path.name, path.stem
        failed = name in _PARSE_FAILURES
        for fmt in ("nt", "ttl"):
            expected = None if failed else f"convert-{stem}.{fmt}"
            cases.append((["convert", name, "--format", fmt], int(failed), expected))
        code = 1 if failed else 3 if name in _INVALID else 0
        expected = None if failed else f"validate-{stem}.json"
        cases.append((["validate", name, "--report", "json"], code, expected))
    for fmt in ("nt", "ttl"):
        cases.append((["infer", "triangle.nt", "--format", fmt], 0, f"infer-triangle.{fmt}"))
    return cases


@pytest.mark.parametrize(
    "argv, code, expected", [pytest.param(*case, id=" ".join(case[0])) for case in _cases()]
)
def test_output_matches_the_stored_file(argv, code, expected, capsys, monkeypatch):
    monkeypatch.chdir(FIXTURES)
    assert main(argv) == code
    out = capsys.readouterr().out
    if expected is None:
        assert out == ""
    else:
        assert out.encode() == (EXPECTED / expected).read_bytes()


def test_every_stored_file_is_checked():
    named = {expected for _, _, expected in _cases() if expected}
    assert {path.name for path in EXPECTED.iterdir()} == named


def _regenerate():
    import contextlib
    import io

    EXPECTED.mkdir(exist_ok=True)
    os.chdir(FIXTURES)
    for argv, code, expected in _cases():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            got = main(argv)
        if got != code:
            sys.exit(f"{' '.join(argv)}: exit {got}, expected {code}")
        if expected is not None:
            (EXPECTED / expected).write_bytes(out.getvalue().encode())


if __name__ == "__main__":
    _regenerate()
