"""The CLI's output on the fixtures, byte for byte, against stored files.

tests/fixtures/expected/ holds the stdout of `convert` (nt and ttl) and
`validate --report json` on every XML fixture, and of `infer` (nt and ttl)
on triangle.nt, and of `convert` on two pairs of fixtures given together
(convert-<first>+<second>.nt and .ttl).  Every command on the same inputs
writes the same stderr (its warnings, or the error that stops it), held in
stderr-<stem>.txt.  Commands run in the fixtures directory, so the paths in
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
    """(argv, exit code, expected-output file name or None for no output,
    expected-stderr file name)."""
    cases = []
    for path in sorted(FIXTURES.glob("*.xml")):
        name, stem = path.name, path.stem
        failed = name in _PARSE_FAILURES
        stderr = f"stderr-{stem}.txt"
        for fmt in ("nt", "ttl"):
            expected = None if failed else f"convert-{stem}.{fmt}"
            cases.append((["convert", name, "--format", fmt], int(failed), expected, stderr))
        code = 1 if failed else 3 if name in _INVALID else 0
        expected = None if failed else f"validate-{stem}.json"
        cases.append((["validate", name, "--report", "json"], code, expected, stderr))
    # One pair whose records carry IDs, one whose records have none.
    for first, second in (("personal", "dates"), ("conference", "twins")):
        stem = f"{first}+{second}"
        for fmt in ("nt", "ttl"):
            argv = ["convert", f"{first}.xml", f"{second}.xml", "--format", fmt]
            cases.append((argv, 0, f"convert-{stem}.{fmt}", f"stderr-{stem}.txt"))
    for fmt in ("nt", "ttl"):
        cases.append(
            (["infer", "triangle.nt", "--format", fmt], 0, f"infer-triangle.{fmt}", "stderr-triangle.txt")
        )
    return cases


@pytest.mark.parametrize(
    "argv, code, expected, stderr",
    [pytest.param(*case, id=" ".join(case[0])) for case in _cases()],
)
def test_output_matches_the_stored_file(argv, code, expected, stderr, capsys, monkeypatch):
    monkeypatch.chdir(FIXTURES)
    assert main(argv) == code
    captured = capsys.readouterr()
    if expected is None:
        assert captured.out == ""
    else:
        assert captured.out.encode() == (EXPECTED / expected).read_bytes()
    assert captured.err.encode() == (EXPECTED / stderr).read_bytes()


def test_every_stored_file_is_checked():
    named = {name for _, _, expected, stderr in _cases() for name in (expected, stderr) if name}
    assert {path.name for path in EXPECTED.iterdir()} == named


def _regenerate():
    import contextlib
    import io

    EXPECTED.mkdir(exist_ok=True)
    os.chdir(FIXTURES)
    for argv, code, expected, stderr in _cases():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            got = main(argv)
        if got != code:
            sys.exit(f"{' '.join(argv)}: exit {got}, expected {code}")
        if expected is not None:
            (EXPECTED / expected).write_bytes(out.getvalue().encode())
        (EXPECTED / stderr).write_bytes(err.getvalue().encode())


if __name__ == "__main__":
    _regenerate()
