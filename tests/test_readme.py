"""The README's Python API example runs as written."""

import pathlib
import re
import shutil

ROOT = pathlib.Path(__file__).parent.parent


def test_python_api_example_runs(capsys, tmp_path, monkeypatch):
    readme = (ROOT / "README.md").read_text()
    section = readme[readme.index("## Python API") :]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    shutil.copy(ROOT / "tests" / "fixtures" / "attrs.xml", tmp_path / "record.xml")
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md", "exec"), {})
    out = capsys.readouterr().out
    assert "errors: 0, warnings:" in out
    assert "/a1/agent0> <" in out
