"""The README's Python examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run(tmp_path, monkeypatch, capsys):
    # the library quick start, then the demo input files; run in a fresh
    # directory, since the second block writes m.json and X1.json
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 2
    monkeypatch.chdir(tmp_path)
    for k, code in enumerate(blocks):
        exec(compile(code, f"README.md python block {k + 1}", "exec"), {})
    assert "Safety." in capsys.readouterr().out
    assert (tmp_path / "m.json").is_file() and (tmp_path / "X1.json").is_file()
