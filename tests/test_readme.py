"""The README's Python examples run as written, on the derived fixtures."""

import pathlib
import re
import shutil

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def python_blocks() -> list[str]:
    text = README.read_text(encoding="utf-8")
    return re.findall(r"^```python\n(.*?)^```", text, re.MULTILINE | re.DOTALL)


def test_python_examples_run(fixtures_dir, tmp_path, monkeypatch, capsys):
    for side in ("key", "response"):
        shutil.copy(fixtures_dir / f"derived_{side}.jsonl", tmp_path / f"{side}.jsonl")
    monkeypatch.chdir(tmp_path)
    blocks = python_blocks()
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.strip()
