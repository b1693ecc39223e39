"""The README's library quick start runs as written, so a public name it
uses cannot be renamed or deleted unnoticed."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_block(heading: str) -> str:
    """The first fenced python block of the README section ``heading``."""
    text = README.read_text(encoding="utf-8")
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_quick_start_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the block writes pred.tmef to the working directory
    exec(compile(_python_block("Quick start (library)"), str(README), "exec"), {})
    assert (tmp_path / "pred.tmef").is_file()
