"""The README's library quick start runs as written, and every `module.attr`
it names resolves, so a public name it uses cannot be renamed or deleted
unnoticed."""

import importlib
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


# `module.attr`, or `tmeseg.module.attr(...)`, at the start of a code span
_REFERENCE = re.compile(r"`(?:tmeseg\.)?(\w+)\.(\w+)[^`\n]*`")
_MODULES = {p.stem for p in (README.parent / "src" / "tmeseg").glob("*.py")}


def test_module_references_resolve():
    refs = [
        (module, attr)
        for module, attr in _REFERENCE.findall(README.read_text(encoding="utf-8"))
        if module in _MODULES and attr != "py"  # `tiling.py` names a file
    ]
    assert refs  # the pattern still finds the README's references
    missing = [
        f"{module}.{attr}"
        for module, attr in refs
        if not hasattr(importlib.import_module(f"tmeseg.{module}"), attr)
    ]
    assert missing == []
