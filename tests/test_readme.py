"""README's Python examples run as written, each in a fresh working directory."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
EXAMPLES = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), flags=re.M | re.S)


def test_readme_has_python_examples():
    assert len(EXAMPLES) >= 2


@pytest.mark.parametrize("index", range(len(EXAMPLES)))
def test_python_example_runs(index, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(EXAMPLES[index], f"README.md python example {index + 1}", "exec"), {"__name__": "__main__"})
