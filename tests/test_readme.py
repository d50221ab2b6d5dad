"""README's examples hold: Python examples run as written, each in a fresh
working directory, and every `ini` config example parses and builds."""

import re
from pathlib import Path

import pytest

from ksetsel.harness import build_config, parse_config_file

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
EXAMPLES = re.findall(r"^```python\n(.*?)^```$", README, flags=re.M | re.S)
CONFIGS = re.findall(r"^```ini\n(.*?)^```$", README, flags=re.M | re.S)


def test_readme_has_python_examples():
    assert len(EXAMPLES) >= 2


@pytest.mark.parametrize("index", range(len(EXAMPLES)))
def test_python_example_runs(index, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(EXAMPLES[index], f"README.md python example {index + 1}", "exec"), {"__name__": "__main__"})


def test_readme_has_config_examples():
    assert len(CONFIGS) >= 1


@pytest.mark.parametrize("index", range(len(CONFIGS)))
def test_config_example_builds(index, tmp_path):
    path = tmp_path / "example.cfg"
    path.write_text(CONFIGS[index], encoding="utf-8")
    build_config(parse_config_file(path))  # a stale key or a bad value raises ConfigError
