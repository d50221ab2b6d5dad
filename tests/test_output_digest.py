"""scripts/output_digest.py: one digest per config plus a total, and a loud exit on a failing config."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "output_digest.py"


def load_script():
    spec = importlib.util.spec_from_file_location("output_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digests_every_config_of_src_and_exits_zero():
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), str(ROOT / "src")], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    lines = proc.stdout.splitlines()
    names = [name for name, _, _ in load_script().configs()] + ["total"]
    assert len(names) == 27
    assert [line.split("  ", 1)[1] for line in lines] == names
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines)


def test_a_failing_config_makes_the_script_exit_one(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", [*sys.path])  # main() puts SRC_DIR on the import path
    script = load_script()
    configs = script.configs
    monkeypatch.setattr(script, "configs", lambda: [*configs()[-1:], ("broken", "train", {"n": 0})])
    assert script.main([str(ROOT / "src")]) == 1
    captured = capsys.readouterr()
    assert "broken: exit 1: config error: n must be >= 1, got 0" in captured.err
    assert [line.split("  ")[1] for line in captured.out.splitlines()] == ["bounds", "broken", "total"]
