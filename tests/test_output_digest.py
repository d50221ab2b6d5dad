"""scripts/output_digest.py: one digest per config plus a total, a loud exit on a failing config,
the same digests at 1 and 2 BLAS threads and on one usable CPU, and digests equal to the ones
tests/golden/digests.txt records for this host's numpy build."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "output_digest.py"
GOLDEN = ROOT / "tests" / "golden" / "digests.txt"


def load_script():
    spec = importlib.util.spec_from_file_location("output_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def host_key() -> str:
    """numpy's version and the name and version of the BLAS it was built with, from numpy's own build config."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # a numpy without the dicts mode or a BLAS entry: no golden entry can match
        return f"numpy {np.__version__} | no BLAS in the build config"
    return f"numpy {np.__version__} | {blas['name']} {blas['version']}"


def read_golden() -> dict[str, dict[str, str]]:
    """{host key: {config: digest}} from the golden file's `[key]` headers and `digest  config` lines."""
    golden: dict[str, dict[str, str]] = {}
    for line in GOLDEN.read_text().splitlines():
        if line.startswith("["):
            entries = golden.setdefault(line[1:-1], {})
        elif line and not line.startswith("#"):
            digest, name = line.split("  ")
            entries[name] = digest
    return golden


def run_script(threads: int, one_cpu: bool = False) -> subprocess.CompletedProcess:
    """The script over src at threads BLAS threads; with one_cpu, its affinity cut to one of this process's CPUs."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads), "OMP_NUM_THREADS": str(threads)}
    mask = os.sched_getaffinity(0) if one_cpu else None
    if one_cpu:
        os.sched_setaffinity(0, {min(mask)})  # the child inherits the mask of the thread that starts it
    try:
        return subprocess.run(
            [sys.executable, str(SCRIPT), str(ROOT / "src")], capture_output=True, text=True, env=env, timeout=300
        )
    finally:
        if one_cpu:
            os.sched_setaffinity(0, mask)


@pytest.fixture(scope="module")
def digest_run():
    """One run of the script over src at one BLAS thread, shared by every test that reads its output."""
    return run_script(1)


def test_digests_every_config_of_src_and_exits_zero(digest_run):
    proc = digest_run
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    lines = proc.stdout.splitlines()
    names = [name for name, _, _ in load_script().configs()] + ["total"]
    assert len(names) == 29
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


def test_digests_match_the_golden_file(digest_run):
    # a change that alters an output on purpose records the new digests in the same commit
    lines = (line.split("  ", 1) for line in digest_run.stdout.splitlines())
    computed = {name: digest for digest, name in lines if name != "total"}
    key = host_key()
    golden = read_golden()
    if key not in golden:
        pytest.skip(f"{GOLDEN.name} has no entry for {key!r}; this host computed:\n{digest_run.stdout}")
    expected = golden[key]
    changed = sorted(name for name in computed.keys() | expected.keys() if computed.get(name) != expected.get(name))
    assert not changed, f"outputs differ from {GOLDEN.name} for: {', '.join(changed)}\n{digest_run.stderr}"


def test_two_blas_threads_print_the_same_digests(digest_run):
    # at 2 BLAS threads fork_map runs inline, so this also checks that forked runs match inline ones
    two = run_script(2)
    assert two.returncode == 0, two.stderr
    assert two.stdout == digest_run.stdout


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="cuts the script's CPU affinity")
def test_one_usable_cpu_prints_the_same_digests(digest_run):
    # on one CPU fork_map, the split training and the scoring all run inline on the calling thread
    one = run_script(1, one_cpu=True)
    assert one.returncode == 0, one.stderr
    assert one.stdout == digest_run.stdout
