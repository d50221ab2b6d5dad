"""Shared pytest wiring.

Every test fails that leaves a child process behind, running or
unreaped, or a thread other than the main thread alive.  fake_host
sets what ahead sees of this process's CPUs and OS threads.  After a run
that touched tests/test_acceptance.py, print one verdict line per
acceptance criterion so the gate can be read at a glance.
"""

import os
import re
import threading

import pytest

from ksetsel import ahead

_CRITERIA = {
    "A1": "FPL mean regret within the closed-form ceiling on uniform streams",
    "A2": "hindsight oracle matches exhaustive subset enumeration",
    "A3": "FPL average selection risk within the alpha-scaled ceiling",
    "A4": "closed-form ceilings match high-precision reference values",
    "A5": "leader-following fails on the alternating stream; perturbation holds",
    "A6": "analytic gradients match central finite differences",
    "A7": "selected risk strictly decreases with selection cleanliness",
    "A8": "FPL test accuracy beats naive and greedy by >= 3 points",
    "A9": "FPL label precision >= 0.90 and >= random + 0.2",
    "A10": "identical config reruns are byte-identical (wall time excluded)",
    "A11": "IDX ingestion parses pairs and rejects corrupted input",
}

_NODE_RE = re.compile(r"test_acceptance\.py::.*test_a(\d{2})")


@pytest.fixture(autouse=True)
def no_child_process_left_behind():
    yield
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child, running or waiting to be reaped
        return
    pytest.fail("the test left a child process behind")


@pytest.fixture(autouse=True)
def no_thread_left_behind():
    yield
    alive = [thread.name for thread in threading.enumerate() if thread is not threading.main_thread()]
    if alive:
        pytest.fail(f"the test left threads alive: {', '.join(alive)}")


@pytest.fixture
def fake_host(monkeypatch):
    """fake_host(cpus, threads): ahead sees cpus usable CPUs and threads OS threads, None leaving either as it is.

    The CPU list holds this process's real CPU ids, repeated where cpus
    is more than it may use, so a child sent to one really moves.  A
    fork_map child still sees none.
    """
    real = ahead._usable_cpus

    def fake(cpus=None, threads=None):
        if cpus is not None:
            usable = sorted(os.sched_getaffinity(0))
            listed = [usable[i % len(usable)] for i in range(cpus)]
            monkeypatch.setattr(ahead, "_usable_cpus", lambda: real() and listed)
        if threads is not None:
            monkeypatch.setattr(ahead, "_os_threads", lambda: threads)

    return fake


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    per_criterion: dict[str, dict[str, int]] = {}
    for status in ("passed", "failed", "error", "skipped"):
        for report in terminalreporter.stats.get(status, []):
            nodeid = getattr(report, "nodeid", "")
            match = _NODE_RE.search(nodeid)
            if not match:
                continue
            key = f"A{int(match.group(1))}"
            counts = per_criterion.setdefault(key, {"passed": 0, "failed": 0, "skipped": 0})
            counts["failed" if status == "error" else status] += 1
    if not per_criterion:
        return

    terminalreporter.section("acceptance criteria")
    for key in sorted(_CRITERIA, key=lambda c: int(c[1:])):
        if key not in per_criterion:
            continue
        counts = per_criterion[key]
        if counts["failed"]:
            verdict = "FAIL"
        elif counts["passed"]:
            verdict = "PASS"
        else:
            verdict = "SKIP"
        note = ""
        if verdict == "PASS" and counts["skipped"]:
            note = " (optional clause skipped)"
        terminalreporter.write_line(f"{key:>4} {verdict}  {_CRITERIA[key]}{note}")
