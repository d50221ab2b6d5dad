"""The CLI's help text, pinned at 80 columns: `ksetsel --help` and each `ksetsel MODE --help`.

The expected text of each command is tests/cli_help/NAME.txt, NAME
being `ksetsel` or the mode.  After a deliberate change to the help,
rewrite a file with

    COLUMNS=80 PYTHONPATH=src python -m ksetsel.cli [MODE] --help > tests/cli_help/NAME.txt
"""

from pathlib import Path

import pytest

from ksetsel.cli import main

EXPECTED = Path(__file__).parent / "cli_help"


@pytest.mark.parametrize("mode", [None, "simulate", "train", "ablate", "grid", "validate-risk", "bounds"])
def test_help_text_is_unchanged(mode, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as done:
        main(["--help"] if mode is None else [mode, "--help"])
    assert done.value.code == 0
    assert capsys.readouterr().out == (EXPECTED / f"{mode or 'ksetsel'}.txt").read_text()
