"""The README's example outputs against what the commands print now."""

import re
import shlex
from pathlib import Path

import pytest

from bsteleport.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
# a number as the CLI prints it, nan included
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*(?:e[-+]?\d+)?|nan|inf)")
# every example shown in full; the sweep's summary line is abridged
CHECKED = ("fidelity", "distribution", "resource", "oracle-check")


def _examples() -> dict:
    """Arguments and shown output of each `$ bsteleport ...` example, by subcommand."""
    out = {}
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), flags=re.S):
        lines = block.splitlines()
        if lines and lines[0].startswith("$ bsteleport "):
            argv = shlex.split(lines[0])[2:]
            out[argv[0]] = (argv, lines[1:])
    return out


@pytest.mark.parametrize("command", CHECKED)
def test_example_output_matches(command, capsys):
    # the text must match exactly and every number to 1e-13
    argv, shown = _examples()[command]
    assert main(argv) == 0
    printed = capsys.readouterr().out.splitlines()
    assert [_NUMBER.sub("#", line) for line in printed] == [_NUMBER.sub("#", line) for line in shown]
    for got, want in zip(printed, shown):
        for g, w in zip(_NUMBER.findall(got), _NUMBER.findall(want)):
            assert float(g) == pytest.approx(float(w), abs=1e-13, nan_ok=True), (got, want)
