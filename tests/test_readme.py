"""The README's example outputs and stated size limits against what the library does now."""

import re
import shlex
from pathlib import Path

import pytest

from bsteleport import numerics, protocol
from bsteleport.cli import OUT_DIR_ENV, main
from bsteleport.states import cat_coeffs, suggest_cutoff

README = Path(__file__).resolve().parents[1] / "README.md"
# a number as the CLI prints it, nan included
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*(?:e[-+]?\d+)?|nan|inf)")
# every example shown in full
CHECKED = ("fidelity", "distribution", "resource", "oracle-check", "sweep")


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
def test_example_output_matches(command, capsys, tmp_path, monkeypatch):
    # the text must match exactly and every number to 1e-13; files land in
    # the current directory, as in the example
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(OUT_DIR_ENV, raising=False)
    argv, shown = _examples()[command]
    assert main(argv) == 0
    printed = capsys.readouterr().out.splitlines()
    assert [_NUMBER.sub("#", line) for line in printed] == [_NUMBER.sub("#", line) for line in shown]
    for got, want in zip(printed, shown):
        for g, w in zip(_NUMBER.findall(got), _NUMBER.findall(want)):
            assert float(g) == pytest.approx(float(w), abs=1e-13, nan_ok=True), (got, want)


class _Accepted(Exception):
    """A request passed the budget check; raised before anything is allocated."""


def _fig2_sweep_size(total: int) -> None:
    # the size check of a one-cell sweep of the fig-2 target allocates nothing, so it runs to its end
    protocol.check_sweep_size(cat_coeffs(3.0, suggest_cutoff(3.0)), total, 1, 1)
    raise _Accepted


@pytest.mark.parametrize("phrase, route", [
    (r"A total whose point\s+would exceed", lambda total: numerics._column(total, 0, 1.0)),
    (r"a grid factor", numerics._factor),
    (r"a sweep of the fig-2 target", _fig2_sweep_size),
])
def test_stated_limit_is_the_largest_total_accepted(phrase, route, monkeypatch):
    # the total after "any total above" in the sentence that names the route
    stated = int(re.search(phrase + r"[^.]*?any\s+total\s+above\s+(\d+)", README.read_text()).group(1))
    check = numerics._check_budget

    def stop_if_accepted(need, what):
        check(need, what)
        raise _Accepted

    monkeypatch.setattr(numerics, "_check_budget", stop_if_accepted)
    with pytest.raises(_Accepted):
        route(stated)
    with pytest.raises(ValueError, match="MiB limit"):
        route(stated + 1)
