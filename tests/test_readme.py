"""The README's command-line examples run as written."""

import math
import re
import shlex
from pathlib import Path

from phototherm.cli import cli_main

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands() -> list[list[str]]:
    """The argument lists of the `phototherm` commands in the first sh block
    of README's "Command line" section, continuation lines joined."""
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        words = shlex.split(line, comments=True)
        if words:
            assert words[0] == "phototherm", line
            commands.append(words[1:])
    return commands


def test_the_block_has_every_subcommand():
    assert [argv[0] for argv in readme_commands()] == [
        "simulate", "metrics", "steady", "calibrate", "sweep", "analyze-bending"]


def test_each_command_exits_0(capsys, tmp_path, monkeypatch):
    # the first command writes run.csv; calibrate and analyze-bending read
    # these two small records
    monkeypatch.chdir(tmp_path)
    times = range(0, 151, 5)
    (tmp_path / "measured.csv").write_text(
        "time_s,value\n" + "".join(f"{t},{298 + 30 * -math.expm1(-t / 65):.6f}\n"
                                   for t in times), encoding="utf-8")
    (tmp_path / "bending.csv").write_text(
        "# unit: deg\ntime_s,value\n" + "".join(f"{t},{40 * -math.expm1(-t / 15):.6f}\n"
                                                for t in times), encoding="utf-8")
    for argv in readme_commands():
        code = cli_main(argv)
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, ""), argv
    assert (tmp_path / "run.csv").is_file() and (tmp_path / "sweep.csv").is_file()
    assert (tmp_path / "normalized.csv").is_file()
