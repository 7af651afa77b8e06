"""Every demo script, and every example in the README, runs against the current library."""

import re
import runpy
from pathlib import Path

import pytest

from limpoly import cli

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text(encoding="utf-8")


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def _block(heading: str, lang: str) -> str:
    """The first fenced block of `lang` after the README's `heading`."""
    section = README[README.index(f"\n{heading}\n"):]
    return re.search(rf"^```{lang}\n(.*?)^```$", section, re.M | re.S).group(1)


def test_readme_quickstart_runs():
    exec(compile(_block("## Library quickstart", "python"), "README quickstart", "exec"), {})


def _command_lines():
    """(argv, exit code) per README command line; a trailing `# exit N` states a code but 0."""
    text = _block("## Command line", "sh").replace("\\\n", " ")
    for line in text.splitlines():
        command, _, comment = line.partition("#")
        code = re.fullmatch(r"\s*exit (\d)\s*", comment)
        yield command.split()[1:], int(code.group(1)) if code else 0


COMMANDS = list(_command_lines())


@pytest.mark.parametrize("argv, code", COMMANDS, ids=[argv[0] for argv, _ in COMMANDS])
def test_readme_command_line_exits_as_documented(argv, code, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the search line writes its counterexample log here
    assert cli.main(argv) == code
    assert capsys.readouterr().out
