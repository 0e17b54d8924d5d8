"""The README as a contract: its examples must run and print what it shows.

Each test reads README.md itself, so deleting or renaming a command, flag
or Python name the README uses, or changing the output it quotes, fails
here until the README is updated with it.
"""

import pathlib
import re
import shlex

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
README = (REPO / "README.md").read_text()


def _section(title):
    """The text under a level-two heading, up to the next one."""

    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start:end if end != -1 else None]


def _code_block(title, language):
    match = re.search(rf"```{language}\n(.*?)```", _section(title), re.S)
    return match.group(1)


def _quick_start():
    """(argv, expected stdout) for each `$ xdicheck ...` example."""

    examples = []
    for chunk in _code_block("Quick start", "sh").split("\n\n"):
        command, *output = chunk.strip("\n").splitlines()
        program, *argv = shlex.split(command.removeprefix("$ "))
        assert program == "xdicheck"
        examples.append((argv, "".join(line + "\n" for line in output)))
    return examples


def _command_table():
    """(subcommand, flags) for each row of the command reference table."""

    rows = re.findall(r"^\| `([^`]+)` \|", _section("Command reference"), re.M)
    return [(row.split()[0], re.findall(r"--[a-z-]+", row)) for row in rows]


def test_deadlock_formula_bullets_list_every_stated_fact():
    """The storage, source and sink facts are stated by the library, not
    verified by check-library, so README must spell each one out."""

    from xdicheck.library import get_primitive

    start = README.index("\n### Deadlock formulas\n")
    section = README[start:README.index("\n## ", start)]
    bullets = " ".join(
        " ".join(block.split()) for block in re.findall(r"^\* .*?(?=^\* |^$)", section, re.M | re.S)
    )
    for name in ("storage", "source", "sink"):
        for fact in get_primitive(name).facts:
            assert f"`{fact.text}`" in bullets, (name, fact.text)


def test_readme_examples_are_found():
    assert [argv[0] for argv, _ in _quick_start()] == ["labels", "check", "deadlock"]
    assert len(_command_table()) == 8
    assert "from xdicheck import" in _code_block("Python API", "python")


@pytest.mark.parametrize(
    "argv, expected", [pytest.param(*example, id=example[0][0]) for example in _quick_start()]
)
def test_quick_start_prints_what_the_readme_shows(run_cli, monkeypatch, argv, expected):
    monkeypatch.chdir(REPO)
    result = run_cli(*argv)
    assert result.out == expected
    assert result.err == ""
    # README "Exit codes": 1 when a property fails or a deadlock was found.
    assert result.code == (1 if "FAILS" in expected or "deadlock: yes" in expected else 0)


def test_python_api_example_runs(monkeypatch):
    monkeypatch.chdir(REPO)
    exec(compile(_code_block("Python API", "python"), "README.md", "exec"), {})


@pytest.mark.parametrize(
    "command, flags", [pytest.param(*row, id=row[0]) for row in _command_table()]
)
def test_command_reference_matches_the_parser(run_cli, command, flags):
    result = run_cli(command, "--help")
    assert result.code == 0
    for flag in flags + ["--json", "--deterministic"]:
        assert re.search(rf"{flag}\b", result.out), (command, flag)
