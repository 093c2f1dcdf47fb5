"""Every `$ fermat-curves ...` example in README.md, run through cli.run.

The lines printed under an example, up to the next blank line or the end of
its code block, are its expected stdout. An `--output` example writes into a
temporary directory, must print nothing, and must write the bytes the same
command prints without `--output`.
"""

import pathlib
import shlex

import pytest

from fermatcurves import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
PROMPT = "$ fermat-curves "


def _examples() -> list[tuple[str, list[str]]]:
    examples = []
    expected = None
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith(PROMPT):
            expected = []
            examples.append((line[len(PROMPT):], expected))
        elif expected is not None and line.strip() not in ("", "```"):
            expected.append(line)
        else:
            expected = None
    return examples


EXAMPLES = _examples()


def test_the_readme_has_command_examples():
    assert EXAMPLES


@pytest.mark.parametrize("command, expected", EXAMPLES, ids=[command for command, _ in EXAMPLES])
def test_readme_example_prints_what_the_readme_shows(capsys, tmp_path, command, expected):
    argv = shlex.split(command)
    if "--output" in argv:
        at = argv.index("--output")
        assert cli.run(argv[:at] + argv[at + 2:]) == 0
        printed = capsys.readouterr().out
        target = tmp_path / pathlib.Path(argv[at + 1]).name
        argv[at + 1] = str(target)
    code = cli.run(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.out == "".join(line + "\n" for line in expected)
    if "--output" in argv:
        assert target.read_text(encoding="ascii") == printed
