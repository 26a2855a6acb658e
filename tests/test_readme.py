"""README's examples run: each ``python`` block as a doctest, and each line
of the CLI block through ``cli.main``."""

import doctest
import re
import shlex
from pathlib import Path

import pytest

from caloop import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
# a fenced block: its language and its body, without the fences
FENCE = re.compile(r"^```(\w*)\n(.*?)^```$", re.M | re.S)
PYTHON_BLOCKS = [body for lang, body in FENCE.findall(README) if lang == "python"]
CLI_LINES = FENCE.search(README, README.index("\n## CLI\n")).group(2).splitlines()


def test_examples_found():
    assert PYTHON_BLOCKS
    assert len(CLI_LINES) == 13


@pytest.mark.parametrize("block", PYTHON_BLOCKS,
                         ids=[f"block-{i}" for i in range(1, len(PYTHON_BLOCKS) + 1)])
def test_python_block_runs_as_a_doctest(block):
    test = doctest.DocTestParser().get_doctest(block, {}, "README.md", "README.md", 0)
    report = []
    result = doctest.DocTestRunner().run(test, out=report.append)
    assert result.attempted and not result.failed, "".join(report)


@pytest.mark.parametrize("line", CLI_LINES, ids=[line.partition("#")[0].strip() for line in CLI_LINES])
def test_cli_line_runs(line, tmp_path, monkeypatch, capsys):
    # README: each line exits with status 0, and a `# ->` comment gives the
    # first line it prints; `table` writes its file in the working directory
    argv = shlex.split(line, comments=True)
    assert argv[0] == "caloop"
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv[1:]) == 0
    out = capsys.readouterr().out
    expected = line.partition("# ->")[2].strip()
    if expected:
        assert out.splitlines()[0] == expected
