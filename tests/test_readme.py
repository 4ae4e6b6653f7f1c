"""The README's python and CLI examples run as written."""

import re
import shlex
from pathlib import Path

from beamsquint.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def cli_examples():
    """(argv, exit code) of each ``beamsquint`` command in the sh blocks;
    the code is 3 where the comment above the command says "exit code 3"."""
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        comment = ""
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("#"):
                comment = line
            elif line.startswith("beamsquint "):
                yield shlex.split(line)[1:], 3 if "exit code 3" in comment else 0


def test_cli_examples_run(tmp_path, monkeypatch, capsys):
    examples = list(cli_examples())
    assert len(examples) >= 4
    assert any(code == 3 for _, code in examples)
    monkeypatch.chdir(tmp_path)  # an example writes --out sizes.csv
    for argv, code in examples:
        assert main(argv) == code, argv
    assert (tmp_path / "sizes.csv").read_text().startswith("n_antennas")
