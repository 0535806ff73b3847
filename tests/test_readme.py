"""The README's `python` code blocks run, in order, in one namespace, so a
changed signature cannot leave the documented API stale; and every
`kgreason` command of its shell walkthrough runs through cli.main and exits
0, so the walkthrough cannot fall out of step with the CLI. Both run in a
scratch directory holding the walkthrough's synthetic dataset, which its
`python3 - <<'EOF'` script writes first."""

import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from kgreason.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture
def readme(tmp_path, monkeypatch):
    """The README's text, run from a scratch directory holding its dataset."""
    text = README.read_text(encoding="utf-8")
    dataset = re.findall(r"^python3 - <<'EOF'\n(.*?)^EOF$", text, flags=re.S | re.M)
    assert len(dataset) == 1
    monkeypatch.chdir(tmp_path)
    exec(compile(dataset[0], "README.md dataset script", "exec"), {})
    return text


def test_python_blocks_run(readme):
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.S | re.M)
    assert len(blocks) >= 3
    namespace: dict = {}
    for k, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {k}", "exec"), namespace)
    # the documented results of the first two blocks
    assert namespace["vec"].values.tolist() == pytest.approx([0.3, 0.28, 0.04, 0.01])
    assert namespace["positions"].tolist() == [0, 1]
    assert namespace["values"].shape == (2, 4)
    records, kg = namespace["records"], namespace["kg"]
    assert len(records) == 50
    assert namespace["brute_force_answers"](records[0].ast, kg,
                                            ("train", "validation")) == records[0].easy


def walkthrough_commands(text: str) -> list[list[str]]:
    """The argument lists of the `kgreason ...` lines of the README's `sh`
    blocks, with backslash continuations joined."""
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```$", text, flags=re.S | re.M):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("kgreason "):
                commands.append(shlex.split(line)[1:])
    return commands


def test_walkthrough_commands_run(readme, capsys):
    commands = walkthrough_commands(readme)
    assert [args[0] for args in commands] == [
        "train-kgc", "gen-queries", "calibrate", "build-tensor", "gen-queries", "eval",
        "ablate"]
    with np.errstate():     # main sets numpy to raise on overflow
        for args in commands:
            assert main(args) == 0, (args, capsys.readouterr().err)
    assert Path("metrics.kv").exists() and Path("ablation", "ablation.summary").exists()
