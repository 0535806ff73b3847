"""The README's `python` code blocks run, in order, in one namespace, so a
changed signature cannot leave the documented API stale. They run in a
scratch directory holding the walkthrough's synthetic dataset, which its
`python3 - <<'EOF'` script writes first."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run(tmp_path, monkeypatch):
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, flags=re.S | re.M)
    dataset = re.findall(r"^python3 - <<'EOF'\n(.*?)^EOF$", text, flags=re.S | re.M)
    assert len(blocks) >= 3 and len(dataset) == 1
    monkeypatch.chdir(tmp_path)
    exec(compile(dataset[0], "README.md dataset script", "exec"), {})
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
