"""The README's library examples run as written."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def library_blocks():
    """The Python blocks of the README's "Library example" section, in order."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library example\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)


def test_library_examples_run(tmp_path, monkeypatch):
    # a continuous column for fit_dataset to bin, a categorical one, and a label
    rng = np.random.default_rng(0)
    lines = ["x,c,y"]
    for _ in range(300):
        a = int(rng.integers(0, 2))
        lines.append("%.4f,%s,%d" % (rng.normal(loc=2.0 * a), "uv"[int(rng.integers(0, 2))], a))
    (tmp_path / "data.csv").write_text("\n".join(lines) + "\n")
    monkeypatch.chdir(tmp_path)
    blocks = library_blocks()
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["matrix"].shape == (300, len(namespace["names"]))
