"""The README's Python API example runs as printed, and its tables say what the code does."""

import re
from pathlib import Path

from rangebound import experiment, verification

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_api_example_runs():
    section = README.read_text().split("## Python API", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block is not None
    exec(compile(block.group(1), "README.md", "exec"), {})


def test_every_skip_wording_is_in_the_double_range_table():
    """run's warning and verify's note for each skip, its placeholders as the README writes them."""
    section = README.read_text().split("## Double range", 1)[1].split("\n## ", 1)[0]
    table = "\n".join(line for line in section.splitlines() if line.startswith("|"))
    words = dict(label="bounded", t="t1", seed="S", steps="N", levels="K")
    for key, wordings in experiment.SKIP_WORDING.items():
        for text in filter(None, wordings):
            assert text.format(**words, ceiling=verification.ORACLE_CEILING) in table, key
