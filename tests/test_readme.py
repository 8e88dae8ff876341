"""The README's library quick tour and pair-scoring example run against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_block_after(marker: str) -> str:
    """The first fenced python block after ``marker`` in the README."""
    text = README.read_text()
    section = text[text.index(marker):]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_quick_tour_runs(capsys):
    exec(compile(python_block_after("## Library quick tour"), str(README), "exec"), {})
    printed = capsys.readouterr().out
    assert "MatchedStratified" in printed and "UnmatchedStratified" in printed


def test_readme_pair_scores_example_runs(capsys):
    exec(compile(python_block_after("One pair is scored on 0-d"), str(README), "exec"), {})
    assert capsys.readouterr().out.split() == ["1"]
