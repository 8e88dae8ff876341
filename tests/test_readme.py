"""The README's library quick tour runs against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_tour_source() -> str:
    text = README.read_text()
    section = text[text.index("## Library quick tour"):]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_quick_tour_runs(capsys):
    exec(compile(quick_tour_source(), str(README), "exec"), {})
    printed = capsys.readouterr().out
    assert "MatchedStratified" in printed and "UnmatchedStratified" in printed
