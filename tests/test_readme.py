"""The README's quick tour, pair-scoring example and scenario file work with the current API."""

import json
import re
from pathlib import Path

from wrtrials import SubpopMix, scenario_from_dict
from wrtrials.presets import sed_scenario

README = Path(__file__).resolve().parents[1] / "README.md"


def block_after(marker: str, language: str = "python") -> str:
    """The first fenced ``language`` block after ``marker`` in the README."""
    text = README.read_text()
    section = text[text.index(marker):]
    return re.search(rf"```{language}\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_quick_tour_runs(capsys):
    exec(compile(block_after("## Library quick tour"), str(README), "exec"), {})
    printed = capsys.readouterr().out
    # the matched and the FS result, then the Cox fit
    assert [line.split("(")[0] for line in printed.splitlines()] == [
        "WrResult", "WrResult", "CoxResult"]


def test_readme_pair_scores_example_runs(capsys):
    exec(compile(block_after("One pair is scored on 0-d"), str(README), "exec"), {})
    assert capsys.readouterr().out.split() == ["1"]


def test_readme_scenario_file_parses():
    # the example is the SED scenario of the enrichment tables at N = 200
    cfg = scenario_from_dict(json.loads(block_after("## CLI", "json")))
    assert cfg == sed_scenario("sed", -2.0, 0.0, SubpopMix(0.05, 0.05, 0.8, 0.1), 200)
