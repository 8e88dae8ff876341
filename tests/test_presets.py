"""Benchmark-table machinery (structure only; values are acceptance's job)."""

import hashlib

import pytest

from wrtrials import ConfigError, cli, presets
from wrtrials.cli import main as cli_main
from wrtrials.harness import McSummary
from wrtrials.presets import TABLE_IDS, reproduce_table

CONFIGS_SHA256 = "2910e2101365e62cffeadb819197732b52003132b2c23b28459225e4374a79af"
LINES_SHA256 = "e6434d94a6dd35234f4fc2f708570e679187e5922d33ef5fcd77cc9dc50498b8"


def test_unknown_table_rejected():
    with pytest.raises(ConfigError):
        reproduce_table("t2")


def test_negative_seed_refused_before_any_cell(monkeypatch):
    # a cell's seed is derived from the table seed; the refusal names the one given
    def stub(cfg, *, n_jobs):
        raise AssertionError("no cell should run")

    monkeypatch.setattr(presets, "monte_carlo", stub)
    with pytest.raises(ConfigError, match="seed must be non-negative, got -1$"):
        reproduce_table("t3", reps=2, seed=-1)


def test_cli_negative_seed_is_a_config_error(capsys):
    assert cli_main(["reproduce-table", "t3", "--reps", "2", "--seed", "-1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "config error: seed must be non-negative, got -1\n"


def test_table_ids_cover_grid():
    assert TABLE_IDS == tuple(f"t{i}" for i in range(3, 15))


def test_survival_table_report_structure():
    report = reproduce_table("t4", reps=15, seed=1)
    assert len(report.cells) == 15  # 5 analyses x 3 sizes
    assert all(c.design == "parallel" for c in report.cells)
    lines = report.lines()
    assert lines[0].startswith("table t4")
    assert lines[-1].startswith("table t4 verdict")
    rows = report.to_csv_rows()
    assert rows[0][0] == "table"
    assert len(rows) == 16


def test_sed_table_report_structure():
    report = reproduce_table("t13", reps=8, seed=1)
    assert len(report.cells) == 24  # 4 analyses x 2 designs x 3 sizes
    gap_checks = [c for c in report.checks if c.label.startswith("SED gains")]
    assert len(gap_checks) == 4


def test_cli_reproduce_table(tmp_path, capsys):
    out_csv = tmp_path / "cells.csv"
    code = cli_main(["reproduce-table", "t4", "--reps", "10", "--seed", "3",
                     "--csv", str(out_csv)])
    out = capsys.readouterr().out
    assert "table t4" in out
    # 10 reps are too few for the table's tolerances, and a failed verdict exits 1
    assert "table t4 verdict: FAIL" in out and code == 1
    # a header plus 5 analyses x 3 N
    assert len(out_csv.read_text().splitlines()) == 16
    # an SED table: a header plus 4 analyses x 2 designs x 3 N, and 8 reps may fail
    code = cli_main(["reproduce-table", "t11", "--reps", "8", "--seed", "1",
                     "--csv", str(out_csv)])
    assert code in (0, 1)
    assert len(out_csv.read_text().splitlines()) == 25


@pytest.mark.parametrize("ok,code", [(True, 0), (False, 1)])
def test_cli_reproduce_table_exit_code_is_the_verdict(ok, code, monkeypatch, capsys):
    report = presets.TableReport("t4", "stub", checks=[presets.CheckReport("stub", ok, "")])
    monkeypatch.setattr(cli, "reproduce_table", lambda *args, **kwargs: report)
    assert cli_main(["reproduce-table", "t4", "--reps", "2"]) == code
    assert capsys.readouterr().out.splitlines()[-1].startswith(
        f"table t4 verdict: {'PASS' if ok else 'FAIL'}")


def _digest(strings) -> str:
    return hashlib.sha256("\n".join(strings).encode()).hexdigest()


def test_table_specs_are_pinned(monkeypatch):
    """Pin the configs all 12 tables simulate and their reports on fixed summaries.

    A stub stands in for ``monte_carlo``.  Its rejection rates and estimates
    change when the analysis, the design or N (60, 100, 200 or 500) alone
    changes, so every cell value and check detail shows which summary it was
    read from; a change to any table's settings, references, tolerances,
    required flags or checks moves one of the two digests.
    """
    calls = []

    def stub(cfg, *, n_jobs):
        calls.append(repr(cfg))
        d = ("parallel", "cr", "sed").index(cfg.design)
        out = {}
        for a, name in enumerate(cfg.analyses):
            rate = ((7 * a + 5 * d + cfg.n_total // 20) % 19) / 20
            out[name] = McSummary(rate, 0.4 + 3 * rate, (rate, 1 + rate), cfg.reps, 0)
        return out

    monkeypatch.setattr(presets, "monte_carlo", stub)
    lines = [line for t in TABLE_IDS for line in reproduce_table(t, reps=7, seed=11).lines()]
    assert len(calls) == 48  # 8 survival tables x 3 N + 4 SED tables x 2 designs x 3 N
    assert _digest(calls) == CONFIGS_SHA256
    assert _digest(lines) == LINES_SHA256
