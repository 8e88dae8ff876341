"""Engine determinism, design degeneracies, config parsing, CLI surface."""

import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from wrtrials import (
    BinaryGenConfig,
    ConfigError,
    ContinuousGenConfig,
    ScenarioConfig,
    SubpopMix,
    SurvivalGenConfig,
    cohort_to_csv,
    contingency_or_test,
    improvement_indicators,
    matched_win_probs,
    monte_carlo,
    run_trial,
    scenario_from_dict,
)
from wrtrials import harness
from wrtrials.harness import Cutoffs
from wrtrials.cli import main as cli_main


def survival_cfg(n=60, reps=40, seed=7, **kw):
    return ScenarioConfig(
        design="parallel",
        outcome_family="survival",
        generator=SurvivalGenConfig(n=n, **kw),
        analyses=("Cox", "MatchedWR", "StratUnmatchedWR", "UnstratUnmatchedWR", "Obrien"),
        n_total=n,
        reps=reps,
        master_seed=seed,
    )


def continuous_cfg(design, n=60, reps=30, seed=11, c_s0=0.8, c_s1=0.9, beta_t1=-2.0):
    return ScenarioConfig(
        design=design,
        outcome_family="continuous",
        generator=ContinuousGenConfig(beta_t1=beta_t1, n=n, mix=SubpopMix(0.05, 0.05, 0.8, 0.1)),
        analyses=("Contingency", "MatchedWR", "StratUnmatchedWR", "UnstratUnmatchedWR"),
        n_total=n,
        cutoffs=Cutoffs(c_t=0.8, c_s0=c_s0, c_s1=c_s1),
        reps=reps,
        master_seed=seed,
    )


def test_trial_deterministic_given_seed():
    cfg = survival_cfg()
    a = run_trial(cfg, 99)
    b = run_trial(cfg, 99)
    assert repr(a) == repr(b)  # repr-compare: NaN fields defeat ==


def test_monte_carlo_deterministic():
    cfg = survival_cfg(reps=30)
    assert repr(monte_carlo(cfg)) == repr(monte_carlo(cfg))


def test_monte_carlo_worker_count_irrelevant():
    cfg = survival_cfg(n=40, reps=16)
    assert repr(monte_carlo(cfg, n_jobs=1)) == repr(monte_carlo(cfg, n_jobs=2))


def test_alpha_one_rejects_everything():
    cfg = survival_cfg(reps=10)
    cfg = ScenarioConfig(**{**cfg.__dict__, "alpha": 1.0})
    out = monte_carlo(cfg)
    assert all(s.rejection_rate == 1.0 for s in out.values())


def test_reps_accounting():
    cfg = survival_cfg(reps=25)
    out = monte_carlo(cfg)
    for s in out.values():
        assert s.reps_used + s.degenerate_count == 25


def test_sed_with_sentinel_cutoffs_equals_cr():
    sed = continuous_cfg("sed", c_s0=-math.inf, c_s1=-math.inf, reps=12)
    cr = continuous_cfg("cr", reps=12)
    for seed in (3, 17):
        assert repr(run_trial(sed, seed)) == repr(run_trial(cr, seed))
    assert repr(monte_carlo(sed)) == repr(monte_carlo(cr))


def test_cr_equals_parallel_on_continuous():
    cr = continuous_cfg("cr", reps=5)
    par = replace(cr, design="parallel")
    assert repr(run_trial(cr, 5)) == repr(run_trial(par, 5))
    # the replicates' seed sequences, too, reach both designs unspent
    assert repr(monte_carlo(cr)) == repr(monte_carlo(par))


def test_sed_runs_and_differs_from_cr():
    sed = continuous_cfg("sed", reps=8)
    cr = continuous_cfg("cr", reps=8)
    rec_sed = run_trial(sed, 2)
    rec_cr = run_trial(cr, 2)
    assert set(rec_sed) == set(rec_cr)
    assert repr(rec_sed) != repr(rec_cr)


def test_contingency_table_counts_exactly_the_stage1_patients(monkeypatch):
    # the 2x2 test takes one record per stage-1 patient; the stage-2
    # re-randomizations of the same patients must stay out of it
    cfg = continuous_cfg("sed", n=60)
    seen = {}

    def indicators(cohort, c_t):
        seen["cohort"] = cohort
        return improvement_indicators(cohort, c_t)

    def table(treatment_success, control_success):
        seen["arms"] = (len(treatment_success), len(control_success))
        return contingency_or_test(treatment_success, control_success)

    monkeypatch.setattr(harness, "improvement_indicators", indicators)
    monkeypatch.setattr(harness, "contingency_or_test", table)
    records = run_trial(cfg, 2)
    assert not records["Contingency"].degenerate
    cohort = seen["cohort"]
    first = cohort.stage == 0
    assert (cohort.stage == 1).sum() >= 2
    assert first.sum() == cfg.n_total
    assert seen["arms"] == ((cohort.arm[first] == 1).sum(), (cohort.arm[first] == 0).sum())


def test_leadin_cap_makes_every_analysis_degenerate(monkeypatch):
    # c_s0 = +inf excludes every enrollee, so the lead-in stops at its cap
    cfg = continuous_cfg("sed", n=8, c_s0=math.inf)
    batch_sizes = []
    draw = harness.draw_continuous_patients

    def counting(*args):
        frame = draw(*args)
        batch_sizes.append(len(frame.y_base))
        return frame

    monkeypatch.setattr(harness, "draw_continuous_patients", counting)
    records = harness._rep_worker((cfg, np.random.SeedSequence(3)))
    assert batch_sizes == [8] * 400
    assert set(records) == set(cfg.analyses)
    for record in records.values():
        assert record.degenerate
        assert record.note == ("lead-in produced too few placebo nonresponders for stage 1: "
                               "0 of 8 after _LEADIN_MAX_BATCHES=400 batches")


def test_incompatible_analysis_rejected():
    with pytest.raises(ConfigError):
        ScenarioConfig(
            design="parallel",
            outcome_family="continuous",
            generator=ContinuousGenConfig(n=40, mix=SubpopMix(0.25, 0.25, 0.25, 0.25)),
            analyses=("Cox",),
            n_total=40,
        )


def test_design_family_compatibility():
    with pytest.raises(ConfigError):
        ScenarioConfig(
            design="sed",
            outcome_family="survival",
            generator=SurvivalGenConfig(n=40),
            analyses=("Cox",),
            n_total=40,
        )


@pytest.mark.parametrize("family,generator", [
    ("binary", SurvivalGenConfig(n=40)),
    ("survival", BinaryGenConfig(p_t=0.2, q_t=0.3, p_c=0.3, q_c=0.4, n1=20, n0=20)),
    ("survival", ContinuousGenConfig(n=40, mix=SubpopMix(0.25, 0.25, 0.25, 0.25))),
], ids=["binary-survival", "survival-binary", "survival-continuous"])
def test_generator_of_another_family_rejected(family, generator):
    with pytest.raises(ConfigError, match=f"a {family} scenario needs a"):
        ScenarioConfig(
            design="parallel",
            outcome_family=family,
            generator=generator,
            analyses=("MatchedWR",),
            n_total=40,
        )


def test_generator_size_must_match():
    with pytest.raises(ConfigError):
        ScenarioConfig(
            design="parallel",
            outcome_family="survival",
            generator=SurvivalGenConfig(n=50),
            analyses=("Cox",),
            n_total=60,
        )


SCENARIO_JSON = {
    "design": "parallel",
    "outcome_family": "survival",
    "generator": {"beta_t": -0.5108256237659907, "beta_in": 0.0},
    "analyses": ["Cox", "StratUnmatchedWR"],
    "n_total": 60,
    "alpha": 0.05,
    "reps": 12,
    "master_seed": 99,
}


def test_scenario_from_dict_roundtrip():
    cfg = scenario_from_dict(json.loads(json.dumps(SCENARIO_JSON)))
    assert cfg.generator.beta_t == pytest.approx(math.log(0.6))
    assert cfg.n_total == 60
    out = monte_carlo(cfg)
    assert set(out) == {"Cox", "StratUnmatchedWR"}


def test_scenario_unknown_key_rejected():
    bad = dict(SCENARIO_JSON, typo_key=1)
    with pytest.raises(ConfigError):
        scenario_from_dict(bad)
    bad = dict(SCENARIO_JSON, generator={"beta_t": 0.0, "nope": 1})
    with pytest.raises(ConfigError):
        scenario_from_dict(bad)


def test_scenario_with_an_empty_treatment_arm_is_a_config_error():
    # int(4 * 0.1) = 0 treatment slots
    bad = dict(SCENARIO_JSON, n_total=4, generator={"allocation": 0.1})
    with pytest.raises(ConfigError, match="treatment arm"):
        scenario_from_dict(bad)


SED_JSON = {
    "design": "sed",
    "outcome_family": "continuous",
    "generator": {
        "beta_p": [-1.5, -1.5, -1.5],
        "beta_t1": -2.0,
        "mix": {"p1": 0.05, "p2": 0.05, "p3": 0.8, "p4": 0.1},
    },
    "analyses": ["Contingency"],
    "n_total": 40,
    "cutoffs": {"c_t": 0.8, "c_s0": "-inf", "c_s1": "-inf"},
    "reps": 4,
    "master_seed": 5,
}


def test_scenario_continuous_json_with_sentinels():
    cfg = scenario_from_dict(SED_JSON)
    assert cfg.cutoffs.c_s0 == -math.inf
    out = monte_carlo(cfg)
    assert set(out) == {"Contingency"}


@pytest.mark.parametrize("name", ["c_t", "c_s0", "c_s1"])
def test_nan_cutoff_is_a_config_error(name, tmp_path):
    # a NaN cutoff compares false with every ratio, so every replicate would
    # be degenerate (exit 3); it is a config error (exit 2) instead
    with pytest.raises(ConfigError, match="NaN"):
        replace(continuous_cfg("sed"), cutoffs=Cutoffs(**{name: math.nan}))
    text = json.dumps(dict(SED_JSON, cutoffs={name: "nan-literal"})).replace('"nan-literal"', "NaN")
    assert math.isnan(json.loads(text)["cutoffs"][name])
    with pytest.raises(ConfigError, match="NaN"):
        scenario_from_dict(json.loads(text))
    cfg_path = tmp_path / "nan_cutoff.json"
    cfg_path.write_text(text)
    assert cli_main(["simulate", "--config", str(cfg_path)]) == 2
    # the infinite sentinels stay valid
    for sentinel in (math.inf, -math.inf):
        assert getattr(Cutoffs(**{name: sentinel}), name) == sentinel


def test_scenario_without_positive_baseline_is_a_config_error(tmp_path):
    d = {
        "design": "sed",
        "outcome_family": "continuous",
        "generator": {
            "beta_cov1": -1.0,
            "beta_cov2": -1.0,
            "mix": {"p1": 0.05, "p2": 0.05, "p3": 0.8, "p4": 0.1},
        },
        "analyses": ["Contingency"],
        "n_total": 40,
        "reps": 4,
        "master_seed": 5,
    }
    with pytest.raises(ConfigError):
        scenario_from_dict(d)
    cfg_path = tmp_path / "no_baseline.json"
    cfg_path.write_text(json.dumps(d))
    assert cli_main(["simulate", "--config", str(cfg_path)]) == 2


BINARY_JSON = {
    "design": "parallel",
    "outcome_family": "binary",
    "generator": {"p_t": 0.3, "q_t": 0.3, "p_c": 0.5, "q_c": 0.5},
    "analyses": ["MatchedWR", "UnstratUnmatchedWR"],
    "n_total": 50,
    "reps": 6,
    "master_seed": 8,
}


def test_binary_scenario_json_splits_arms():
    cfg = scenario_from_dict(BINARY_JSON)
    assert cfg.generator.n1 == 25 and cfg.generator.n0 == 25
    out = monte_carlo(cfg)
    assert set(out) == {"MatchedWR", "UnstratUnmatchedWR"}


def test_scenario_json_parses_to_the_hand_built_config():
    assert scenario_from_dict(SCENARIO_JSON) == ScenarioConfig(
        design="parallel",
        outcome_family="survival",
        generator=SurvivalGenConfig(beta_t=-0.5108256237659907, beta_in=0.0, n=60),
        analyses=("Cox", "StratUnmatchedWR"),
        n_total=60,
        alpha=0.05,
        reps=12,
        master_seed=99,
    )
    assert scenario_from_dict(SED_JSON) == ScenarioConfig(
        design="sed",
        outcome_family="continuous",
        generator=ContinuousGenConfig(beta_p=(-1.5, -1.5, -1.5), beta_t1=-2.0, n=40,
                                      mix=SubpopMix(0.05, 0.05, 0.8, 0.1)),
        analyses=("Contingency",),
        n_total=40,
        cutoffs=Cutoffs(c_t=0.8, c_s0=-math.inf, c_s1=-math.inf),
        reps=4,
        master_seed=5,
    )
    assert scenario_from_dict(BINARY_JSON) == ScenarioConfig(
        design="parallel",
        outcome_family="binary",
        generator=BinaryGenConfig(p_t=0.3, q_t=0.3, p_c=0.5, q_c=0.5, n1=25, n0=25),
        analyses=("MatchedWR", "UnstratUnmatchedWR"),
        n_total=50,
        reps=6,
        master_seed=8,
    )


def with_value(d, path, value):
    """A deep copy of scenario ``d`` with the key at the dotted ``path`` set to ``value``."""
    d = json.loads(json.dumps(d))
    *parents, last = path.split(".")
    target = d
    for key in parents:
        target = target[key]
    target[last] = value
    return d


# (scenario, dotted key, value): each is a config error naming the key
MALFORMED = [
    (SCENARIO_JSON, "n_total", "abc"),
    (SCENARIO_JSON, "n_total", "60"),
    (SCENARIO_JSON, "n_total", 60.7),
    (SCENARIO_JSON, "reps", 2.9),
    (SCENARIO_JSON, "alpha", "x"),
    (SCENARIO_JSON, "alpha", 10**400),
    (SCENARIO_JSON, "generator.beta_t", "x"),
    (SED_JSON, "generator.mix", 3),
    (SED_JSON, "cutoffs", [1]),
    (SED_JSON, "cutoffs.c_t", None),
    (SED_JSON, "generator.beta_p", [-1.5, -1.5]),
    (SCENARIO_JSON, "analyses", "Cox"),
]


def case_id(path, value):
    text = repr(value)
    return f"{path}={text}" if len(text) < 30 else f"{path}=<{len(text)} digits>"


@pytest.mark.parametrize("base,path,value", MALFORMED,
                         ids=[case_id(path, value) for _, path, value in MALFORMED])
def test_malformed_scenario_is_a_config_error(base, path, value, tmp_path):
    d = with_value(base, path, value)
    with pytest.raises(ConfigError, match=re.escape(path)):
        scenario_from_dict(d)
    cfg_path = tmp_path / "malformed.json"
    cfg_path.write_text(json.dumps(d))
    assert cli_main(["simulate", "--config", str(cfg_path)]) == 2


def test_inputs_that_failed_mid_run_are_config_errors(tmp_path):
    # a negative seed reached SeedSequence and a NaN coefficient reached the
    # cohort's positive-time check; both are refused when the config is built
    with pytest.raises(ConfigError, match="master_seed"):
        replace(survival_cfg(), master_seed=-1)
    with pytest.raises(ConfigError, match="finite"):
        replace(survival_cfg(), generator=SurvivalGenConfig(beta_t=math.nan, n=60))
    for path, value in (("master_seed", -1), ("generator.beta_t", math.nan)):
        d = with_value(SCENARIO_JSON, path, value)
        with pytest.raises(ConfigError):
            scenario_from_dict(d)
        cfg_path = tmp_path / "crash.json"
        cfg_path.write_text(json.dumps(d))
        assert cli_main(["simulate", "--config", str(cfg_path)]) == 2


# ---------------------------------------------------------------------------
# CLI


def test_cli_power_matched(capsys):
    code = cli_main(
        [
            "power", "--matched", "--pt", "0.3", "--qt", "0.3",
            "--pc", "0.5", "--qc", "0.5",
        ]
    )
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    assert set(record) == {"n", "N", "p_w", "p_l", "p_tie", "g", "C0", "C1"}
    assert record["n"] > 0 and record["N"] >= record["n"]


def test_cli_power_unmatched(capsys):
    code = cli_main(
        [
            "power", "--unmatched", "--pt", "0.3", "--qt", "0.3",
            "--pc", "0.5", "--qc", "0.5",
        ]
    )
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    assert record["g"] > 1.0
    assert record["N"] % 2 == 0
    probs = matched_win_probs(0.3, 0.3, 0.5, 0.5)
    assert (record["p_w"], record["p_l"], record["p_tie"]) == (probs.p_w, probs.p_l, probs.p_tie)


def test_cli_simulate_and_gen(tmp_path, capsys):
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(SCENARIO_JSON))
    out_csv = tmp_path / "summary.csv"
    code = cli_main(["simulate", "--config", str(cfg_path), "--csv", str(out_csv)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"Cox", "StratUnmatchedWR"}
    assert set(payload["Cox"]) == {
        "rejection_rate", "mean_estimate", "mean_ci", "reps_used", "degenerate_count"
    }
    assert out_csv.exists()

    cohort_csv = tmp_path / "cohort.csv"
    code = cli_main(["gen", "--config", str(cfg_path), "--out", str(cohort_csv)])
    assert code == 0
    assert cohort_csv.read_text().splitlines()[0] == "id,arm,x_cov1,x_cov2,stratum,e_death,e_hosp"


GEN_SCENARIOS = {
    "survival": SCENARIO_JSON,
    "binary": BINARY_JSON,
    "cr": dict(SED_JSON, design="cr"),
    "sed": dict(SED_JSON, cutoffs={"c_t": 0.8, "c_s0": 0.8, "c_s1": 0.9}),
}


@pytest.mark.parametrize("name", sorted(GEN_SCENARIOS))
def test_cli_gen_writes_the_first_replicates_cohort(name, tmp_path, monkeypatch):
    d = dict(GEN_SCENARIOS[name], reps=2)
    analysed = []
    run_analyses = harness._run_analyses

    def capture(cfg, cohort, rng):
        analysed.append(cohort)
        return run_analyses(cfg, cohort, rng)

    monkeypatch.setattr(harness, "_run_analyses", capture)
    monte_carlo(scenario_from_dict(d))
    cohort = analysed[0]
    if name == "sed":
        # two stages: stage-2 rows sit in strata 4..7
        stage2 = cohort.stratum[cohort.stage == 1]
        assert len(stage2) >= 2 and set(stage2) <= {4, 5, 6, 7}
    want = tmp_path / "want.csv"
    cohort_to_csv(cohort, str(want))
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(d))
    got = tmp_path / "got.csv"
    assert cli_main(["gen", "--config", str(cfg_path), "--out", str(got)]) == 0
    assert got.read_bytes() == want.read_bytes()


def test_cli_config_error_exit_code(tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(dict(SCENARIO_JSON, bogus=1)))
    assert cli_main(["simulate", "--config", str(cfg_path)]) == 2


def test_cli_degenerate_exit_code(tmp_path):
    # a two-patient cohort with all ties is degenerate for every replicate
    cfg = {
        "design": "parallel",
        "outcome_family": "binary",
        "generator": {"p_t": 0.0, "q_t": 0.0, "p_c": 0.0, "q_c": 0.0},
        "analyses": ["MatchedWR"],
        "n_total": 4,
        "reps": 3,
        "master_seed": 1,
    }
    cfg_path = tmp_path / "degenerate.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli_main(["simulate", "--config", str(cfg_path)]) == 3
