"""Engine determinism, design degeneracies, config parsing, CLI surface."""

import concurrent.futures
import csv
import json
import math
import pickle
import re
import sys
import warnings
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
from wrtrials.classic_tests import CoxResult, ObrienResult, OrResult
from wrtrials.core import PairingResult
from wrtrials.harness import Cutoffs
from wrtrials.cli import main as cli_main
from wrtrials.power import WinProbs
from wrtrials.presets import CellReport, CheckReport
from wrtrials.wr_tests import WrResult


def survival_cfg(n=60, reps=40, seed=7, **kw):
    return ScenarioConfig(
        design="parallel",
        outcome_family="survival",
        generator=SurvivalGenConfig(**kw),
        analyses=("Cox", "MatchedWR", "StratUnmatchedWR", "UnstratUnmatchedWR", "Obrien"),
        n_total=n,
        reps=reps,
        master_seed=seed,
    )


def continuous_cfg(design, n=60, reps=30, seed=11, c_s0=0.8, c_s1=0.9, beta_t1=-2.0):
    return ScenarioConfig(
        design=design,
        outcome_family="continuous",
        generator=ContinuousGenConfig(beta_t1=beta_t1, mix=SubpopMix(0.05, 0.05, 0.8, 0.1)),
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


def spawned_states(master: int, replicate: int, streams: int) -> np.ndarray:
    """The oracle: the PCG64 seeds of a replicate's streams, as numpy spawns them."""
    children = np.random.SeedSequence(master, spawn_key=(replicate,)).spawn(streams)
    return np.array([child.generate_state(4, np.uint64) for child in children])


@pytest.mark.parametrize("cfg", [survival_cfg(), continuous_cfg("sed")], ids=["survival", "sed"])
def test_trial_index_is_its_replicate_row_and_the_spawned_streams(cfg):
    # run_trial(cfg, i) is replicate i of monte_carlo(cfg): the same trial as
    # row i of the run's states, which are those of numpy's spawned children
    rows = harness._replicate_states(cfg, np.arange(3, dtype=np.uint64))
    for i in (0, 2, 122, 2**32 - 1):
        states = spawned_states(cfg.master_seed, i, 7 if cfg.design == "sed" else 2)
        assert np.array_equal(harness._replicate_states(cfg, i), states)
        if i < len(rows):
            assert np.array_equal(rows[i], states)
        first = run_trial(cfg, i)
        assert repr(run_trial(cfg, states)) == repr(first)
        assert repr(run_trial(cfg, np.int64(i))) == repr(first)
    cohort, rng = harness.trial_cohort(cfg, 2)
    assert repr(harness._run_analyses(cfg, cohort, rng)) == repr(run_trial(cfg, rows[2]))


@pytest.mark.parametrize("master", [0, 1, 20240501, 2**32 - 1, 2**32, 2**64 + 5, 2**127 + 3,
                                    2**128, 2**200 + 7])
@pytest.mark.parametrize("pool_size", [4])  # numpy's default pool, the one a master seed fills
def test_streams_are_the_spawned_children(master, pool_size):
    # the states of replicate i's 2 or 7 streams are those SeedSequence.spawn
    # gives from the master's i-th child, for a master of one word and for
    # one with words beyond the pool
    for cfg, n in ((survival_cfg(seed=master), 2), (continuous_cfg("cr", seed=master), 7)):
        states = harness._replicate_states(cfg, np.arange(5, dtype=np.uint64))
        assert states.shape == (5, n, 4) and states.dtype == np.uint64 and states.flags.c_contiguous
        for i, child in enumerate(np.random.SeedSequence(master, pool_size=pool_size).spawn(5)):
            assert np.array_equal(states[i], [s.generate_state(4, np.uint64) for s in child.spawn(n)])


def test_stream_generator_is_default_rng_of_the_child():
    # a stream's generator, seeded from its states, is default_rng of the
    # spawned child in its state and in what it draws
    cfg = continuous_cfg("sed", seed=20240501)
    states = harness._replicate_states(cfg, np.arange(3, dtype=np.uint64))
    for i, child in enumerate(np.random.SeedSequence(cfg.master_seed).spawn(3)):
        for j, stream in enumerate(child.spawn(7)):
            got, want = harness._rng(states[i, j]), np.random.default_rng(stream)
            assert got.bit_generator.state == want.bit_generator.state
            assert got.random() == want.random()
            assert got.normal() == want.normal()
            assert np.array_equal(got.bit_generator.random_raw(3), want.bit_generator.random_raw(3))
            assert got.bit_generator.state == want.bit_generator.state


def test_negative_or_fractional_seeds_are_refused():
    # a replicate index is one 32-bit word of a spawn key, checked before any
    # hashing; a SeedSequence is not a trial's seed
    cfg = survival_cfg(n=20)
    for seed in (-1, np.int64(-1), 2**32):
        with pytest.raises(ValueError, match=r"non-negative and below 2\*\*32"):
            run_trial(cfg, seed)
    for seed in (1.5, np.random.SeedSequence(3)):
        with pytest.raises(TypeError):
            run_trial(cfg, seed)


def test_malformed_trial_states_are_refused():
    # PCG64 reads a row's four words in place: a short, wide, strided or
    # mistyped array would seed from memory outside it
    cfg = survival_cfg(n=20)
    good = harness._replicate_states(cfg, 0)
    for states in (np.array([1, 2]), good[:1], np.zeros((2, 8), np.uint64)[:, ::2],
                   good.astype(np.int64), harness._replicate_states(continuous_cfg("sed"), 0)):
        with pytest.raises(ValueError, match="C-contiguous uint64 array of shape"):
            run_trial(cfg, states)
    assert repr(run_trial(cfg, good.copy())) == repr(run_trial(cfg, good))


def test_monte_carlo_deterministic():
    cfg = survival_cfg(reps=30)
    assert repr(monte_carlo(cfg)) == repr(monte_carlo(cfg))


def test_monte_carlo_worker_count_irrelevant():
    cfg = survival_cfg(n=40, reps=16)
    assert repr(monte_carlo(cfg, n_jobs=1)) == repr(monte_carlo(cfg, n_jobs=2))


def test_sed_monte_carlo_worker_count_irrelevant():
    # the stream children, built from entropy words, reach the workers pickled
    cfg = continuous_cfg("sed", reps=12)
    assert repr(monte_carlo(cfg, n_jobs=1)) == repr(monte_carlo(cfg, n_jobs=2))


@pytest.mark.parametrize("n_jobs,cpus,reps,started", [
    (2, 4, 16, [2]), (5000, 4, 16, [4]), (8, 64, 3, [3]), (4, None, 16, []), (1, 4, 16, []),
])
def test_monte_carlo_starts_at_most_one_worker_per_cpu_and_replicate(n_jobs, cpus, reps, started,
                                                                     monkeypatch):
    pools = []

    class SerialPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize):
            return map(fn, *iterables)

    # monte_carlo imports the pool class from concurrent.futures when it starts one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
    cfg = survival_cfg(n=40, reps=reps)
    assert repr(monte_carlo(cfg, n_jobs=n_jobs)) == repr(monte_carlo(cfg))
    assert pools == started


# each result record, built with finite values, and its fields in order
_RECORDS = [
    (PairingResult(np.array([[0, 1], [2, 3]]), 1, 0),
     ("pairs", "n_unpaired_treatment", "n_unpaired_control")),
    (WrResult(3, 1, 2, 0.75, 3.0, 1.2, 0.23, 0.5, 18.0, 1),
     ("n_w", "n_l", "n_tie", "p_w", "r_w", "z", "p_value", "ci_low", "ci_high", "dropped_strata")),
    (CoxResult(-0.5, 0.2, -2.5, 0.012, 0.61, 0.41, 0.9, 4),
     ("beta_t_hat", "se", "z", "p_value", "hr", "ci_low", "ci_high", "iterations")),
    (ObrienResult(4.0, (1, 58), 0.05, {0: 30.0, 1: 31.0}), ("f_stat", "df", "p_value", "rank_sums")),
    (OrResult((3, 2, 0, 4), 10.0, 1.6, 1.4, 0.16, True),
     ("table", "or_hat", "se_log", "z", "p_value", "corrected")),
    (harness.TrialRecord(1.5, 1.0, 2.0, 2.1, 0.04, False, "haldane"),
     ("estimate", "ci_low", "ci_high", "z", "p_value", "degenerate", "note")),
    (harness.McSummary(0.25, 1.5, (0.5, 2.0), 40, 2),
     ("rejection_rate", "mean_estimate", "mean_ci", "reps_used", "degenerate_count")),
    (WinProbs(0.4, 0.35, 0.25), ("p_w", "p_l", "p_tie")),
    (CellReport("Cox", "parallel", 100, 0.66, 0.65, 0.05, True),
     ("row", "design", "n", "simulated", "reference", "tol", "required")),
    (CheckReport("power ordering at N=200", True, "Cox=0.920", False), ("label", "ok", "detail", "required")),
]


@pytest.mark.parametrize("record,names", _RECORDS, ids=[type(r).__name__ for r, _ in _RECORDS])
def test_result_records_are_frozen_named_tuples_that_pickle(record, names):
    assert isinstance(record, tuple)
    assert type(record)._fields == names
    with pytest.raises(AttributeError):
        setattr(record, names[0], record[1])
    with pytest.raises(AttributeError):  # no instance dictionary either
        record.extra = 1
    # monte_carlo's workers send their TrialRecords back pickled
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is type(record)
    assert all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b for a, b in zip(back, record))


def test_summary_to_dict_keeps_the_fields_in_order():
    # what simulate prints and writes as CSV, and what the benchmark pins
    d = harness.McSummary(0.25, 1.5, (0.5, 2.0), 40, 2).to_dict()
    assert type(d) is dict
    assert list(d.items()) == [("rejection_rate", 0.25), ("mean_estimate", 1.5), ("mean_ci", (0.5, 2.0)),
                               ("reps_used", 40), ("degenerate_count", 2)]
    assert json.dumps(d) == ('{"rejection_rate": 0.25, "mean_estimate": 1.5, "mean_ci": [0.5, 2.0], '
                             '"reps_used": 40, "degenerate_count": 2}')


@pytest.mark.parametrize("jobs", ["0", "-3"])
@pytest.mark.parametrize("command", ["simulate", "reproduce-table"])
def test_cli_jobs_below_one_is_a_config_error(command, jobs, tmp_path, capsys, monkeypatch):
    # both ran serially, as if --jobs 1 had been given
    def no_trial(*args):
        raise AssertionError("a replicate ran")

    monkeypatch.setattr(harness, "run_trial", no_trial)
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(SCENARIO_JSON))
    head = ["simulate", "--config", str(cfg_path)] if command == "simulate" else [
        "reproduce-table", "t6", "--reps", "2"]
    assert cli_main(head + ["--jobs", jobs]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "n_jobs must be at least 1" in err


def test_monte_carlo_means_leave_out_non_finite_values(monkeypatch):
    # (estimate, ci_low, ci_high, p_value) per replicate; None is degenerate
    inf, nan = math.inf, math.nan
    matched = [(2.0, 1.0, 4.0, 0.01), (inf, 1.5, inf, 0.001), (nan, nan, nan, 0.5),
               (-inf, -inf, 3.0, 0.04), None, (4.0, 2.0, 6.0, 0.2)]
    cox = [(inf, nan, inf, 0.01), (nan, -inf, nan, 0.3), None, (-inf, nan, inf, 0.6),
           (inf, inf, -inf, 0.02), (nan, nan, nan, 0.9)]
    replicates = iter(range(6))

    def stub(cfg, seed):
        i = next(replicates)
        return {name: harness.TrialRecord(degenerate=True) if rows[i] is None
                else harness.TrialRecord(*rows[i][:3], p_value=rows[i][3])
                for name, rows in (("MatchedWR", matched), ("Cox", cox))}

    monkeypatch.setattr(harness, "run_trial", stub)
    cfg = replace(survival_cfg(reps=6), analyses=("MatchedWR", "Cox"))
    out = monte_carlo(cfg)
    # a non-finite value still counts as a replicate and in the rejection rate
    assert (out["MatchedWR"].reps_used, out["MatchedWR"].degenerate_count) == (5, 1)
    assert out["MatchedWR"].rejection_rate == 3 / 5
    assert out["MatchedWR"].mean_estimate == 3.0
    assert out["MatchedWR"].mean_ci == (1.5, 13.0 / 3.0)
    # an analysis with no finite value gets NaN means
    assert (out["Cox"].reps_used, out["Cox"].rejection_rate) == (5, 2 / 5)
    assert math.isnan(out["Cox"].mean_estimate)
    assert all(math.isnan(v) for v in out["Cox"].mean_ci)


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
    # c_s0 = +inf excludes every enrollee, so the lead-in stops at its cap,
    # and its stream ends where 400 placebo draws for batches of 8 leave it
    cfg = continuous_cfg("sed", n=8, c_s0=math.inf)
    leadin_rngs = []
    leadin = harness._leadin_frame

    def recording(gen, c_s0, n, patients_rng, leadin_rng):
        leadin_rngs.append(leadin_rng)
        return leadin(gen, c_s0, n, patients_rng, leadin_rng)

    monkeypatch.setattr(harness, "_leadin_frame", recording)
    records = run_trial(cfg, 3)
    want = harness._rng(harness._replicate_states(cfg, 3)[1])
    for _ in range(400):
        want.normal(0.0, cfg.generator.noise_sd, (8, 3))
    [got] = leadin_rngs
    assert got.bit_generator.state == want.bit_generator.state
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
            generator=ContinuousGenConfig(mix=SubpopMix(0.25, 0.25, 0.25, 0.25)),
            analyses=("Cox",),
            n_total=40,
        )


def test_design_family_compatibility():
    with pytest.raises(ConfigError):
        ScenarioConfig(
            design="sed",
            outcome_family="survival",
            generator=SurvivalGenConfig(),
            analyses=("Cox",),
            n_total=40,
        )


@pytest.mark.parametrize("family,generator", [
    ("binary", SurvivalGenConfig()),
    ("survival", BinaryGenConfig(p_t=0.2, q_t=0.3, p_c=0.3, q_c=0.4, n1=20, n0=20)),
    ("survival", ContinuousGenConfig(mix=SubpopMix(0.25, 0.25, 0.25, 0.25))),
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
    binary = BinaryGenConfig(p_t=0.2, q_t=0.3, p_c=0.3, q_c=0.4, n1=30, n0=20)
    with pytest.raises(ConfigError, match="n_total"):
        ScenarioConfig("parallel", "binary", binary, ("MatchedWR",), n_total=60)
    # unequal arms are fine as long as they sum to n_total
    assert ScenarioConfig("parallel", "binary", binary, ("MatchedWR",), n_total=50).n_total == 50


def test_scenario_from_dict_defaults_binary_arms_from_n_total():
    cfg = scenario_from_dict({"design": "parallel", "outcome_family": "binary",
                              "generator": {"p_t": 0.2, "q_t": 0.3, "p_c": 0.3, "q_c": 0.4},
                              "analyses": ["MatchedWR"], "n_total": 51})
    assert (cfg.generator.n1, cfg.generator.n0) == (25, 26)


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
    # and a required key left out
    for key in ("design", "n_total"):
        with pytest.raises(ConfigError, match=rf"missing scenario keys: \['{key}'\]"):
            scenario_from_dict({k: v for k, v in SCENARIO_JSON.items() if k != key})
    with pytest.raises(ConfigError, match=r"missing generator keys: \['p_t'\]"):
        scenario_from_dict(dict(BINARY_JSON, generator={"q_t": 0.3, "p_c": 0.5, "q_c": 0.5}))
    # the cohort size is n_total alone
    for scenario in (SCENARIO_JSON, SED_JSON):
        generator = dict(scenario["generator"], n=scenario["n_total"])
        with pytest.raises(ConfigError, match="unknown generator keys"):
            scenario_from_dict(dict(scenario, generator=generator))


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
        generator=SurvivalGenConfig(beta_t=-0.5108256237659907, beta_in=0.0),
        analyses=("Cox", "StratUnmatchedWR"),
        n_total=60,
        alpha=0.05,
        reps=12,
        master_seed=99,
    )
    assert scenario_from_dict(SED_JSON) == ScenarioConfig(
        design="sed",
        outcome_family="continuous",
        generator=ContinuousGenConfig(beta_p=(-1.5, -1.5, -1.5), beta_t1=-2.0,
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
    """A deep copy of scenario ``d`` with the key at the dotted ``path`` set to ``value``.

    A missing parent object is added.
    """
    d = json.loads(json.dumps(d))
    *parents, last = path.split(".")
    target = d
    for key in parents:
        target = target.setdefault(key, {})
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
        replace(survival_cfg(), generator=SurvivalGenConfig(beta_t=math.nan))
    for path, value in (("master_seed", -1), ("generator.beta_t", math.nan)):
        d = with_value(SCENARIO_JSON, path, value)
        with pytest.raises(ConfigError):
            scenario_from_dict(d)
        cfg_path = tmp_path / "crash.json"
        cfg_path.write_text(json.dumps(d))
        assert cli_main(["simulate", "--config", str(cfg_path)]) == 2


@pytest.mark.parametrize("name,value", [("n_total", 60.5), ("reps", 2.5), ("master_seed", 1.5),
                                        ("n_total", True), ("reps", True), ("master_seed", False)])
def test_non_integer_sizes_and_seeds_are_config_errors(name, value):
    # reps=2.5 ran 3 replicates, n_total=60.5 died inside numpy and
    # master_seed=1.5 when the run started
    with pytest.raises(ConfigError, match=f"{name} must be an integer"):
        replace(survival_cfg(), **{name: value})


def test_numpy_integer_sizes_and_seeds_are_python_ints():
    cfg = replace(survival_cfg(n=20, reps=3), n_total=np.int64(20), reps=np.int64(3),
                  master_seed=np.int64(7))
    assert all(type(v) is int for v in (cfg.n_total, cfg.reps, cfg.master_seed))
    assert repr(monte_carlo(cfg)) == repr(monte_carlo(survival_cfg(n=20, reps=3)))


@pytest.mark.parametrize("n_jobs", [1.5, True])
def test_non_integer_jobs_is_a_config_error(n_jobs):
    # 1.5 raised TypeError from the worker pool
    with pytest.raises(ConfigError, match="n_jobs must be an integer"):
        monte_carlo(survival_cfg(reps=2), n_jobs=n_jobs)


@pytest.mark.parametrize("path,value", [
    ("generator.beta_t1", math.nan),
    ("generator.beta_in2", math.nan),
    ("generator.beta_p", [math.inf, -1.5, -1.5]),
    ("generator.mix.p1", math.nan),
])
def test_non_finite_continuous_json_is_a_config_error(path, value, tmp_path, capsys):
    # json.load accepts the NaN and Infinity literals; such a scenario used to
    # run and exit 0
    text = json.dumps(with_value(SED_JSON, path, value))
    assert "NaN" in text or "Infinity" in text
    with pytest.raises(ConfigError, match="finite"):
        scenario_from_dict(json.loads(text))
    cfg_path = tmp_path / "non_finite.json"
    cfg_path.write_text(text)
    assert cli_main(["simulate", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().out == ""


CR_JSON = dict(SED_JSON, design="cr")
CR_OBRIEN_JSON = dict(CR_JSON, analyses=["Obrien"])
# the only positive covariate pattern has baseline 1e-310
SUBNORMAL_BASELINE = {"generator.beta_cov1": 1e-310, "generator.beta_cov2": -5.0}


@pytest.mark.parametrize("base,changes,match", [
    # exp(-lp) underflows to 0 or the times overflow to inf
    (SCENARIO_JSON, {"generator.beta_t": 800}, "700"),
    (SCENARIO_JSON, {"generator.beta_t": -800}, "700"),
    (SCENARIO_JSON, {"generator.beta_dhratio": 1000}, "700"),
    # a baseline or a mean outcome overflows to inf
    (CR_OBRIEN_JSON, {"generator.beta_cov1": 1e308, "generator.beta_cov2": 1e308}, "finite"),
    (CR_OBRIEN_JSON, {"generator.beta_cov2": 1e308, "generator.beta_p": [1e308, -1.5, -1.5]},
     "finite"),
    # the noise draw overflows: 12.23 * noise_sd bounds its magnitude
    (CR_OBRIEN_JSON, {"generator.noise_sd": 1e308}, "finite"),
    # only the survival rule reads a priority
    (BINARY_JSON, {"win_priority": "hosp"}, "win_priority of the binary family"),
    (SED_JSON, {"win_priority": "hosp"}, "win_priority of the continuous family"),
    # an outcome over a positive but subnormal baseline overflows y / y_base
    (SED_JSON, SUBNORMAL_BASELINE, "ratios to the smallest positive baseline"),
    (CR_JSON, SUBNORMAL_BASELINE, "ratios to the smallest positive baseline"),
    # a second listing paired every replicate again and reported that pairing
    (SCENARIO_JSON, {"analyses": ["MatchedWR", "MatchedWR"]}, "'MatchedWR' is listed more than once"),
    # only the continuous family reads the cutoffs
    (SCENARIO_JSON, {"cutoffs.c_t": 0.1, "cutoffs.c_s0": "inf"}, "survival family reads no cutoffs"),
    (BINARY_JSON, {"cutoffs.c_s1": 0.5}, "binary family reads no cutoffs"),
    # arm_sizes floored n_total * allocation in float64, or the binomial draw overflowed
    (SCENARIO_JSON, {"n_total": 10**400}, "n_total must lie in"),
    (BINARY_JSON, {"n_total": 10**400}, "n_total must lie in"),
    (BINARY_JSON, {"generator.n1": 10**400, "generator.n0": 10**400, "n_total": 2 * 10**400},
     "n_total must lie in"),
    (CR_OBRIEN_JSON, {"n_total": 10**400}, "n_total must lie in"),
    # the scenario's own refusals, which no other case reached
    (SCENARIO_JSON, {"outcome_family": "ordinal"}, "unknown outcome family 'ordinal'"),
    (SCENARIO_JSON, {"analyses": ["Cox", "LogRank"]}, "unknown analysis 'LogRank'"),
    (SCENARIO_JSON, {"analyses": []}, "at least one analysis is required"),
    (SCENARIO_JSON, {"alpha": 0.0}, r"alpha must lie in \(0, 1\]"),
    (SCENARIO_JSON, {"alpha": 1.5}, r"alpha must lie in \(0, 1\]"),
    (SCENARIO_JSON, {"reps": 0}, "reps must be positive"),
    (BINARY_JSON, {"generator.n1": 0, "generator.n0": 50}, "arm sizes must be positive"),
], ids=["beta_t=800", "beta_t=-800", "beta_dhratio=1000", "baseline", "mean outcome",
        "noise_sd", "binary hosp", "continuous hosp", "sed subnormal baseline",
        "cr subnormal baseline", "analysis listed twice", "survival cutoffs", "binary cutoffs",
        "survival n_total", "binary n_total", "binary arms", "continuous n_total",
        "unknown family", "unknown analysis", "no analyses", "alpha=0", "alpha=1.5", "reps=0",
        "binary n1=0"])
def test_inputs_that_crashed_or_were_ignored_are_config_errors(base, changes, match, tmp_path,
                                                               capsys):
    # each ended in a traceback mid-run, or ran as if it were not given
    cfg = scenario_from_dict(base)
    generator = {p.split(".")[1]: v for p, v in changes.items() if p.startswith("generator.")}
    cutoffs = {p.split(".")[1]: math.inf if v == "inf" else v
               for p, v in changes.items() if p.startswith("cutoffs.")}
    scenario = {p: tuple(v) if isinstance(v, list) else v
                for p, v in changes.items() if p not in generator and "." not in p}
    if "beta_p" in generator:
        generator["beta_p"] = tuple(generator["beta_p"])
    with pytest.raises(ConfigError, match=match):
        replace(cfg, generator=replace(cfg.generator, **generator),
                cutoffs=replace(cfg.cutoffs, **cutoffs), **scenario)
    d = base
    for path, value in changes.items():
        d = with_value(d, path, value)
    with pytest.raises(ConfigError, match=match):
        scenario_from_dict(d)
    cfg_path = tmp_path / "refused.json"
    cfg_path.write_text(json.dumps(d))
    assert cli_main(["simulate", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().out == ""


def test_n_total_bound_is_the_last_size_a_float_holds_exactly():
    cfg = scenario_from_dict(SCENARIO_JSON)
    assert replace(cfg, n_total=2**53).n_total == 2**53
    assert float(2**53 + 1) == 2**53  # the first integer a float64 rounds
    with pytest.raises(ConfigError, match="n_total must lie in"):
        replace(cfg, n_total=2**53 + 1)


def test_noise_sd_below_the_overflow_bound_runs(tmp_path, capsys):
    # 12.23 * 1e306 is finite, so no noise draw can overflow
    cfg_path = tmp_path / "noisy.json"
    cfg_path.write_text(json.dumps(with_value(CR_OBRIEN_JSON, "generator.noise_sd", 1e306)))
    assert cli_main(["simulate", "--config", str(cfg_path)]) == 0
    assert json.loads(capsys.readouterr().out)["Obrien"]["reps_used"] == CR_OBRIEN_JSON["reps"]


@pytest.mark.parametrize("base", [SED_JSON, CR_JSON], ids=["sed", "cr"])
def test_baseline_just_inside_the_ratio_bound_runs_without_a_warning(base, tmp_path, capsys):
    # SED_JSON's outcomes are at most 5 + 2 + 12.23 * 1 in magnitude, with
    # 2**-50 of headroom for rounding; over the smallest positive baseline,
    # beta_cov1, that ratio must stay below the largest double
    bound = (5.0 + 2.0 + 12.23) * (1 + 2**-50) / sys.float_info.max
    d = with_value(base, "generator.beta_cov2", -5.0)
    with pytest.raises(ConfigError, match="ratios"):
        scenario_from_dict(with_value(d, "generator.beta_cov1", bound * (1 - 1e-12)))
    cfg_path = tmp_path / "inside.json"
    cfg_path.write_text(json.dumps(with_value(d, "generator.beta_cov1", bound * (1 + 1e-12))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli_main(["simulate", "--config", str(cfg_path)]) == 0
    assert json.loads(capsys.readouterr().out)["Contingency"]["reps_used"] == base["reps"]


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
    out_csv.write_text("an older file, longer than the summary\n" * 20)  # rewritten whole
    code = cli_main(["simulate", "--config", str(cfg_path), "--csv", str(out_csv)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"Cox", "StratUnmatchedWR"}
    assert set(payload["Cox"]) == {
        "rejection_rate", "mean_estimate", "mean_ci", "reps_used", "degenerate_count"
    }
    # the CSV holds the printed summaries: McSummary's fields, mean_ci split in two
    lines = out_csv.read_text().splitlines()
    assert lines[0] == ("analysis,rejection_rate,mean_estimate,mean_ci_low,mean_ci_high,"
                        "reps_used,degenerate_count")
    rows = list(csv.DictReader(lines))
    assert [row["analysis"] for row in rows] == list(payload)
    for row in rows:
        s = payload[row["analysis"]]
        want = dict(s, mean_ci_low=s["mean_ci"][0], mean_ci_high=s["mean_ci"][1])
        assert all(row[k] == str(want[k]) for k in lines[0].split(",")[1:])

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
        assert len(cohort) == d["n_total"] + len(stage2)
    want = tmp_path / "want.csv"
    cohort_to_csv(cohort, str(want))
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(d))
    got = tmp_path / "got.csv"
    assert cli_main(["gen", "--config", str(cfg_path), "--out", str(got)]) == 0
    assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("argv", [
    ["simulate", "--config", "{dir}"],
    ["simulate", "--config", "{cfg}", "--csv", "{dir}"],
    ["gen", "--config", "{cfg}", "--out", "{dir}"],
], ids=["config", "csv", "out"])
def test_cli_directory_path_is_a_config_error(argv, tmp_path, capsys):
    # a directory raises IsADirectoryError, an OSError but no FileNotFoundError
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(dict(SCENARIO_JSON, reps=2)))
    argv = [a.format(dir=tmp_path, cfg=cfg_path) for a in argv]
    assert cli_main(argv) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "gen"])
def test_cli_config_that_is_not_text_is_a_config_error(command, tmp_path, capsys):
    # a UTF-16 byte-order mark does not decode as UTF-8: a UnicodeDecodeError, no OSError
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_bytes(b"\xff\xfe" + json.dumps(SCENARIO_JSON).encode("utf-16-le"))
    extra = ["--out", str(tmp_path / "cohort.csv")] if command == "gen" else []
    assert cli_main([command, "--config", str(cfg_path), *extra]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "config error" in err
    assert not (tmp_path / "cohort.csv").exists()


@pytest.mark.parametrize("command", ["simulate", "reproduce-table"])
@pytest.mark.parametrize("where", ["directory", "missing folder"])
def test_cli_unwritable_csv_is_refused_before_the_run(command, where, tmp_path, capsys,
                                                       monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("monte_carlo ran before the CSV path was checked")

    from wrtrials import cli, presets
    monkeypatch.setattr(cli, "monte_carlo", no_run)
    monkeypatch.setattr(presets, "monte_carlo", no_run)
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(SCENARIO_JSON))
    csv_path = tmp_path if where == "directory" else tmp_path / "missing" / "out.csv"
    head = ["simulate", "--config", str(cfg_path)] if command == "simulate" else [
        "reproduce-table", "t6", "--reps", "2"]
    assert cli_main(head + ["--csv", str(csv_path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "config error" in err


# a binary scenario whose every pair ties: every replicate is degenerate, exit 3
ALL_TIES_JSON = dict(BINARY_JSON, generator={"p_t": 0, "q_t": 0, "p_c": 0, "q_c": 0}, reps=3)


@pytest.mark.parametrize("argv,code", [
    (["reproduce-table", "t4", "--reps", "2", "--jobs", "0"], 2),
    (["reproduce-table", "t4", "--reps", "0"], 2),
    (["reproduce-table", "t4", "--reps", "2", "--seed", "-1"], 2),
    (["simulate", "--config", "{cfg}", "--jobs", "0"], 2),
    (["simulate", "--config", "{cfg}"], 3),
], ids=["table jobs", "table reps", "table seed", "simulate jobs", "simulate degenerate"])
def test_cli_refused_run_leaves_an_existing_csv_as_it_was(argv, code, tmp_path, capsys):
    # the CSV path is opened before the run; a refusal after that must not empty it
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(ALL_TIES_JSON))
    csv_path = tmp_path / "keep.csv"
    csv_path.write_bytes(b"keep\n")
    argv = [a.format(cfg=cfg_path) for a in argv]
    assert cli_main(argv + ["--csv", str(csv_path)]) == code
    assert csv_path.read_bytes() == b"keep\n"
    assert capsys.readouterr().out == ""


def test_cli_config_error_exit_code(tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(dict(SCENARIO_JSON, bogus=1)))
    assert cli_main(["simulate", "--config", str(cfg_path)]) == 2


def test_cli_small_survival_cox_records_singular_fits_as_degenerate(tmp_path, capsys):
    # at N=8 the information matrix of replicates 73 and 95 is singular, and
    # its LinAlgError used to end the run
    d = {"design": "parallel", "outcome_family": "survival", "generator": {},
         "analyses": ["Cox"], "n_total": 8, "reps": 100}
    cfg = scenario_from_dict(d)
    for rep in (73, 95):
        record = run_trial(cfg, rep)["Cox"]
        assert record.degenerate and record.note == "singular information matrix"
    cfg_path = tmp_path / "cox8.json"
    cfg_path.write_text(json.dumps(d))
    assert cli_main(["simulate", "--config", str(cfg_path)]) == 0
    assert json.loads(capsys.readouterr().out)["Cox"]["degenerate_count"] >= 2


@pytest.mark.parametrize("n,reps", [(4, 123), (6, 1352)])
def test_cli_small_survival_cox_warns_nothing(n, reps, tmp_path):
    # the last replicate of each run takes a Newton trial point that numpy
    # warned about: at N=4 exp overflows, at N=6 every exp of a risk set
    # underflows and log(0) is taken; the fit halves both points
    d = {"design": "parallel", "outcome_family": "survival", "generator": {},
         "analyses": ["Cox"], "n_total": n, "reps": reps}
    cfg_path = tmp_path / "cox.json"
    cfg_path.write_text(json.dumps(d))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli_main(["simulate", "--config", str(cfg_path)]) == 0


def test_cli_obrien_on_an_arm_of_one_is_a_config_error(tmp_path, capsys):
    # int(4 * 0.25) = 1 treated patient: obrien_first_event raised ValueError mid-run
    d = {"design": "parallel", "outcome_family": "survival", "generator": {"allocation": 0.25},
         "analyses": ["Obrien"], "n_total": 4}
    with pytest.raises(ConfigError, match="Obrien needs two patients per arm"):
        scenario_from_dict(d)
    scenario_from_dict(dict(d, analyses=["StratUnmatchedWR"]))
    scenario_from_dict(dict(d, n_total=8))
    cfg_path = tmp_path / "obrien.json"
    cfg_path.write_text(json.dumps(d))
    assert cli_main(["simulate", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().out == ""


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
