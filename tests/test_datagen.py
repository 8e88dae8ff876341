"""Generator distributional checks and determinism contracts."""

import csv
import math

import numpy as np
import pytest
from scipy.stats import kstest

from wrtrials import (
    Arm,
    BinaryGenConfig,
    ConfigError,
    ContinuousGenConfig,
    Subpop,
    SubpopMix,
    SurvivalGenConfig,
    cohort_to_csv,
    cox_fit,
    gen_binary_cohort,
    gen_continuous_cohort,
    gen_survival_cohort,
)
from wrtrials.datagen import draw_continuous_patients, draw_continuous_response


def test_same_seed_same_cohort():
    cfg = SurvivalGenConfig(beta_t=math.log(0.7), n=50)
    a = gen_survival_cohort(cfg, np.random.default_rng(123))
    b = gen_survival_cohort(cfg, np.random.default_rng(123))
    assert list(a) == list(b)


def test_all_times_positive_and_allocation_exact():
    cfg = SurvivalGenConfig(n=101, allocation=0.5)
    cohort = gen_survival_cohort(cfg, np.random.default_rng(1))
    assert np.all(cohort.e_death > 0) and np.all(cohort.e_hosp > 0)
    assert int((cohort.arm == Arm.TREATMENT).sum()) == 50


def test_null_first_event_is_rate_two_exponential():
    # with every coefficient zero both components are unit exponentials, so
    # the first event is exponential with rate 2
    cfg = SurvivalGenConfig(n=10000)
    cohort = gen_survival_cohort(cfg, np.random.default_rng(2024))
    mins = np.minimum(cohort.e_death, cohort.e_hosp)
    stat = kstest(mins, "expon", args=(0, 0.5)).statistic
    assert stat < 1.63 / math.sqrt(len(mins))  # 1% critical value


def test_null_arms_exchangeable():
    # under no effect, a two-sample location test on first-event times
    # rejects at about its nominal level across replications
    rejections = 0
    reps = 200
    for s in range(reps):
        cfg = SurvivalGenConfig(n=80)
        cohort = gen_survival_cohort(cfg, np.random.default_rng(5000 + s))
        mins = np.minimum(cohort.e_death, cohort.e_hosp)
        a, b = mins[cohort.arm == 1], mins[cohort.arm == 0]
        t = (a.mean() - b.mean()) / math.sqrt(a.var() / len(a) + b.var() / len(b))
        rejections += abs(t) > 1.96
    assert rejections / reps < 0.12


def test_survival_generator_hits_hazard_ratio_target():
    cfg = SurvivalGenConfig(beta_t=math.log(0.6), beta_in=0.0, n=6000)
    cohort = gen_survival_cohort(cfg, np.random.default_rng(77))
    res = cox_fit(cohort)
    assert res.hr == pytest.approx(0.6, abs=0.04)


def test_unit_time_identity():
    # -log(e^-1) with all coefficients zero is exactly 1
    assert -math.log(math.exp(-1.0)) * math.exp(0.0) == pytest.approx(1.0)


def test_binary_all_zero_rates():
    cfg = BinaryGenConfig(0.0, 0.0, 0.0, 0.0, n1=10, n0=10)
    cohort = gen_binary_cohort(cfg, np.random.default_rng(0))
    assert not cohort.y_death.any() and not cohort.x_hosp.any()


def test_binary_certain_death_in_treatment():
    cfg = BinaryGenConfig(1.0, 0.3, 0.2, 0.2, n1=25, n0=25)
    cohort = gen_binary_cohort(cfg, np.random.default_rng(0))
    assert np.all(cohort.y_death[cohort.arm == Arm.TREATMENT] == 1)


def test_binary_rates_recovered():
    cfg = BinaryGenConfig(0.5, 0.5, 0.5, 0.5, n1=20000, n0=20000)
    cohort = gen_binary_cohort(cfg, np.random.default_rng(41))
    t = cohort.arm == Arm.TREATMENT
    c = cohort.arm == Arm.CONTROL
    assert np.mean(cohort.y_death[t]) == pytest.approx(0.5, abs=0.01)
    assert np.mean(cohort.x_hosp[t]) == pytest.approx(0.5, abs=0.01)
    assert np.mean(cohort.y_death[c]) == pytest.approx(0.5, abs=0.01)
    assert np.mean(cohort.x_hosp[c]) == pytest.approx(0.5, abs=0.01)


def test_mix_validation():
    with pytest.raises(ConfigError):
        SubpopMix(0.5, 0.5, 0.5, 0.5)
    with pytest.raises(ConfigError):
        SubpopMix(-0.1, 0.5, 0.5, 0.1)


def test_subpop_frequencies_follow_mix():
    mix = SubpopMix(0.05, 0.05, 0.8, 0.1)
    cfg = ContinuousGenConfig(n=10000)
    cohort, labels = gen_continuous_cohort(cfg, mix, np.random.default_rng(9))
    assert len(labels) == len(cohort)
    counts = {s: 0 for s in Subpop}
    for label in labels:
        counts[Subpop(label)] += 1
    for s, target in zip(Subpop, (0.05, 0.05, 0.8, 0.1)):
        assert counts[s] / len(cohort) == pytest.approx(target, abs=0.02)


def test_baseline_always_positive_and_effect_applied():
    cfg = ContinuousGenConfig(beta_t1=-2.0, beta_cov1=5.0, beta_cov2=5.0, n=500)
    mix = SubpopMix(0.0, 0.0, 1.0, 0.0)  # every patient in the target class
    frame = draw_continuous_patients(cfg, mix, np.random.default_rng(3))
    assert np.all(frame.y_base > 0)
    assert set(np.unique(frame.y_base)) <= {5.0, 10.0}
    # noise-free check of the effect arithmetic
    quiet = ContinuousGenConfig(beta_t1=-2.0, beta_cov1=5.0, beta_cov2=5.0,
                                noise_sd=1e-12, n=500)
    y_drug = draw_continuous_response(quiet, frame, np.ones(500, dtype=bool),
                                      np.random.default_rng(4))
    assert np.allclose(y_drug, frame.y_base[:, None] - 2.0, atol=1e-9)
    y_placebo = draw_continuous_response(quiet, frame, np.zeros(500, dtype=bool),
                                         np.random.default_rng(5))
    assert np.allclose(y_placebo, frame.y_base[:, None] - 1.5, atol=1e-9)


def test_equal_component_effects_align():
    cfg = ContinuousGenConfig(beta_t1=-2.0, beta_in2=0.0, beta_in3=0.0)
    assert cfg.beta_t == (-2.0, -2.0, -2.0)
    shifted = ContinuousGenConfig(beta_t1=-2.0, beta_in2=0.5, beta_in3=0.25)
    assert shifted.beta_t == (-2.0, -1.5, -1.75)


def test_null_effects_make_arms_identical_in_law():
    # when drug and placebo effects coincide, the administration flag must
    # not matter for any label
    cfg = ContinuousGenConfig(beta_p=(-1.5, -1.5, -1.5), beta_t1=-1.5, n=2000)
    mix = SubpopMix(0.05, 0.05, 0.8, 0.1)
    frame = draw_continuous_patients(cfg, mix, np.random.default_rng(6))
    y_drug = draw_continuous_response(cfg, frame, np.ones(2000, dtype=bool),
                                      np.random.default_rng(7))
    y_plac = draw_continuous_response(cfg, frame, np.zeros(2000, dtype=bool),
                                      np.random.default_rng(7))
    assert np.array_equal(y_drug, y_plac)


def test_csv_export_roundtrip(tmp_path):
    cfg = SurvivalGenConfig(n=20)
    cohort = gen_survival_cohort(cfg, np.random.default_rng(12))
    path = tmp_path / "cohort.csv"
    cohort_to_csv(cohort, str(path))
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["id", "arm", "x_cov1", "x_cov2", "stratum", "e_death", "e_hosp"]
    assert len(rows) == 21
    assert rows[4][0] == "3"
    assert float(rows[4][5]) == cohort.e_death[3]


def test_config_validation():
    with pytest.raises(ConfigError):
        SurvivalGenConfig(n=1)
    with pytest.raises(ConfigError):
        SurvivalGenConfig(n=10, allocation=1.0)
    with pytest.raises(ConfigError):
        BinaryGenConfig(1.5, 0.5, 0.5, 0.5, 10, 10)
    with pytest.raises(ConfigError):
        ContinuousGenConfig(noise_sd=0.0)
