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
    DegenerateResultError,
    Subpop,
    SubpopMix,
    SurvivalGenConfig,
    cohort_to_csv,
    cox_fit,
    gen_binary_cohort,
    gen_continuous_cohort,
    gen_survival_cohort,
)
from wrtrials import harness
from wrtrials.datagen import ContinuousFrame, draw_continuous_patients, draw_continuous_response


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


def test_continuous_frame_take_and_concat_keep_rows_together():
    cfg = ContinuousGenConfig(n=30)
    frame = draw_continuous_patients(cfg, SubpopMix(0.25, 0.25, 0.25, 0.25), np.random.default_rng(9))
    rows = np.array([4, 0, 29, 4])
    mask = frame.x1 == 1
    for sub, index in [(frame.take(rows), rows), (frame.take(mask), np.flatnonzero(mask)),
                       (frame.take(slice(7)), np.arange(7))]:
        for name in ("x1", "x2", "y_base", "subpop"):
            assert np.array_equal(getattr(sub, name), getattr(frame, name)[index])
    joined = ContinuousFrame.concat([frame.take(slice(10)), frame.take(slice(10, 30))])
    for name in ("x1", "x2", "y_base", "subpop"):
        assert np.array_equal(getattr(joined, name), getattr(frame, name))


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
        SurvivalGenConfig(n=4, allocation=0.1)  # int(0.4) = 0 treatment slots
    SurvivalGenConfig(n=10, allocation=0.1)  # one treatment slot
    with pytest.raises(ConfigError):
        BinaryGenConfig(1.5, 0.5, 0.5, 0.5, 10, 10)
    with pytest.raises(ConfigError):
        ContinuousGenConfig(noise_sd=0.0)


@pytest.mark.parametrize("beta_cov", [(-1.0, -1.0), (0.0, 0.0), (0.0, -1.0), (math.nan, 5.0),
                                      (5.0, math.inf)])
def test_continuous_config_rejects_covariates_without_positive_baseline(beta_cov):
    # the patient draw redraws covariates until the baseline is positive, so
    # a config without a positive pattern (or with a non-finite coefficient)
    # would loop forever
    with pytest.raises(ConfigError):
        ContinuousGenConfig(beta_cov1=beta_cov[0], beta_cov2=beta_cov[1])


@pytest.mark.parametrize("beta_cov", [(5.0, -3.0), (-1.0, 2.0), (-1.0, 1.5), (0.5, 0.5)])
def test_continuous_config_accepts_a_positive_pattern(beta_cov):
    cfg = ContinuousGenConfig(beta_cov1=beta_cov[0], beta_cov2=beta_cov[1], n=50)
    frame = draw_continuous_patients(cfg, SubpopMix(0.25, 0.25, 0.25, 0.25), np.random.default_rng(1))
    assert np.all(frame.y_base > 0)


# ---------------------------------------------------------------------------
# the RNG stream contract: the patient draw, the outcome draw and the SED
# lead-in against the per-call forms they replaced, value for value and
# generator state for generator state


def oracle_draw_continuous_patients(cfg, mix, rng, n):
    """x1 and x2 drawn by separate calls; every round re-tests all n rows."""
    x1 = rng.integers(0, 2, n)
    x2 = rng.integers(0, 2, n)
    y_base = cfg.beta_cov1 * x1 + cfg.beta_cov2 * x2
    bad = ~(y_base > 0)
    while np.any(bad):
        k = int(bad.sum())
        x1[bad] = rng.integers(0, 2, k)
        x2[bad] = rng.integers(0, 2, k)
        y_base = cfg.beta_cov1 * x1 + cfg.beta_cov2 * x2
        bad = ~(y_base > 0)
    subpop = rng.choice(np.array([int(s) for s in Subpop]), size=n, p=mix.as_array())
    return ContinuousFrame(x1=x1, x2=x2, y_base=y_base.astype(float), subpop=subpop)


def oracle_draw_continuous_response(cfg, frame, on_drug, rng):
    """The effect tiled to (n, 3), then overwritten on target-class drug rows."""
    n = len(frame.y_base)
    eps = rng.normal(0.0, cfg.noise_sd, size=(n, 3))
    effect = np.tile(np.asarray(cfg.beta_p, dtype=float), (n, 1))
    target = on_drug & (frame.subpop == int(Subpop.DRUG_ONLY))
    effect[target] = np.asarray(cfg.beta_t, dtype=float)
    return frame.y_base[:, None] + effect + eps


def oracle_leadin_frame(gen, mix, c_s0, n, patients_rng, leadin_rng):
    """Whole batches kept and concatenated, then cut to n; None at the batch cap."""
    kept = []
    kept_count = 0
    for _ in range(harness._LEADIN_MAX_BATCHES):
        batch = oracle_draw_continuous_patients(gen, mix, patients_rng, n)
        y_lead = oracle_draw_continuous_response(gen, batch, np.zeros(n, dtype=bool), leadin_rng)
        keep = np.all(y_lead / batch.y_base[:, None] > c_s0, axis=1)
        if np.any(keep):
            kept.append(batch.take(keep))
            kept_count += int(keep.sum())
        if kept_count >= n:
            return ContinuousFrame.concat(kept).take(slice(n))
    return None


# (0.0, 2.0): pattern (1, 0) has a baseline of exactly 0.0 and is redrawn
STREAM_BETA_COVS = [(5.0, 5.0), (5.0, -3.0), (-1.0, 2.0), (0.5, 0.5), (0.0, 2.0)]
STREAM_MIXES = [SubpopMix(0.05, 0.05, 0.8, 0.1), SubpopMix(0.0, 0.5, 0.5, 0.0),
                SubpopMix(0.3, 0.3, 0.0, 0.4)]


def assert_same_frame(got, want):
    for name in ("x1", "x2", "y_base", "subpop"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype and np.array_equal(g, w), name


@pytest.mark.parametrize("beta_cov", STREAM_BETA_COVS)
def test_patient_draw_keeps_the_stream(beta_cov):
    cfg = ContinuousGenConfig(beta_cov1=beta_cov[0], beta_cov2=beta_cov[1])
    for seed in range(60):
        mix = STREAM_MIXES[seed % len(STREAM_MIXES)]
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        # consecutive calls on one generator: odd sizes leave a buffered
        # 32-bit half-word for the next call
        for n in (1, 2, 37, 500):
            got = draw_continuous_patients(cfg, mix, got_rng, n)
            want = oracle_draw_continuous_patients(cfg, mix, want_rng, n)
            assert_same_frame(got, want)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state
    assert draw_continuous_patients(cfg, mix, np.random.default_rng(0)).y_base.shape == (cfg.n,)


@pytest.mark.parametrize("beta_t1, beta_in2", [(-1.5, 0.0), (-2.0, 0.5)])
def test_response_draw_keeps_the_stream(beta_t1, beta_in2):
    cfg = ContinuousGenConfig(beta_p=(-1.5, -1.0, -0.5), beta_t1=beta_t1, beta_in2=beta_in2,
                              beta_in3=-0.25, noise_sd=0.7)
    for seed in range(40):
        rng = np.random.default_rng(seed)
        for n in (1, 2, 37, 500):
            frame = oracle_draw_continuous_patients(cfg, STREAM_MIXES[seed % 3], rng, n)
            on_drug = rng.integers(0, 2, n) == 1
            got_rng, want_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
            got = draw_continuous_response(cfg, frame, on_drug, got_rng)
            want = oracle_draw_continuous_response(cfg, frame, on_drug, want_rng)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("beta_cov", STREAM_BETA_COVS)
@pytest.mark.parametrize("c_s0", [0.8, -math.inf, 0.5, 0.95])
def test_leadin_keeps_the_stream(beta_cov, c_s0, monkeypatch):
    # a lower batch cap keeps the capped cases cheap; both forms read it
    monkeypatch.setattr(harness, "_LEADIN_MAX_BATCHES", 40)
    gen = ContinuousGenConfig(beta_cov1=beta_cov[0], beta_cov2=beta_cov[1])
    for seed in range(12):
        n = (3, 37, 90)[seed % 3]
        mix = STREAM_MIXES[seed % len(STREAM_MIXES)]
        got_rngs = [np.random.default_rng([seed, k]) for k in (0, 1)]
        want_rngs = [np.random.default_rng([seed, k]) for k in (0, 1)]
        want = oracle_leadin_frame(gen, mix, c_s0, n, *want_rngs)
        if want is None:
            with pytest.raises(DegenerateResultError):
                harness._leadin_frame(gen, mix, c_s0, n, *got_rngs)
        else:
            got = harness._leadin_frame(gen, mix, c_s0, n, *got_rngs)
            assert_same_frame(got, want)
        for g, w in zip(got_rngs, want_rngs):
            assert g.bit_generator.state == w.bit_generator.state


def test_numpy_draw_properties_the_stream_relies_on():
    # the patient draw relies on these two properties of numpy's Generator;
    # a numpy release that breaks either moves every SED and CR number
    p = np.array([0.05, 0.0, 0.8, 0.15])
    classes = np.array([1, 2, 3, 4])
    for seed in range(50):
        for odd_draws in (0, 1, 3):
            split, whole = np.random.default_rng(seed), np.random.default_rng(seed)
            for rng in (split, whole):
                rng.integers(0, 2**31, odd_draws, dtype=np.uint32)  # odd: a half-word is buffered
            # integers(0, 2, a) then integers(0, 2, b) is integers(0, 2, a + b)
            parts = np.concatenate([split.integers(0, 2, 7), split.integers(0, 2, 6)])
            assert np.array_equal(parts, whole.integers(0, 2, 13))
            assert split.bit_generator.state == whole.bit_generator.state
            # choice with p is the searchsorted form of its cumulative sum
            cdf = np.cumsum(p)
            cdf /= cdf[-1]
            chosen = split.choice(classes, size=41, p=p)
            searched = classes[cdf.searchsorted(whole.random(41), side="right")]
            assert np.array_equal(chosen, searched)
            assert split.bit_generator.state == whole.bit_generator.state
