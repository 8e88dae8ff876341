"""Generator distributional checks and determinism contracts."""

import csv
import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import kstest

from wrtrials import (
    Arm,
    BinaryGenConfig,
    ConfigError,
    ContinuousGenConfig,
    DegenerateResultError,
    ScenarioConfig,
    Subpop,
    SubpopMix,
    SurvivalGenConfig,
    cohort_to_csv,
    cox_fit,
    gen_binary_cohort,
    gen_survival_cohort,
)
from wrtrials import harness
from wrtrials.datagen import (
    ContinuousFrame, _assign_arms, continuous_cohort, draw_continuous_patients,
    draw_continuous_response,
)

EVEN_MIX = SubpopMix(0.25, 0.25, 0.25, 0.25)


def test_same_seed_same_cohort():
    cfg = SurvivalGenConfig(beta_t=math.log(0.7))
    a = gen_survival_cohort(cfg, np.random.default_rng(123), 50)
    b = gen_survival_cohort(cfg, np.random.default_rng(123), 50)
    for name in ("arm", "x1", "x2", "stage", "e_death", "e_hosp"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_all_times_positive_and_allocation_exact():
    cfg = SurvivalGenConfig(allocation=0.5)
    cohort = gen_survival_cohort(cfg, np.random.default_rng(1), 101)
    assert np.all(cohort.e_death > 0) and np.all(cohort.e_hosp > 0)
    assert int((cohort.arm == Arm.TREATMENT).sum()) == 50


def test_null_first_event_is_rate_two_exponential():
    # with every coefficient zero both components are unit exponentials, so
    # the first event is exponential with rate 2
    cfg = SurvivalGenConfig()
    cohort = gen_survival_cohort(cfg, np.random.default_rng(2024), 10000)
    mins = np.minimum(cohort.e_death, cohort.e_hosp)
    stat = kstest(mins, "expon", args=(0, 0.5)).statistic
    assert stat < 1.63 / math.sqrt(len(mins))  # 1% critical value


def test_null_arms_exchangeable():
    # under no effect, a two-sample location test on first-event times
    # rejects at about its nominal level across replications
    rejections = 0
    reps = 200
    for s in range(reps):
        cfg = SurvivalGenConfig()
        cohort = gen_survival_cohort(cfg, np.random.default_rng(5000 + s), 80)
        mins = np.minimum(cohort.e_death, cohort.e_hosp)
        a, b = mins[cohort.arm == 1], mins[cohort.arm == 0]
        t = (a.mean() - b.mean()) / math.sqrt(a.var() / len(a) + b.var() / len(b))
        rejections += abs(t) > 1.96
    assert rejections / reps < 0.12


def test_survival_generator_hits_hazard_ratio_target():
    cfg = SurvivalGenConfig(beta_t=math.log(0.6), beta_in=0.0)
    cohort = gen_survival_cohort(cfg, np.random.default_rng(77), 6000)
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
    n = 10000
    cfg = ContinuousGenConfig(mix=SubpopMix(0.05, 0.05, 0.8, 0.1))
    labels = draw_continuous_patients(cfg, np.random.default_rng(9), n).subpop
    assert len(labels) == n
    counts = {s: 0 for s in Subpop}
    for label in labels:
        counts[Subpop(label)] += 1
    for s, target in zip(Subpop, (0.05, 0.05, 0.8, 0.1)):
        assert counts[s] / n == pytest.approx(target, abs=0.02)


def test_baseline_always_positive_and_effect_applied():
    mix = SubpopMix(0.0, 0.0, 1.0, 0.0)  # every patient in the target class
    cfg = ContinuousGenConfig(beta_t1=-2.0, beta_cov1=5.0, beta_cov2=5.0, mix=mix)
    frame = draw_continuous_patients(cfg, np.random.default_rng(3), 500)
    assert np.all(frame.y_base > 0)
    assert set(np.unique(frame.y_base)) <= {5.0, 10.0}
    # noise-free check of the effect arithmetic
    quiet = replace(cfg, noise_sd=1e-12)
    y_drug = draw_continuous_response(quiet, frame, np.ones(500, dtype=bool),
                                      np.random.default_rng(4))
    assert np.allclose(y_drug, frame.y_base[:, None] - 2.0, atol=1e-9)
    y_placebo = draw_continuous_response(quiet, frame, np.zeros(500, dtype=bool),
                                         np.random.default_rng(5))
    assert np.allclose(y_placebo, frame.y_base[:, None] - 1.5, atol=1e-9)


def test_continuous_frame_take_and_concat_keep_rows_together():
    cfg = ContinuousGenConfig(mix=EVEN_MIX)
    frame = draw_continuous_patients(cfg, np.random.default_rng(9), 30)
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
    cfg = ContinuousGenConfig(beta_t1=-2.0, beta_in2=0.0, beta_in3=0.0, mix=EVEN_MIX)
    assert cfg.beta_t == (-2.0, -2.0, -2.0)
    shifted = replace(cfg, beta_in2=0.5, beta_in3=0.25)
    assert shifted.beta_t == (-2.0, -1.5, -1.75)


def test_null_effects_make_arms_identical_in_law():
    # when drug and placebo effects coincide, the administration flag must
    # not matter for any label
    cfg = ContinuousGenConfig(beta_p=(-1.5, -1.5, -1.5), beta_t1=-1.5,
                              mix=SubpopMix(0.05, 0.05, 0.8, 0.1))
    frame = draw_continuous_patients(cfg, np.random.default_rng(6), 2000)
    y_drug = draw_continuous_response(cfg, frame, np.ones(2000, dtype=bool),
                                      np.random.default_rng(7))
    y_plac = draw_continuous_response(cfg, frame, np.zeros(2000, dtype=bool),
                                      np.random.default_rng(7))
    assert np.array_equal(y_drug, y_plac)


def test_csv_export_roundtrip(tmp_path):
    cfg = SurvivalGenConfig()
    cohort = gen_survival_cohort(cfg, np.random.default_rng(12), 20)
    path = tmp_path / "cohort.csv"
    cohort_to_csv(cohort, str(path))
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["id", "arm", "x_cov1", "x_cov2", "stratum", "e_death", "e_hosp"]
    assert len(rows) == 21
    assert rows[4][0] == "3"
    assert float(rows[4][5]) == cohort.e_death[3]



def two_stage_cohort(rng):
    """12 drawn stage-0 patients, then 8 stage-1 ones with every pattern (strata 4..7)."""
    cfg = ContinuousGenConfig(mix=EVEN_MIX)
    stage0 = draw_continuous_patients(cfg, rng, 12)
    # no drawn baseline is positive for x1 = x2 = 0, so stage 1's patterns are set
    stage1 = replace(draw_continuous_patients(cfg, rng, 8),
                     x1=np.array([0, 0, 1, 1] * 2), x2=np.array([0, 1] * 4))
    stages = []
    for frame in (stage0, stage1):
        arm = rng.integers(0, 2, len(frame.y_base))
        stages.append((frame, arm, draw_continuous_response(cfg, frame, arm == 1, rng)))
    return continuous_cohort(stages)


def one_stage_cohort(cfg, rng, n):
    """n patients, a 1:1 assignment and one outcome draw, all from ``rng``."""
    frame = draw_continuous_patients(cfg, rng, n)
    arm = _assign_arms(rng, n, 0.5)
    return continuous_cohort([(frame, arm, draw_continuous_response(cfg, frame, arm == 1, rng))])


def csv_pin_cohorts():
    binary = gen_binary_cohort(BinaryGenConfig(0.3, 0.4, 0.5, 0.5, 7, 6), np.random.default_rng(2))
    return {
        "survival": gen_survival_cohort(SurvivalGenConfig(), np.random.default_rng(1), 15),
        "binary": binary,
        "binary-float": replace(binary, y_death=binary.y_death.astype(float),
                                x_hosp=binary.x_hosp.astype(float)),
        "continuous": one_stage_cohort(ContinuousGenConfig(mix=SubpopMix(0.1, 0.2, 0.6, 0.1)),
                                       np.random.default_rng(3), 14),
        "two-stage": two_stage_cohort(np.random.default_rng(4)),
    }


# sha256 of each cohort's CSV: the export format is a contract between
# processes, so a changed byte (a float's repr, 0.0 for 0) fails here
CSV_SHA256 = {
    "survival": "8963f927c96c52b2421788e2c91e5868736dd7918cbc3a51aaa9a779b8d781ed",
    "binary": "5d726a40661412d1b2ebe90bbe6829524f4b89b3344b69469ddfb3e09c9c1fc7",
    "binary-float": "a07917309275214f37972bf4184b38901d907ea0dddd51b1ae57bdd805db4b03",
    "continuous": "cc334ddd939e307c2c99d9d6f84d2865a741e0efbd91cf964d2bd5bd358b36fb",
    "two-stage": "7552fd8badcd48e069417ea30a136d39c5db5e85e9feac63306b43ec054ddd12",
}


@pytest.mark.parametrize("name", sorted(CSV_SHA256))
def test_csv_export_bytes_pinned(name, tmp_path):
    cohort = csv_pin_cohorts()[name]
    if name == "two-stage":
        assert sorted(set(cohort.stratum[cohort.stage == 1].tolist())) == [4, 5, 6, 7]
    if name == "binary-float":
        assert cohort.y_death.dtype == float
    path = tmp_path / "cohort.csv"
    cohort_to_csv(cohort, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CSV_SHA256[name]

def test_config_validation():
    def survival(n, allocation=0.5):
        return ScenarioConfig("parallel", "survival", SurvivalGenConfig(allocation=allocation),
                              ("Cox",), n)

    with pytest.raises(ConfigError, match="n_total"):
        survival(1)
    with pytest.raises(ConfigError):
        SurvivalGenConfig(allocation=1.0)
    with pytest.raises(ConfigError, match="treatment arm"):
        survival(4, allocation=0.1)  # int(0.4) = 0 treatment slots
    survival(10, allocation=0.1)  # one treatment slot
    with pytest.raises(ConfigError):
        BinaryGenConfig(1.5, 0.5, 0.5, 0.5, 10, 10)
    with pytest.raises(ConfigError):
        ContinuousGenConfig(noise_sd=0.0, mix=EVEN_MIX)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["beta_t", "beta_in", "beta_dhratio", "beta_cov1", "beta_cov2"])
def test_survival_config_rejects_non_finite_coefficients(name, value):
    # a NaN coefficient would surface only when the cohort is built, as
    # survival times that are not strictly positive
    with pytest.raises(ConfigError, match="finite"):
        SurvivalGenConfig(**{name: value})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["beta_p", "beta_t1", "beta_in2", "beta_in3"])
def test_continuous_config_rejects_non_finite_effects(name, value):
    # a non-finite effect used to run: with beta_t1 NaN, a 5-rep CR run at
    # N=100 reported a rejection rate of 1.0 for every analysis
    kw = {name: (value, -1.5, -1.5) if name == "beta_p" else value}
    with pytest.raises(ConfigError, match="finite"):
        ContinuousGenConfig(**kw, mix=EVEN_MIX)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["p1", "p2", "p3", "p4"])
def test_mix_rejects_non_finite_probabilities(name, value):
    # NaN passes both the sign check and the sum check
    with pytest.raises(ConfigError, match="finite"):
        SubpopMix(**{"p1": 0.25, "p2": 0.25, "p3": 0.25, "p4": 0.25, name: value})


@pytest.mark.parametrize("beta_cov", [(-1.0, -1.0), (0.0, 0.0), (0.0, -1.0), (math.nan, 5.0),
                                      (5.0, math.inf)])
def test_continuous_config_rejects_covariates_without_positive_baseline(beta_cov):
    # the patient draw redraws covariates until the baseline is positive, so
    # a config without a positive pattern (or with a non-finite coefficient)
    # would loop forever
    with pytest.raises(ConfigError):
        ContinuousGenConfig(beta_cov1=beta_cov[0], beta_cov2=beta_cov[1], mix=EVEN_MIX)


@pytest.mark.parametrize("beta_cov", [(5.0, -3.0), (-1.0, 2.0), (-1.0, 1.5), (0.5, 0.5)])
def test_continuous_config_accepts_a_positive_pattern(beta_cov):
    cfg = ContinuousGenConfig(beta_cov1=beta_cov[0], beta_cov2=beta_cov[1], mix=EVEN_MIX)
    frame = draw_continuous_patients(cfg, np.random.default_rng(1), 50)
    assert np.all(frame.y_base > 0)


# ---------------------------------------------------------------------------
# the RNG stream contract: the patient draw, the outcome draw and the SED
# lead-in against the per-call forms they replaced, value for value and
# generator state for generator state


def oracle_draw_continuous_patients(cfg, rng, n):
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
    subpop = rng.choice(np.array([int(s) for s in Subpop]), size=n, p=cfg.mix.as_array())
    return ContinuousFrame(x1=x1, x2=x2, y_base=y_base.astype(float), subpop=subpop)


def oracle_draw_continuous_response(cfg, frame, on_drug, rng):
    """The effect tiled to (n, 3), then overwritten on target-class drug rows."""
    n = len(frame.y_base)
    eps = rng.normal(0.0, cfg.noise_sd, size=(n, 3))
    effect = np.tile(np.asarray(cfg.beta_p, dtype=float), (n, 1))
    target = on_drug & (frame.subpop == int(Subpop.DRUG_ONLY))
    effect[target] = np.asarray(cfg.beta_t, dtype=float)
    return frame.y_base[:, None] + effect + eps


def oracle_leadin_frame(gen, c_s0, n, patients_rng, leadin_rng):
    """Whole batches kept and concatenated, then cut to n; None at the batch cap."""
    kept = []
    kept_count = 0
    for _ in range(harness._LEADIN_MAX_BATCHES):
        batch = oracle_draw_continuous_patients(gen, patients_rng, n)
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
    for seed in range(60):
        cfg = ContinuousGenConfig(beta_cov1=beta_cov[0], beta_cov2=beta_cov[1],
                                  mix=STREAM_MIXES[seed % len(STREAM_MIXES)])
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        # consecutive calls on one generator: odd sizes leave a buffered
        # 32-bit half-word for the next call
        for n in (1, 2, 37, 500):
            got = draw_continuous_patients(cfg, got_rng, n)
            want = oracle_draw_continuous_patients(cfg, want_rng, n)
            assert_same_frame(got, want)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state
    assert draw_continuous_patients(cfg, np.random.default_rng(0), 100).y_base.shape == (100,)


@pytest.mark.parametrize("beta_t1, beta_in2", [(-1.5, 0.0), (-2.0, 0.5)])
def test_response_draw_keeps_the_stream(beta_t1, beta_in2):
    for seed in range(40):
        cfg = ContinuousGenConfig(beta_p=(-1.5, -1.0, -0.5), beta_t1=beta_t1, beta_in2=beta_in2,
                                  beta_in3=-0.25, noise_sd=0.7, mix=STREAM_MIXES[seed % 3])
        rng = np.random.default_rng(seed)
        for n in (1, 2, 37, 500):
            frame = oracle_draw_continuous_patients(cfg, rng, n)
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
    for seed in range(12):
        n = (3, 37, 90)[seed % 3]
        gen = ContinuousGenConfig(beta_cov1=beta_cov[0], beta_cov2=beta_cov[1],
                                  mix=STREAM_MIXES[seed % len(STREAM_MIXES)])
        got_rngs = [np.random.default_rng([seed, k]) for k in (0, 1)]
        want_rngs = [np.random.default_rng([seed, k]) for k in (0, 1)]
        want = oracle_leadin_frame(gen, c_s0, n, *want_rngs)
        if want is None:
            with pytest.raises(DegenerateResultError):
                harness._leadin_frame(gen, c_s0, n, *got_rngs)
        else:
            got = harness._leadin_frame(gen, c_s0, n, *got_rngs)
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
