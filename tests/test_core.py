import math

import numpy as np
import pytest
from scipy.stats import norm

from wrtrials import (
    Arm,
    BinaryOutcome,
    Cohort,
    DegenerateResultError,
    PairingResult,
    PatientRecord,
    SurvivalOutcome,
    form_matched_pairs,
    stratify,
)
from wrtrials.core import _two_sided_p


def make_patient(arm, cov=(0, 0)):
    return PatientRecord(arm=arm, covariates=cov, outcome=BinaryOutcome(0, 0))


def test_stratify_fixed_encoding():
    assert stratify((0, 0)) == 0
    assert stratify((0, 1)) == 1
    assert stratify((1, 0)) == 2
    assert stratify((1, 1)) == 3


def test_stratify_is_bijection():
    patterns = [(a, b) for a in (0, 1) for b in (0, 1)]
    assert sorted(stratify(p) for p in patterns) == [0, 1, 2, 3]


def test_stratify_rejects_nonbinary():
    with pytest.raises(ValueError):
        stratify((2, 0))


def test_stratum_proportions_near_uniform():
    rng = np.random.default_rng(11)
    cov = rng.integers(0, 2, size=(20000, 2))
    strata = 2 * cov[:, 0] + cov[:, 1]
    freqs = np.bincount(strata, minlength=4) / len(strata)
    assert np.all(np.abs(freqs - 0.25) < 0.02)


def test_equal_counts_pair_fully():
    records = [make_patient(Arm.TREATMENT) for _ in range(3)]
    records += [make_patient(Arm.CONTROL) for _ in range(3)]
    res = form_matched_pairs(Cohort.from_records(records), np.random.default_rng(0))
    assert res.pairs.shape == (3, 2)
    assert sorted(res.pairs[:, 0]) == [0, 1, 2] and sorted(res.pairs[:, 1]) == [3, 4, 5]
    assert res.n_unpaired_treatment == 0 and res.n_unpaired_control == 0


def test_surplus_left_unpaired():
    records = [make_patient(Arm.TREATMENT) for _ in range(5)]
    records += [make_patient(Arm.CONTROL) for _ in range(3)]
    res = form_matched_pairs(Cohort.from_records(records), np.random.default_rng(0))
    assert len(res.pairs) == 3
    assert res.n_unpaired_treatment == 2
    assert res.n_unpaired_control == 0


def test_pairing_deterministic_given_seed():
    rng = np.random.default_rng(42)
    cohort = Cohort.from_records([
        make_patient(
            Arm(int(rng.integers(0, 2))),
            (int(rng.integers(0, 2)), int(rng.integers(0, 2))),
        )
        for _ in range(20)
    ])
    first = form_matched_pairs(cohort, np.random.default_rng(7)).pairs
    second = form_matched_pairs(cohort, np.random.default_rng(7)).pairs
    assert np.array_equal(first, second)


def test_pairing_respects_strata_and_ids_unique():
    rng = np.random.default_rng(3)
    records = []
    for _ in range(40):
        cov = (int(rng.integers(0, 2)), int(rng.integers(0, 2)))
        records.append(make_patient(Arm(int(rng.integers(0, 2))), cov))
    res = form_matched_pairs(Cohort.from_records(records), rng)
    seen = set()
    for t, c in res.pairs.tolist():
        assert records[t].arm == Arm.TREATMENT and records[c].arm == Arm.CONTROL
        assert records[t].stratum == records[c].stratum
        assert t not in seen and c not in seen
        seen.update((t, c))
    # count identity: pairs = sum over strata of min(arm counts)
    expected = 0
    for k in range(4):
        m = sum(1 for r in records if r.stratum == k and r.arm == Arm.TREATMENT)
        c = sum(1 for r in records if r.stratum == k and r.arm == Arm.CONTROL)
        expected += min(m, c)
    assert len(res.pairs) == expected


def test_no_pairs_formable_raises():
    cohort = Cohort.from_records([make_patient(Arm.TREATMENT) for _ in range(4)])
    with pytest.raises(DegenerateResultError):
        form_matched_pairs(cohort, np.random.default_rng(0))


def oracle_form_matched_pairs(cohort, rng):
    """The per-stratum form: a mask, a permutation per arm and a column_stack per stratum."""
    pairs = []
    unpaired_t = unpaired_c = 0
    for key in np.unique(cohort.stratum):
        rows = np.flatnonzero(cohort.stratum == key)
        is_t = cohort.arm[rows] == Arm.TREATMENT
        treatments, controls = rows[is_t], rows[~is_t]
        treatments = treatments[rng.permutation(len(treatments))]
        controls = controls[rng.permutation(len(controls))]
        m = min(len(treatments), len(controls))
        pairs.append(np.column_stack([treatments[:m], controls[:m]]))
        unpaired_t += len(treatments) - m
        unpaired_c += len(controls) - m
    pairs = np.concatenate(pairs)
    if not len(pairs):
        raise DegenerateResultError("no pairs formable")
    return PairingResult(pairs, unpaired_t, unpaired_c)


def random_stratified_cohort(rng, n):
    """1-8 strata of both stages, uneven sizes, some with one arm only."""
    strata = rng.choice(8, size=int(rng.integers(1, 9)), replace=False)
    weights = rng.dirichlet(np.full(len(strata), 0.5))
    p_treat = rng.choice([0.0, 1.0, 0.5, rng.random()], size=len(strata))
    which = rng.choice(len(strata), size=n, p=weights)
    s = strata[which]
    arm = (rng.random(n) < p_treat[which]).astype(int)
    zeros = np.zeros(n, dtype=int)
    return Cohort(arm, (s >> 1) & 1, s & 1, s >> 2, y_death=zeros, x_hosp=zeros)


def test_pairing_keeps_the_stream():
    # value for value and generator state for generator state against the
    # per-stratum form: strata in increasing order, treatments shuffled
    # before controls
    sizes = [1, 2, 3, 5, 8, 13, 60, 200, 500]
    cases = [(seed, sizes[seed % len(sizes)]) for seed in range(400)] + [(400, 4000)]
    kinds = set()
    for seed, n in cases:
        cohort = random_stratified_cohort(np.random.default_rng([seed, 0]), n)
        got_rng, want_rng = np.random.default_rng([seed, 1]), np.random.default_rng([seed, 1])
        try:
            want = oracle_form_matched_pairs(cohort, want_rng)
        except DegenerateResultError:
            with pytest.raises(DegenerateResultError):
                form_matched_pairs(cohort, got_rng)
            kinds.add("degenerate")
        else:
            got = form_matched_pairs(cohort, got_rng)
            assert got.pairs.dtype == want.pairs.dtype and np.array_equal(got.pairs, want.pairs)
            assert got.n_unpaired_treatment == want.n_unpaired_treatment
            assert got.n_unpaired_control == want.n_unpaired_control
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        counts = np.bincount(2 * cohort.stratum + cohort.arm, minlength=16).reshape(8, 2)
        present = counts.sum(axis=1) > 0
        kinds.add(("strata", int(present.sum())))
        kinds.add(("stages", tuple(np.unique(cohort.stage).tolist())))
        if (present & (counts.min(axis=1) == 0)).any():
            kinds.add("one-arm stratum")
        if (counts.sum(axis=1) == 1).any():
            kinds.add("single-row stratum")
    # the cohorts cover what the test claims to cover
    assert {("strata", k) for k in range(1, 9)} <= kinds
    assert {("stages", (0,)), ("stages", (1,)), ("stages", (0, 1))} <= kinds
    assert {"degenerate", "one-arm stratum", "single-row stratum"} <= kinds


def test_cohort_rows_roundtrip_with_composite_stratum():
    records = [
        PatientRecord(Arm.TREATMENT, (0, 1), SurvivalOutcome(1.0, 2.0)),
        PatientRecord(Arm.CONTROL, (1, 1), SurvivalOutcome(3.0, 0.5)),
        PatientRecord(Arm.TREATMENT, (1, 0), SurvivalOutcome(2.0, 2.5), stage=1),
    ]
    cohort = Cohort.from_records(records)
    assert len(cohort) == 3
    assert list(cohort) == records
    assert cohort.stratum.tolist() == [r.stratum for r in records] == [1, 3, 6]


def test_cohort_validates_columns_when_built():
    ones = np.ones(3, dtype=int)
    times = np.array([1.0, 2.0, 3.0])
    Cohort(ones, ones, ones, ones, e_death=times, e_hosp=times)
    bad_columns = [
        dict(e_death=np.array([1.0, 0.0, 3.0]), e_hosp=times),  # nonpositive time
        dict(y_death=np.array([0, 2, 1]), x_hosp=ones),  # indicator not 0/1
        dict(y_base=np.array([1.0, -1.0, 2.0]), y=np.ones((3, 3))),  # nonpositive baseline
        dict(y_base=times, y=np.ones((3, 2))),  # two components, not three
        dict(e_death=times, e_hosp=times[:2]),  # ragged columns
        dict(e_death=times),  # half a family
        dict(e_death=times, e_hosp=times, y_death=ones, x_hosp=ones),  # two families
    ]
    for outcome in bad_columns:
        with pytest.raises(ValueError):
            Cohort(ones, ones, ones, ones, **outcome)
    with pytest.raises(ValueError):
        Cohort(ones * 2, ones, ones, ones, e_death=times, e_hosp=times)  # arm not 0/1
    with pytest.raises(ValueError):
        Cohort.from_records([make_patient(Arm.CONTROL),
                     PatientRecord(Arm.TREATMENT, (0, 0), SurvivalOutcome(1.0, 1.0))])


def test_two_sided_p_equals_norm_sf_bit_for_bit():
    specials = [0.0, -0.0, 1e-300, 1.96, -1.96, 8.0, 40.0, math.inf, -math.inf, math.nan]
    zs = specials + list(np.random.default_rng(0).normal(0.0, 4.0, 2000))
    for z in zs:
        want = float(2.0 * norm.sf(abs(z)))
        got = _two_sided_p(z)
        assert type(got) is float
        assert got == want or (math.isnan(got) and math.isnan(want)), z
