import numpy as np
import pytest

from wrtrials import (
    Arm,
    BinaryOutcome,
    Cohort,
    DegenerateResultError,
    PatientRecord,
    SurvivalOutcome,
    form_matched_pairs,
    stratify,
)


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
