import itertools
import math

import numpy as np
import pytest
from scipy.stats import norm

from wrtrials import (
    Arm,
    Cohort,
    DegenerateResultError,
    PairingResult,
    form_matched_pairs,
)
from wrtrials.core import _two_sided_p


def make_cohort(arm, x1=0, x2=0, stage=0, **outcomes):
    """A cohort from per-row columns; a scalar design column is broadcast to every row.

    Without outcome columns every row gets a (0, 0) binary outcome.
    """
    n = len(arm)
    outcomes = outcomes or dict(y_death=np.zeros(n, dtype=int), x_hosp=np.zeros(n, dtype=int))
    return Cohort(arm, *(np.broadcast_to(v, n) for v in (x1, x2, stage)), **outcomes)


def test_stratify_fixed_encoding():
    # 4 * stage + 2 * x1 + x2, fixed so that cohorts written to CSV by one
    # process can be re-analyzed by another without renumbering
    stage, x1, x2 = np.array(list(itertools.product((0, 1), repeat=3))).T
    cohort = make_cohort(np.arange(8) % 2, x1, x2, stage)
    assert cohort.stratum.tolist() == [0, 1, 2, 3, 4, 5, 6, 7]
    assert cohort.stratum.tolist() == (4 * stage + 2 * x1 + x2).tolist()


def test_stratify_is_bijection():
    x1, x2 = np.array([(a, b) for a in (0, 1) for b in (0, 1)]).T
    for stage in (0, 1):
        cohort = make_cohort(np.zeros(4, dtype=int), x1, x2, stage)
        assert sorted(cohort.stratum.tolist()) == [4 * stage + k for k in range(4)]


def test_stratify_rejects_nonbinary():
    ones = np.ones(3, dtype=int)
    for name in ("arm", "x1", "x2", "stage"):
        columns = dict(arm=ones, x1=ones, x2=ones, stage=ones)
        columns[name] = np.array([0, 2, 1])
        with pytest.raises(ValueError, match=f"{name} must be 0/1"):
            make_cohort(**columns)


def test_stratum_proportions_near_uniform():
    rng = np.random.default_rng(11)
    cov = rng.integers(0, 2, size=(20000, 2))
    strata = 2 * cov[:, 0] + cov[:, 1]
    freqs = np.bincount(strata, minlength=4) / len(strata)
    assert np.all(np.abs(freqs - 0.25) < 0.02)


def test_equal_counts_pair_fully():
    res = form_matched_pairs(make_cohort([1, 1, 1, 0, 0, 0]), np.random.default_rng(0))
    assert res.pairs.shape == (3, 2)
    assert sorted(res.pairs[:, 0]) == [0, 1, 2] and sorted(res.pairs[:, 1]) == [3, 4, 5]
    assert res.n_unpaired_treatment == 0 and res.n_unpaired_control == 0


def test_surplus_left_unpaired():
    res = form_matched_pairs(make_cohort([1] * 5 + [0] * 3), np.random.default_rng(0))
    assert len(res.pairs) == 3
    assert res.n_unpaired_treatment == 2
    assert res.n_unpaired_control == 0


def test_pairing_deterministic_given_seed():
    rng = np.random.default_rng(42)
    cohort = make_cohort(*np.array([rng.integers(0, 2, 3) for _ in range(20)]).T)
    first = form_matched_pairs(cohort, np.random.default_rng(7)).pairs
    second = form_matched_pairs(cohort, np.random.default_rng(7)).pairs
    assert np.array_equal(first, second)


def test_pairing_respects_strata_and_ids_unique():
    rng = np.random.default_rng(3)
    x1, x2, arm = np.array([rng.integers(0, 2, 3) for _ in range(40)]).T
    cohort = make_cohort(arm, x1, x2)
    res = form_matched_pairs(cohort, rng)
    seen = set()
    for t, c in res.pairs.tolist():
        assert arm[t] == Arm.TREATMENT and arm[c] == Arm.CONTROL
        assert cohort.stratum[t] == cohort.stratum[c]
        assert t not in seen and c not in seen
        seen.update((t, c))
    # count identity: pairs = sum over strata of min(arm counts)
    expected = 0
    for k in range(4):
        m = int(((cohort.stratum == k) & (arm == Arm.TREATMENT)).sum())
        c = int(((cohort.stratum == k) & (arm == Arm.CONTROL)).sum())
        expected += min(m, c)
    assert len(res.pairs) == expected


def test_no_pairs_formable_raises():
    cohort = make_cohort([1, 1, 1, 1])
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
    cohort = make_cohort([1, 0, 1], [0, 1, 1], [1, 1, 0], [0, 0, 1],
                         e_death=[1.0, 3.0, 2.0], e_hosp=[2.0, 0.5, 2.5])
    assert len(cohort) == 3
    assert cohort.stratum.tolist() == [1, 3, 6]
    assert list(cohort) == [(1, 1), (0, 3), (1, 6)]


def test_cohort_rows_are_arm_and_stratum():
    # iterating a two-stage cohort yields each row's (arm, stratum), as the
    # columns hold them
    rng = np.random.default_rng(5)
    x1, x2, stage, arm = rng.integers(0, 2, (4, 50))
    cohort = make_cohort(arm, x1, x2, stage)
    assert set(stage.tolist()) == {0, 1}
    rows = list(cohort)
    assert rows == list(zip(cohort.arm.tolist(), cohort.stratum.tolist()))
    assert [r.arm for r in rows] == arm.tolist()
    assert [r.stratum for r in rows] == (4 * stage + 2 * x1 + x2).tolist()
    assert all(type(r.arm) is int and type(r.stratum) is int for r in rows)


def test_cohort_validates_columns_when_built():
    ones = np.ones(3, dtype=int)
    times = np.array([1.0, 2.0, 3.0])
    Cohort(ones, ones, ones, ones, e_death=times, e_hosp=times)
    bad_columns = [
        dict(e_death=np.array([1.0, 0.0, 3.0]), e_hosp=times),  # nonpositive time
        # the matched test would score inf - inf as a loss, the FS test as a tie
        dict(e_death=times, e_hosp=np.array([1.0, math.inf, 3.0])),  # infinite time
        dict(y_death=np.array([0, 2, 1]), x_hosp=ones),  # indicator not 0/1
        dict(y_base=np.array([1.0, -1.0, 2.0]), y=np.ones((3, 3))),  # nonpositive baseline
        dict(y_base=np.array([1.0, math.inf, 2.0]), y=np.ones((3, 3))),  # infinite baseline
        dict(y_base=times, y=np.where(np.eye(3), math.nan, 1.0)),  # NaN outcome
        dict(y_base=times, y=np.where(np.eye(3), math.inf, 1.0)),  # infinite outcome
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
    none = np.ones(0, dtype=int)
    with pytest.raises(ValueError, match="at least one patient"):
        Cohort(none, none, none, none, e_death=none, e_hosp=none)
    # a binary cohort has no time to a first event
    with pytest.raises(ValueError, match="survival outcomes"):
        Cohort(ones, ones, ones, ones, y_death=ones, x_hosp=ones).first_event


def test_two_sided_p_is_within_1e_12_of_norm_sf():
    # math.erfc against scipy's Cephes ndtr: exact at 0, the infinities and
    # NaN, and within 1e-12 relative (measured 5.7e-14) wherever the tail is
    # at least 1e-300, on Python floats and numpy float64s alike
    for z, want in [(0.0, 1.0), (-0.0, 1.0), (np.float64(-0.0), 1.0), (math.inf, 0.0), (-math.inf, 0.0)]:
        assert _two_sided_p(z) == want
    assert math.isnan(_two_sided_p(math.nan)) and math.isnan(_two_sided_p(np.float64(math.nan)))
    zs = ([5e-324, -5e-324, 1e-300, 1.96, -1.96, 8.0, 40.0, 1e300, np.float64(2.5), np.float64(-0.0)]
          + list(np.random.default_rng(0).normal(0.0, 4.0, 2000)) + list(np.linspace(-40.0, 40.0, 100_001)))
    got = [_two_sided_p(z) for z in zs]
    assert all(type(p) is float for p in got)
    got, want = np.array(got), 2.0 * norm.sf(np.abs(zs))
    tail = want >= 1e-300
    np.testing.assert_allclose(got[tail], want[tail], rtol=1e-12, atol=0.0)
    assert (got[~tail] < 2e-300).all()
