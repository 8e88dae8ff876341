"""Cox, rank-sum-type, and odds-ratio analyses against independent oracles."""

import math

import numpy as np
import pytest

from wrtrials import (
    Arm,
    Cohort,
    DegenerateResultError,
    PatientRecord,
    SurvivalOutcome,
    contingency_or_test,
    cox_fit,
    obrien_test,
)
from wrtrials.classic_tests import cox_loglik, cox_ph, obrien_first_event, _cox_score_info


def surv_patient(arm, e_death, e_hosp, cov=(0, 0)):
    return PatientRecord(arm=arm, covariates=cov, outcome=SurvivalOutcome(e_death, e_hosp))


# ---------------------------------------------------------------------------
# Cox


def loop_cox_loglik(beta, times, X):
    """Breslow partial log-likelihood summed one tie group at a time."""
    order = np.argsort(times, kind="stable")
    t, Xs = times[order], X[order]
    eta = Xs @ beta
    rev_cum = np.cumsum(np.exp(eta)[::-1])[::-1]
    ll = 0.0
    i = 0
    n = len(t)
    while i < n:
        j = i
        while j < n and t[j] == t[i]:
            j += 1
        ll += float(eta[i:j].sum()) - (j - i) * math.log(float(rev_cum[i]))
        i = j
    return ll


@pytest.mark.parametrize("tied", [False, True])
def test_cox_loglik_matches_loop_oracle(tied):
    rng = np.random.default_rng(3)
    for _ in range(300):
        n = int(rng.integers(2, 60))
        times = rng.integers(1, 6, n).astype(float) if tied else rng.exponential(1.0, n)
        X = np.column_stack([rng.integers(0, 2, n), rng.normal(0, 1, n)]).astype(float)
        beta = rng.normal(0, 1, 2)
        assert cox_loglik(beta, times, X) == pytest.approx(
            loop_cox_loglik(beta, times, X), rel=1e-12)


def test_cox_score_matches_central_differences_small_cohorts():
    rng = np.random.default_rng(1)
    h = 1e-6
    for _ in range(40):
        n = int(rng.integers(3, 7))
        times = rng.exponential(1.0, n) + 1e-6
        X = np.column_stack([rng.integers(0, 2, n), rng.normal(0, 1, n)]).astype(float)
        if X[:, 0].std() == 0:
            continue
        beta = rng.normal(0, 0.5, 2)
        score, _ = _cox_score_info(beta, times, X)
        for k in range(2):
            up, dn = beta.copy(), beta.copy()
            up[k] += h
            dn[k] -= h
            fd = (cox_loglik(up, times, X) - cox_loglik(dn, times, X)) / (2 * h)
            denom = max(abs(fd), 1.0)
            assert abs(score[k] - fd) / denom < 1e-6


def test_cox_information_matches_second_differences():
    rng = np.random.default_rng(2)
    h = 1e-5
    times = rng.exponential(1.0, 6) + 1e-6
    X = np.column_stack([np.array([0, 1, 0, 1, 1, 0]), rng.normal(0, 1, 6)]).astype(float)
    beta = np.array([0.3, -0.2])
    _, info = _cox_score_info(beta, times, X)
    for k in range(2):
        up, dn = beta.copy(), beta.copy()
        up[k] += h
        dn[k] -= h
        s_up, _ = _cox_score_info(up, times, X)
        s_dn, _ = _cox_score_info(dn, times, X)
        fd_row = -(s_up - s_dn) / (2 * h)
        assert np.allclose(info[k], fd_row, rtol=1e-5, atol=1e-5)


def test_cox_identical_arms_give_null_fit():
    times = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    cohort = []
    for i, t in enumerate(times):
        cohort.append(surv_patient(Arm.TREATMENT, t, t + 100))
        cohort.append(surv_patient(Arm.CONTROL, t, t + 100))
    res = cox_fit(Cohort.from_records(cohort), use_covariates=False)
    assert res.beta_t_hat == pytest.approx(0.0, abs=1e-8)
    assert res.hr == pytest.approx(1.0, abs=1e-8)
    assert res.converged


def test_cox_time_scale_invariance():
    rng = np.random.default_rng(3)
    n = 40
    times = rng.exponential(1.0, n) + 1e-9
    X = np.column_stack([rng.integers(0, 2, n), rng.integers(0, 2, n)]).astype(float)
    b1, _, _, _, _ = cox_ph(times, X)
    b2, _, _, _, _ = cox_ph(times * 17.3, X)
    assert np.allclose(b1, b2, atol=1e-8)


def test_cox_observed_information_psd_at_solution():
    rng = np.random.default_rng(4)
    n = 60
    times = rng.exponential(1.0, n) + 1e-9
    X = np.column_stack([rng.integers(0, 2, n), rng.normal(size=n)]).astype(float)
    beta, cov, _, converged, _ = cox_ph(times, X)
    assert converged
    _, info = _cox_score_info(beta, times, X)
    eigs = np.linalg.eigvalsh(info)
    assert np.all(eigs >= -1e-9)


def test_cox_recovers_known_hazard_ratio():
    rng = np.random.default_rng(5)
    n = 4000
    arm = rng.integers(0, 2, n)
    times = rng.exponential(1.0, n) * np.exp(-math.log(2.0) * arm)
    b, cov, _, converged, _ = cox_ph(times, np.column_stack([arm]).astype(float))
    assert converged
    assert b[0] == pytest.approx(math.log(2.0), abs=0.08)


def test_cox_separation_flagged_and_capped():
    cohort = []
    for i in range(6):
        cohort.append(surv_patient(Arm.TREATMENT, 100.0 + i, 200.0))
        cohort.append(surv_patient(Arm.CONTROL, 1.0 + 0.01 * i, 200.0))
    res = cox_fit(Cohort.from_records(cohort), use_covariates=False)
    assert res.separation
    assert abs(res.beta_t_hat) <= 15.0 + 1e-9


def test_cox_breslow_handles_ties():
    times = np.array([1.0, 1.0, 2.0, 2.0, 3.0, 4.0])
    X = np.column_stack([[1, 0, 1, 0, 1, 0]]).astype(float)
    beta, _, _, converged, _ = cox_ph(times, X)
    assert converged
    # independent check of the tied-likelihood gradient at the solution
    score, _ = _cox_score_info(beta, times, X)
    assert abs(score[0]) < 1e-7


def test_cox_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        cox_ph(np.array([1.0, 1.0]), np.array([[1.0], [0.0]]))
    with pytest.raises(ValueError):
        cox_ph(np.array([1.0, 2.0, 3.0]), np.array([[1.0], [1.0], [1.0]]))


# ---------------------------------------------------------------------------
# O'Brien rank-sum-type test


def test_obrien_hand_anova():
    values = np.array([[1.0], [2.0], [3.0], [4.0]])
    groups = np.array([0, 0, 1, 1])
    res = obrien_test(values, groups)
    assert res.f_stat == pytest.approx(8.0)
    assert res.df == (1, 2)
    assert res.rank_sums[0] == pytest.approx(1.5)
    assert res.rank_sums[1] == pytest.approx(3.5)


def test_obrien_identical_groups_f_zero():
    values = np.array([[1.0, 5.0], [2.0, 6.0], [1.0, 5.0], [2.0, 6.0]])
    groups = np.array([0, 0, 1, 1])
    res = obrien_test(values, groups)
    assert res.f_stat == pytest.approx(0.0, abs=1e-12)
    assert res.p_value == pytest.approx(1.0)


def test_obrien_monotone_transform_invariance():
    rng = np.random.default_rng(6)
    values = rng.normal(size=(30, 2))
    groups = rng.integers(0, 2, 30)
    while len(np.unique(groups)) < 2 or min(np.bincount(groups)) < 2:
        groups = rng.integers(0, 2, 30)
    base = obrien_test(values, groups)
    transformed = np.column_stack([np.exp(values[:, 0]), values[:, 1] ** 3])
    res = obrien_test(transformed, groups)
    assert res.f_stat == pytest.approx(base.f_stat, rel=1e-12)
    assert res.p_value == pytest.approx(base.p_value, rel=1e-12)


def test_obrien_constant_ranks_degenerate():
    values = np.array([[1.0], [1.0], [1.0], [1.0]])
    groups = np.array([0, 0, 1, 1])
    with pytest.raises(DegenerateResultError):
        obrien_test(values, groups)


def test_obrien_requires_group_sizes():
    with pytest.raises(ValueError):
        obrien_test(np.array([[1.0], [2.0], [3.0]]), np.array([0, 0, 1]))


def test_obrien_first_event_uses_min_time():
    cohort = [
        surv_patient(Arm.TREATMENT, 9.0, 5.0),
        surv_patient(Arm.TREATMENT, 8.0, 6.0),
        surv_patient(Arm.CONTROL, 1.0, 7.0),
        surv_patient(Arm.CONTROL, 2.0, 7.5),
    ]
    res = obrien_first_event(Cohort.from_records(cohort))
    # first-event times: T (5, 6), C (1, 2): ranks 3,4 vs 1,2
    assert res.rank_sums[1] == pytest.approx(3.5)
    assert res.rank_sums[0] == pytest.approx(1.5)


# ---------------------------------------------------------------------------
# contingency OR


def test_or_frozen_arithmetic():
    t_flags = np.array([1] * 20 + [0] * 5)
    c_flags = np.array([1] * 5 + [0] * 20)
    res = contingency_or_test(t_flags, c_flags)
    assert res.table == (20, 5, 5, 20)
    assert res.or_hat == pytest.approx(16.0)
    assert res.se_log == pytest.approx(math.sqrt(0.5))
    assert not res.corrected


def test_or_equal_rates_z_near_zero():
    rng = np.random.default_rng(7)
    t = rng.binomial(1, 0.4, 4000)
    c = rng.binomial(1, 0.4, 4000)
    res = contingency_or_test(t, c)
    assert abs(res.z) < 3.0
    assert res.or_hat == pytest.approx(1.0, abs=0.2)


def test_or_zero_cell_correction():
    res = contingency_or_test(np.array([1, 1, 1]), np.array([0, 0, 1]))
    assert res.corrected
    assert res.or_hat == pytest.approx((3.5 * 2.5) / (0.5 * 1.5))


def test_or_swap_arms_inverts():
    t = np.array([1] * 12 + [0] * 8)
    c = np.array([1] * 7 + [0] * 13)
    a = contingency_or_test(t, c)
    b = contingency_or_test(c, t)
    assert b.or_hat == pytest.approx(1.0 / a.or_hat, rel=1e-12)
    assert b.z == pytest.approx(-a.z, abs=1e-12)


def test_or_empty_arm_rejected():
    with pytest.raises(ValueError):
        contingency_or_test(np.array([]), np.array([1, 0]))
