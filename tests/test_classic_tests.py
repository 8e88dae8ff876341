"""Cox, rank-sum-type, and odds-ratio analyses against independent oracles."""

import math
import warnings
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import fdtrc
from scipy.stats import f_oneway, rankdata

from wrtrials import (
    Arm,
    DegenerateResultError,
    ScenarioConfig,
    SurvivalGenConfig,
    classic_tests,
    contingency_or_test,
    cox_fit,
    gen_survival_cohort,
    harness,
    obrien_test,
    scenario_from_dict,
    trial_cohort,
)
from wrtrials.classic_tests import (
    BETA_CAP,
    CoxResult,
    cox_loglik,
    midranks,
    obrien_first_event,
    _cox_newton,
    _cox_patterns,
    _cox_score_info,
)
from wrtrials.core import _f1_sf, _two_sided_p, tie_groups

from test_core import make_cohort


# ---------------------------------------------------------------------------
# Cox: the per-row fit, the oracle for the pattern fit in src


def row_cox_loglik(beta, times, X):
    """Breslow partial log-likelihood from per-row risk-set sums, any design."""
    order = np.argsort(times, kind="stable")
    t, Xs = times[order], X[order]
    eta = Xs @ beta
    # risk-set sums, accumulated from the latest time backwards
    rev_cum = np.cumsum(np.exp(eta)[::-1])[::-1]
    # a tie group shares the risk set of its first member
    new = np.empty(len(t), dtype=bool)
    new[:1] = True
    np.not_equal(t[1:], t[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    sizes = np.diff(starts, append=len(t))
    terms = np.add.reduceat(eta, starts) - sizes * np.log(rev_cum[starts])
    # cumsum adds the groups in time order, as a sequential sum would
    return float(np.cumsum(terms)[-1])


class SortedCox(NamedTuple):
    """A fit's rows sorted by time once, with what every Newton iterate reuses."""

    t: np.ndarray
    X: np.ndarray
    XX: np.ndarray  # per-row outer products X_i X_i^T
    group_start: np.ndarray  # first row of each row's tie group (the identity without ties)


def sort_for_cox(times, X):
    order = np.argsort(times, kind="stable")
    t, Xs = times[order], X[order]
    starts = np.ones(len(t), dtype=bool)
    starts[1:] = t[1:] != t[:-1]
    # tie groups share the risk set of their first (earliest-index) member
    group_start = np.maximum.accumulate(np.where(starts, np.arange(len(t)), 0))
    return SortedCox(t, Xs, Xs[:, :, None] * Xs[:, None, :], group_start)


def row_cox_score_info(beta, data):
    """Score and observed information from per-row risk-set sums."""
    Xs = data.X
    w = np.exp(Xs @ beta)
    g = data.group_start
    s0 = np.cumsum(w[::-1])[::-1][g]
    s1 = np.cumsum((Xs * w[:, None])[::-1], axis=0)[::-1][g]
    s2 = np.cumsum((data.XX * w[:, None, None])[::-1], axis=0)[::-1][g]
    xbar = s1 / s0[:, None]
    score = (Xs - xbar).sum(axis=0)
    info = (s2 / s0[:, None, None] - xbar[:, :, None] * xbar[:, None, :]).sum(axis=0)
    return score, info


def row_cox_ph(times, X, max_iter=50, tol=1e-8):
    """The damped Newton fit of ``_cox_newton`` on per-row sums, for any real design."""
    times = np.asarray(times, dtype=float)
    X = np.asarray(X, dtype=float)
    data = sort_for_cox(times, X)
    t, Xs = data.t, data.X
    beta = np.zeros(X.shape[1])
    ll = row_cox_loglik(beta, t, Xs)
    score, info = row_cox_score_info(beta, data)
    converged = False
    separation = False
    it = 0
    for it in range(1, max_iter + 1):
        if np.max(np.abs(score)) < tol:
            converged = True
            it -= 1
            break
        try:
            step = np.linalg.solve(info, score)
        except np.linalg.LinAlgError:
            step = score / max(np.max(np.abs(np.diag(info))), 1.0)
        new_beta = beta + step
        new_ll = row_cox_loglik(new_beta, t, Xs)
        halvings = 0
        while not new_ll >= ll - 1e-12 * max(1.0, abs(ll)) and halvings < 30:
            step *= 0.5
            new_beta = beta + step
            new_ll = row_cox_loglik(new_beta, t, Xs)
            halvings += 1
        beta, ll = new_beta, new_ll
        if np.max(np.abs(beta)) > BETA_CAP:
            separation = True
            beta = np.clip(beta, -BETA_CAP, BETA_CAP)
        score, info = row_cox_score_info(beta, data)
        if separation:
            break
    if not separation and np.max(np.abs(score)) < tol:
        converged = True
    cov = np.linalg.inv(info)
    return beta, cov, it, converged, separation


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


def score_info(beta, times, X):
    return row_cox_score_info(beta, sort_for_cox(times, X))


def cox_fit_design(times, X, **kw):
    """The pattern fit of a 0/1 design: (beta, covariance, iterations, reason)."""
    return _cox_newton(_cox_patterns(times, list(X.T), tie_groups(times)), **kw)


def pattern_score_info(beta, times, X):
    return _cox_score_info(beta, _cox_patterns(times, list(X.T), tie_groups(times)))


def pattern_cox_loglik(beta, times, X):
    return cox_loglik(beta, _cox_patterns(times, list(X.T), tie_groups(times)))


def assert_rel_close(got, want, rel, label):
    """``got`` within ``rel`` of ``want``, relative to the largest entry of ``want``."""
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want)), label


def survival_design(n, seed, covariates=True):
    cohort = gen_survival_cohort(SurvivalGenConfig(beta_t=-0.4), np.random.default_rng(seed), n)
    cols = [cohort.arm, cohort.x1, cohort.x2] if covariates else [cohort.arm]
    return np.minimum(cohort.e_death, cohort.e_hosp), np.column_stack(cols).astype(float)


def halving_design():
    """A small 0/1 design whose Newton path halves one step (found by search)."""
    rng = np.random.default_rng(474)
    arm = rng.integers(0, 2, 10)
    x = rng.integers(0, 2, 10)
    times = rng.exponential(1, 10) * np.exp(-2 * arm - 3 * x)
    return times, np.column_stack([arm, x]).astype(float)


def random_binary_design(rng, n, k):
    """Event times and an n x k 0/1 design whose columns all vary."""
    while True:
        X = rng.integers(0, 2, (n, k)).astype(float)
        times = rng.exponential(1.0, n) + 1e-6
        if np.all(X.std(axis=0) > 0):
            return times, X


class LoglikCounter:
    def __init__(self, monkeypatch):
        self.calls = 0
        self.fn = classic_tests.cox_loglik
        monkeypatch.setattr(classic_tests, "cox_loglik", self)

    def __call__(self, *args):
        self.calls += 1
        return self.fn(*args)


class CoxCallLog:
    """The ``cox_loglik`` values and the ``_cox_score_info`` calls of a fit, in call order."""

    def __init__(self, monkeypatch):
        self.calls = []
        for name in ("cox_loglik", "_cox_score_info"):
            monkeypatch.setattr(classic_tests, name, self._recording(name, getattr(classic_tests, name)))

    def _recording(self, name, fn):
        def call(*args):
            result = fn(*args)
            self.calls.append((name, result))
            return result

        return call


def _fit_cases():
    for n in (60, 200, 4000):
        yield f"tie-free N={n}", *survival_design(n, n), {}
    times, X = survival_design(300, 7)
    yield "tie-heavy", np.round(times, 1) + 0.1, X, {}
    arm = np.arange(12) % 2
    yield "separated", np.where(arm == 1, 100.0 + np.arange(12), 1.0 + 0.01 * np.arange(12)), \
        arm[:, None].astype(float), {}
    yield "step halving", *halving_design(), {}
    yield "single column", *survival_design(200, 3, covariates=False), {}
    yield "max_iter exhausted", *survival_design(200, 4), {"max_iter": 1}
    times, X = survival_design(200, 5)
    shuffle = np.random.default_rng(6).permutation(200)
    yield "shuffled rows", times[shuffle], X[shuffle], {}
    yield "shuffled rows with ties", np.round(times, 1)[shuffle] + 0.1, X[shuffle], {}
    times, X = survival_design(300, 8)
    present = ~X.all(axis=1)  # no row with arm = x1 = x2 = 1
    yield "absent pattern", times[present], X[present], {}


def test_cox_ph_matches_per_row_oracle():
    names = set()
    for name, times, X, kw in _fit_cases():
        beta, cov, iterations, reason = cox_fit_design(times, X, **kw)
        want_beta, want_cov, want_iterations, converged, separation = row_cox_ph(times, X, **kw)
        assert (iterations, reason is None, reason == "separation") == (
            want_iterations, converged, separation), name
        assert_rel_close(beta, want_beta, 1e-10, name)
        assert_rel_close(cov, want_cov, 1e-10, name)
        names.add(name)
        if name == "separated":
            assert reason == "separation"
        if name == "max_iter exhausted":
            assert iterations == 1 and reason == "non-convergence"
    assert len(names) == 11


def test_halving_design_halves_a_step(monkeypatch):
    counter = LoglikCounter(monkeypatch)
    _, _, iterations, reason = cox_fit_design(*halving_design())
    assert reason is None
    assert counter.calls > iterations + 1


@pytest.mark.parametrize("seed", [30, 222, 229, 287])
def test_cox_converges_where_an_absolute_line_search_bound_stalled(seed):
    # at N=1000 |ll| is about 5800, where one ulp is about 1e-12: an absolute
    # acceptance bound of 1e-12 halved near-optimal steps at random, and these
    # fits crawled to max_iter without converging
    # cox_fit raises DegenerateResultError on separation or non-convergence
    cfg = SurvivalGenConfig(beta_t=math.log(0.6))
    res = cox_fit(gen_survival_cohort(cfg, np.random.default_rng(seed), 1000))
    assert res.iterations <= 3


def fit_cohort_cases():
    """Cohorts whose cox_fit drops none, one or both covariate columns, with and without ties."""
    for seed, n in ((20, 60), (21, 200), (22, 1000)):
        cohort = gen_survival_cohort(SurvivalGenConfig(beta_t=math.log(0.6)), np.random.default_rng(seed), n)
        zeros, ones = np.zeros(n, dtype=int), np.ones(n, dtype=int)
        tied = {"e_death": np.round(cohort.e_death, 1) + 0.1, "e_hosp": np.round(cohort.e_hosp, 1) + 0.1}
        for name, x1, x2 in (("", cohort.x1, cohort.x2), (", x1 constant", zeros, cohort.x2),
                             (", x2 constant", cohort.x1, ones), (", both constant", ones, zeros)):
            for ties, outcomes in (("tie-free", {"e_death": cohort.e_death, "e_hosp": cohort.e_hosp}),
                                   ("tied", tied)):
                yield f"{ties} N={n}{name}", make_cohort(cohort.arm, x1, x2, **outcomes)


def test_cox_fit_equals_cox_ph_on_the_design_matrix():
    # cox_fit codes the cohort's 0/1 columns itself; the pattern fit of the
    # float design with its constant columns dropped must agree in every field
    cases = 0
    for name, cohort in fit_cohort_cases():
        X = np.column_stack([cohort.arm, cohort.x1, cohort.x2]).astype(float)
        X = X[:, [True, *(0 < X[:, 1:].sum(axis=0)) & (X[:, 1:].sum(axis=0) < len(X))]]
        beta, cov, iterations, reason = cox_fit_design(cohort.first_event, X)
        assert reason is None, name
        b, se = float(beta[0]), math.sqrt(max(cov[0, 0], 0.0))
        z = b / se
        want = CoxResult(b, se, z, _two_sided_p(z), math.exp(b),
                         math.exp(b - 1.959963984540054 * se), math.exp(b + 1.959963984540054 * se),
                         iterations)
        assert cox_fit(cohort) == want, name
        assert iterations >= 2, name
        cases += 1
    assert cases == 24


def test_cox_fit_calls_the_module_loglik_once_per_iterate(monkeypatch):
    cohort = gen_survival_cohort(SurvivalGenConfig(beta_t=-0.4), np.random.default_rng(8), 200)
    plain = cox_fit(cohort)
    counter = LoglikCounter(monkeypatch)
    counted = cox_fit(cohort)
    assert counted == plain  # a fit that returns has converged
    assert counted.iterations >= 2
    assert counter.calls == counted.iterations + 1


@pytest.mark.parametrize("tied", [False, True])
def test_cox_loglik_matches_loop_oracle(tied):
    rng = np.random.default_rng(3)
    rng01 = np.random.default_rng(13)
    for _ in range(300):
        n = int(rng.integers(2, 60))
        times = rng.integers(1, 6, n).astype(float) if tied else rng.exponential(1.0, n)
        X = np.column_stack([rng.integers(0, 2, n), rng.normal(0, 1, n)]).astype(float)
        beta = rng.normal(0, 1, 2)
        assert row_cox_loglik(beta, times, X) == pytest.approx(
            loop_cox_loglik(beta, times, X), rel=1e-12)
        # the pattern kernel, on the same times with a 0/1 second column
        X[:, 1] = rng01.integers(0, 2, n)
        if times.min() < times.max():
            assert pattern_cox_loglik(beta, times, X) == pytest.approx(
                loop_cox_loglik(beta, times, X), rel=1e-12)


def worst_score_gap(score_info_fn, loglik_fn, beta, times, X, h=1e-6):
    """Largest gap between the score and central differences of the log-likelihood.

    Relative to max(|difference quotient|, 1).
    """
    score, _ = score_info_fn(beta, times, X)
    worst = 0.0
    for k in range(len(beta)):
        up, dn = beta.copy(), beta.copy()
        up[k] += h
        dn[k] -= h
        fd = (loglik_fn(up, times, X) - loglik_fn(dn, times, X)) / (2 * h)
        worst = max(worst, abs(score[k] - fd) / max(abs(fd), 1.0))
    return worst


def test_cox_score_matches_central_differences_small_cohorts():
    rng = np.random.default_rng(1)
    rng01 = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(3, 7))
        times = rng.exponential(1.0, n) + 1e-6
        X = np.column_stack([rng.integers(0, 2, n), rng.normal(0, 1, n)]).astype(float)
        if X[:, 0].std() == 0:
            continue
        beta = rng.normal(0, 0.5, 2)
        assert worst_score_gap(score_info, row_cox_loglik, beta, times, X) < 1e-6
        times, X = random_binary_design(rng01, n, 2)
        assert worst_score_gap(pattern_score_info, pattern_cox_loglik, beta, times, X) < 1e-6


def test_cox_information_matches_second_differences():
    rng = np.random.default_rng(2)
    h = 1e-5
    times = rng.exponential(1.0, 6) + 1e-6
    X = np.column_stack([np.array([0, 1, 0, 1, 1, 0]), rng.normal(0, 1, 6)]).astype(float)
    X01 = np.column_stack([X[:, 0], [1, 1, 0, 0, 1, 0]]).astype(float)
    beta = np.array([0.3, -0.2])
    for si, design in ((score_info, X), (pattern_score_info, X01)):
        _, info = si(beta, times, design)
        for k in range(2):
            up, dn = beta.copy(), beta.copy()
            up[k] += h
            dn[k] -= h
            s_up, _ = si(up, times, design)
            s_dn, _ = si(dn, times, design)
            fd_row = -(s_up - s_dn) / (2 * h)
            assert np.allclose(info[k], fd_row, rtol=1e-5, atol=1e-5)


def test_cox_identical_arms_give_null_fit():
    # each time once per arm
    times = np.repeat([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 2)
    res = cox_fit(make_cohort([1, 0] * 6, e_death=times, e_hosp=times + 100))
    assert res.beta_t_hat == pytest.approx(0.0, abs=1e-8)
    assert res.hr == pytest.approx(1.0, abs=1e-8)  # returned, so converged


def test_cox_time_scale_invariance():
    rng = np.random.default_rng(3)
    n = 40
    times = rng.exponential(1.0, n) + 1e-9
    X = np.column_stack([rng.integers(0, 2, n), rng.integers(0, 2, n)]).astype(float)
    b1, _, _, _ = cox_fit_design(times, X)
    b2, _, _, _ = cox_fit_design(times * 17.3, X)
    assert np.allclose(b1, b2, atol=1e-8)


def test_cox_observed_information_psd_at_solution():
    rng = np.random.default_rng(4)
    n = 60
    times = rng.exponential(1.0, n) + 1e-9
    X = np.column_stack([rng.integers(0, 2, n), rng.normal(size=n)]).astype(float)
    X01 = np.column_stack([X[:, 0], X[:, 1] > 0]).astype(float)
    row_beta, _, _, converged, _ = row_cox_ph(times, X)
    beta, _, _, reason = cox_fit_design(times, X01)
    assert converged and reason is None
    for si, b, design in ((score_info, row_beta, X), (pattern_score_info, beta, X01)):
        _, info = si(b, times, design)
        eigs = np.linalg.eigvalsh(info)
        assert np.all(eigs >= -1e-9)


def test_cox_recovers_known_hazard_ratio():
    rng = np.random.default_rng(5)
    n = 4000
    arm = rng.integers(0, 2, n)
    times = rng.exponential(1.0, n) * np.exp(-math.log(2.0) * arm)
    b, _, _, reason = cox_fit_design(times, np.column_stack([arm]).astype(float))
    assert reason is None
    assert b[0] == pytest.approx(math.log(2.0), abs=0.08)


def separated_cohort():
    """12 rows, every treated first event after every control one."""
    i = np.arange(6)
    e_death = np.column_stack([100.0 + i, 1.0 + 0.01 * i]).ravel()  # treatment, control
    return make_cohort([1, 0] * 6, e_death=e_death, e_hosp=np.full(12, 200.0))


def collinear_cohort():
    """8 rows with x2 == 1 - x1, so the information matrix is singular."""
    x1 = np.array([0, 1] * 4)
    return make_cohort([1, 1, 1, 1, 0, 0, 0, 0], x1, 1 - x1,
                       e_death=np.arange(1.0, 9.0), e_hosp=np.full(8, 20.0))


def test_cox_separation_flagged_and_capped():
    cohort = separated_cohort()
    # the design cox_fit builds: x1 and x2 are constant, so the arm alone
    beta, _, _, reason = cox_fit_design(cohort.first_event, cohort.arm[:, None].astype(float))
    assert reason == "separation"
    assert abs(beta[0]) <= 15.0 + 1e-9
    with pytest.raises(DegenerateResultError, match="^separation$"):
        cox_fit(cohort)


def test_cox_singular_information_is_degenerate():
    # x2 == 1 - x1: the two covariate columns are collinear, and inverting
    # the information matrix raised LinAlgError out of monte_carlo
    with pytest.raises(DegenerateResultError, match="singular information matrix"):
        cox_fit(collinear_cohort())


def survival_defaults_cohort(n_total, replicate):
    """The cohort of one replicate of ``wrtrials simulate`` on the survival defaults with Cox."""
    cfg = scenario_from_dict({"design": "parallel", "outcome_family": "survival",
                              "generator": {}, "analyses": ["Cox"], "n_total": n_total})
    cohort, _ = trial_cohort(cfg, np.random.SeedSequence(cfg.master_seed).spawn(replicate + 1)[replicate])
    return cohort


def nan_trial_point_design():
    """Survival defaults at N=4, replicate 122 of the default master seed: a Newton step overflows exp."""
    cohort = survival_defaults_cohort(4, 122)
    X = np.column_stack([cohort.arm, cohort.x1, cohort.x2]).astype(float)
    assert X.T.tolist() == [[0, 0, 1, 1], [1, 0, 0, 0], [1, 0, 1, 1]]
    return cohort.first_event, X


def accepted_logliks(log):
    """The log-likelihood of each accepted iterate: the one evaluated last before its score."""
    accepted = [prev for (prev_name, prev), (name, _) in zip(log.calls, log.calls[1:])
                if name == "_cox_score_info" and prev_name == "cox_loglik"]
    assert len(accepted) == sum(name == "_cox_score_info" for name, _ in log.calls)
    return accepted


def test_cox_halves_a_nan_trial_point(monkeypatch):
    # the fit took the step to its NaN log-likelihood unhalved, because NaN <
    # bound is False
    times, X = nan_trial_point_design()
    log = CoxCallLog(monkeypatch)
    with np.errstate(over="ignore", invalid="ignore"):
        cox_fit_design(times, X)
    assert any(name == "cox_loglik" and math.isnan(ll) for name, ll in log.calls)
    accepted = accepted_logliks(log)
    assert len(accepted) >= 2 and all(math.isfinite(ll) for ll in accepted)


def test_cox_halves_an_infinite_trial_point(monkeypatch):
    # survival defaults at N=6, replicate 1351: every exp of a risk set
    # underflows at a trial point, log(0) = -inf makes its log-likelihood
    # +inf, and the fit took that step unhalved, because +inf passes the bound
    cohort = survival_defaults_cohort(6, 1351)
    log = CoxCallLog(monkeypatch)
    with pytest.raises(DegenerateResultError, match="singular information matrix"):
        cox_fit(cohort)
    assert any(name == "cox_loglik" and ll == math.inf for name, ll in log.calls)
    accepted = accepted_logliks(log)
    assert len(accepted) >= 2 and all(math.isfinite(ll) for ll in accepted)


def test_cox_nan_trial_point_warns_nothing():
    # the NaN trial point is expected and halved; numpy printed "overflow
    # encountered in exp" and "invalid value encountered in matmul" for it
    times, X = nan_trial_point_design()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        beta, _, _, reason = cox_fit_design(times, X)
    assert reason == "separation" and np.max(np.abs(beta)) == 15.0


def test_cox_underflowing_trial_point_warns_nothing():
    # survival defaults at N=6, replicate 1351, the first to warn: a Newton
    # trial point underflows every exp of a risk set, and numpy printed
    # "divide by zero encountered in log" for it
    cohort = survival_defaults_cohort(6, 1351)
    assert np.column_stack([cohort.arm, cohort.x1, cohort.x2]).T.tolist() == [
        [1, 1, 0, 0, 0, 1], [0, 0, 0, 1, 0, 1], [1, 1, 1, 0, 1, 0]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateResultError):
            cox_fit(cohort)


@pytest.mark.parametrize("reason", ["separation", "non-convergence", "singular information matrix"])
def test_each_cox_reason_reaches_the_trial_record_note(reason, monkeypatch):
    if reason == "non-convergence":
        cohort = gen_survival_cohort(SurvivalGenConfig(beta_t=-0.4), np.random.default_rng(4), 200)
        # one step of cox_fit's Newton core leaves |score| above 1e-8
        newton = classic_tests._cox_newton
        monkeypatch.setattr(classic_tests, "_cox_newton", lambda data: newton(data, max_iter=1))
    else:
        cohort = separated_cohort() if reason == "separation" else collinear_cohort()
    n = len(cohort)
    cfg = ScenarioConfig("parallel", "survival", SurvivalGenConfig(), ("Cox",), n)
    record = harness._run_analyses(cfg, cohort, np.random.default_rng(0))["Cox"]
    assert record.degenerate and record.note == reason


def test_cox_breslow_handles_ties():
    times = np.array([1.0, 1.0, 2.0, 2.0, 3.0, 4.0])
    X = np.column_stack([[1, 0, 1, 0, 1, 0]]).astype(float)
    beta, _, _, reason = cox_fit_design(times, X)
    assert reason is None
    # independent check of the tied-likelihood gradient at the solution
    score, _ = score_info(beta, times, X)
    assert abs(score[0]) < 1e-7


def test_cox_rejects_degenerate_inputs():
    times = np.array([1.0, 1.0])
    with pytest.raises(ValueError, match="two distinct event times"):
        _cox_patterns(times, [np.array([1, 0])], tie_groups(times))


@pytest.mark.parametrize("arm,missing", [(Arm.TREATMENT, "control"), (Arm.CONTROL, "treatment")])
def test_cox_fit_rejects_a_cohort_with_one_arm(arm, missing):
    # dropping the constant arm column used to report the x1 coefficient as
    # the treatment effect (beta_t_hat=1.02, p=0.023 on the all-treatment cohort)
    rng = np.random.default_rng(9)
    x1 = rng.integers(0, 2, 30)
    times = rng.exponential(1.0, 30) * np.exp(-x1)
    cohort = make_cohort(np.full(30, arm), x1, e_death=times, e_hosp=times + 100)
    with pytest.raises(ValueError, match=f"no {missing} patients"):
        cox_fit(cohort)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_cox_rejects_non_finite_inputs(bad):
    times = np.array([bad, 1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="finite"):
        _cox_patterns(times, [np.array([1, 0, 1, 0])], tie_groups(times))


# ---------------------------------------------------------------------------
# O'Brien rank-sum-type test


@pytest.mark.parametrize("kind", ["tie-free", "tie-heavy", "all-equal", "length-1"])
def test_midranks_equal_rankdata(kind):
    rng = np.random.default_rng(12)
    for n in (1, 2, 7, 60, 501):
        x = {
            "tie-free": lambda: rng.exponential(1, n),
            "tie-heavy": lambda: -rng.integers(0, 4, n).astype(float),
            "all-equal": lambda: np.full(n, 2.5),
            "length-1": lambda: rng.normal(size=1),
        }[kind]()
        got, want = midranks(x), rankdata(x)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_obrien_hand_anova():
    values = np.array([[1.0], [2.0], [3.0], [4.0]])
    groups = np.array([0, 0, 1, 1])
    res = obrien_test(values, groups)
    assert res.f_stat == pytest.approx(8.0)
    assert res.df == (1, 2)
    assert res.rank_sums[0] == pytest.approx(1.5)
    assert res.rank_sums[1] == pytest.approx(3.5)


def test_obrien_string_labels_match_f_oneway_on_midrank_sums():
    rng = np.random.default_rng(14)
    n = 90
    values = np.column_stack([rng.exponential(1.0, n), rng.integers(0, 5, n)])
    arm = (np.arange(n) % 3 == 0).astype(int)  # 30 treated, 60 control
    values[arm == 1] += 0.5
    res = obrien_test(values, arm)
    sums = rankdata(values[:, 0]) + rankdata(values[:, 1])
    want = f_oneway(sums[arm == 0], sums[arm == 1])
    assert res.f_stat == pytest.approx(want.statistic, rel=1e-12)
    assert res.p_value == pytest.approx(want.pvalue, rel=1e-12)
    assert res.df == (1, n - 2)
    assert set(res.rank_sums) == {0, 1}
    for g in (0, 1):
        assert res.rank_sums[g] == pytest.approx(sums[arm == g].mean(), rel=1e-12)


def test_obrien_refuses_labels_other_than_two_arms():
    for labels in (np.array(["control", "control", "treated", "treated"]),
                   np.array([0, 0, 2, 2]), np.array([0, 0, 1, 1, 2, 2])):
        values = np.arange(float(len(labels)))[:, None]
        with pytest.raises(ValueError, match=r"0 \(control\) and 1 \(treatment\)"):
            obrien_test(values, labels)
    # any 0/1 dtype is an arm, as a Cohort's arm may be
    values = np.array([[1.0], [3.0], [2.0], [4.0], [6.0]])
    arm = np.array([0, 0, 1, 1, 1])
    assert obrien_test(values, arm.astype(float)) == obrien_test(values, arm)


def test_obrien_identical_groups_f_zero():
    values = np.array([[1.0, 5.0], [2.0, 6.0], [1.0, 5.0], [2.0, 6.0]])
    groups = np.array([0, 0, 1, 1])
    res = obrien_test(values, groups)
    assert res.f_stat == pytest.approx(0.0, abs=1e-12)
    assert res.p_value == pytest.approx(1.0)


# nu = n - 2 for every trial size n from 4 to 61, and larger ones up to the
# largest n_total; f over 9 decades around the tables' F values, then out to
# where only the power series in x is summed
_F1_NUS = [*range(2, 60), 98, 198, 498, 998, 3998, 2 * 10**4, 10**5, 10**9, 2**53 - 2]
_F1_FS = np.r_[0.0, np.geomspace(1e-6, 1e3, 400), np.geomspace(1e3, 1e300, 100)[1:], math.inf]


def test_f1_sf_matches_fdtrc():
    # scipy's fdtrc (Boost's ibetac) is the oracle; the port is not bit-identical
    # to it, but within 1e-11 relative wherever fdtrc is at least 1e-300,
    # exactly 1 at f = 0 and 0 at f = inf, and nonincreasing in f
    for nu in _F1_NUS:
        got = np.array([_f1_sf(float(f), nu) for f in _F1_FS])
        want = fdtrc(1, nu, _F1_FS)
        assert got[0] == 1.0 and got[-1] == 0.0
        assert np.all(np.diff(got) <= 0.0), nu
        big = want >= 1e-300
        rel = np.abs(got[big] - want[big]) / want[big]
        assert rel.max() <= 1e-11, (nu, _F1_FS[big][rel.argmax()], rel.max())
        assert np.all(got[~big] < 1e-290)


def _old_obrien_sums(values, arm):
    """The between and within sums of squares and the arm means, as obrien_test
    formed them before: ranks summed into zeros, the grand mean s.mean()."""
    s = np.zeros(len(arm))
    for k in range(values.shape[1]):
        s += rankdata(values[:, k])
    grand = s.mean()
    sizes = np.bincount(arm, minlength=2)
    means = (np.bincount(arm, weights=s) / sizes).tolist()
    ss_between = ss_within = 0.0
    for g, (size, mean) in enumerate(zip(sizes.tolist(), means)):
        ss_between += size * (mean - grand) ** 2
        ss_within += float(((s[arm == g] - mean) ** 2).sum())
    return ss_between, ss_within, means


@st.composite
def tied_endpoints(draw):
    """(n, K) values on a grid of 1-4 levels, K in 1..3, n in 4..220, and arms of 2+ rows."""
    n = draw(st.integers(4, 220))
    k = draw(st.integers(1, 3))
    grid = draw(st.lists(st.sampled_from((-2.0, 0.5, 1.0, 3.0, 7.25)), min_size=1, max_size=4, unique=True))
    values = draw(hnp.arrays(float, (n, k), elements=st.sampled_from(grid)))
    arm = draw(hnp.arrays(np.int64, n, elements=st.sampled_from((0, 1))))
    arm[:2], arm[2:4] = 0, 1
    return values, arm


@settings(derandomize=True, max_examples=200, deadline=None)
@given(tied_endpoints())
def test_obrien_sums_equal_the_old_formula_bit_for_bit(case):
    # the grand mean taken as K (n + 1) / 2, and one endpoint's ranks taken
    # as the sums, give the F and arm means of the zeros-and-mean formula
    values, arm = case
    n = len(arm)
    ss_between, ss_within, means = _old_obrien_sums(values, arm)
    if ss_within <= 0 and ss_between <= 0:
        with pytest.raises(DegenerateResultError):
            obrien_test(values, arm)
        return
    res = obrien_test(values, arm)
    f_stat = ss_between / (ss_within / (n - 2)) if ss_within > 0 else math.inf
    assert res.f_stat == f_stat
    assert res.rank_sums == dict(enumerate(means))
    assert res.p_value == _f1_sf(f_stat, n - 2)


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


def test_obrien_complete_separation_sentinel():
    # every treated rank above every control rank, each arm's ranks tied: no
    # spread within the arms, so F = inf and p = 0
    res = obrien_test(np.array([[1.0], [1.0], [0.0], [0.0]]), np.array([1, 1, 0, 0]))
    assert res.f_stat == math.inf and res.p_value == 0.0
    assert res.rank_sums == {0: 1.5, 1: 3.5}


@pytest.mark.parametrize("shape,message", [
    ((4,), "2-D"), ((4, 1, 1), "2-D"),
    ((1, 4), "sizes disagree"),  # one row of four endpoints, not transposed
])
def test_obrien_rejects_values_that_are_not_n_by_k(shape, message):
    values = np.arange(1.0, 5.0).reshape(shape)
    with pytest.raises(ValueError, match=message):
        obrien_test(values, np.array([0, 0, 1, 1]))


def test_obrien_needs_an_endpoint():
    with pytest.raises(ValueError, match="at least one endpoint"):
        obrien_test(np.empty((4, 0)), np.array([0, 0, 1, 1]))


def test_obrien_requires_group_sizes():
    with pytest.raises(ValueError):
        obrien_test(np.array([[1.0], [2.0], [3.0]]), np.array([0, 0, 1]))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_obrien_rejects_non_finite_values(bad):
    with pytest.raises(ValueError, match="finite"):
        obrien_test(np.array([[1.0], [bad], [3.0], [4.0]]), np.array([0, 0, 1, 1]))


def test_obrien_first_event_uses_min_time():
    cohort = make_cohort([1, 1, 0, 0], e_death=[9.0, 8.0, 1.0, 2.0], e_hosp=[5.0, 6.0, 7.0, 7.5])
    res = obrien_first_event(cohort)
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
