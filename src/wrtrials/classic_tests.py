"""Comparator analyses: Cox regression, rank-sum-type test, odds-ratio test."""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from typing import NamedTuple

import numpy as np
from scipy.special import fdtrc

from .core import Cohort, DegenerateResultError, _two_sided_p, tie_groups

Z_95 = 1.959963984540054
BETA_CAP = 15.0


@dataclass(frozen=True)
class CoxResult:
    beta_t_hat: float
    se: float
    z: float
    p_value: float
    hr: float
    ci_low: float
    ci_high: float
    iterations: int
    converged: bool
    separation: bool = False

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ObrienResult:
    f_stat: float
    df: tuple[int, int]
    p_value: float
    rank_sums: dict

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class OrResult:
    table: tuple[int, int, int, int]
    or_hat: float
    se_log: float
    z: float
    p_value: float
    corrected: bool = False

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# Cox proportional hazards


def cox_loglik(beta: np.ndarray, times: np.ndarray, X: np.ndarray) -> float:
    """Breslow partial log-likelihood, every time an observed event."""
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


class _SortedCox(NamedTuple):
    """A fit's rows sorted by time once, with what every Newton iterate reuses."""

    t: np.ndarray
    X: np.ndarray
    XX: np.ndarray  # per-row outer products X_i X_i^T
    group_start: np.ndarray  # first row of each row's tie group (the identity without ties)


def _sort_for_cox(times: np.ndarray, X: np.ndarray) -> _SortedCox:
    order = np.argsort(times, kind="stable")
    t, Xs = times[order], X[order]
    starts = np.ones(len(t), dtype=bool)
    starts[1:] = t[1:] != t[:-1]
    # tie groups share the risk set of their first (earliest-index) member
    group_start = np.maximum.accumulate(np.where(starts, np.arange(len(t)), 0))
    return _SortedCox(t, Xs, Xs[:, :, None] * Xs[:, None, :], group_start)


def _cox_score_info(beta: np.ndarray, data: _SortedCox) -> tuple[np.ndarray, np.ndarray]:
    """Score and observed information of the Breslow partial likelihood at ``beta``."""
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


def cox_ph(
    times: np.ndarray,
    X: np.ndarray,
    max_iter: int = 50,
    tol: float = 1e-8,
) -> tuple[np.ndarray, np.ndarray, int, bool, bool]:
    """Fit the partial likelihood by damped Newton iteration.

    Returns (beta, covariance, iterations, converged, separation).  Ties are
    handled with the Breslow approximation.  When the likelihood is monotone
    (complete separation) coefficients are capped at |beta| <= 15 and the
    fit is flagged.

    A fit sorts the times once.  The score and information are evaluated
    once per iterate (iterations + 1 times) and serve the convergence test,
    the next Newton step and the returned covariance; the log-likelihood is
    evaluated once at the start and once per trial point of each step.
    """
    times = np.asarray(times, dtype=float)
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or len(times) != X.shape[0]:
        raise ValueError("times and design matrix sizes disagree")
    if X.shape[1] == 0:
        raise ValueError("design matrix has no columns")
    if not (np.all(np.isfinite(times)) and np.all(np.isfinite(X))):
        raise ValueError("event times and design matrix must be finite")
    data = _sort_for_cox(times, X)
    t, Xs = data.t, data.X
    if len(t) < 2 or t[0] == t[-1]:
        raise ValueError("need at least two distinct event times")
    sd = X.std(axis=0)
    if np.any(sd == 0):
        raise ValueError("design matrix has a constant column")

    beta = np.zeros(X.shape[1])
    ll = cox_loglik(beta, t, Xs)
    score, info = _cox_score_info(beta, data)
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
        new_ll = cox_loglik(new_beta, t, Xs)
        halvings = 0
        # a relative bound: |ll| grows like N log N, and an absolute 1e-12
        # falls below its rounding noise, halving near-optimal steps at random
        while new_ll < ll - 1e-12 * max(1.0, abs(ll)) and halvings < 30:
            step *= 0.5
            new_beta = beta + step
            new_ll = cox_loglik(new_beta, t, Xs)
            halvings += 1
        beta, ll = new_beta, new_ll
        if np.max(np.abs(beta)) > BETA_CAP:
            separation = True
            beta = np.clip(beta, -BETA_CAP, BETA_CAP)
        score, info = _cox_score_info(beta, data)
        if separation:
            break
    if not separation and np.max(np.abs(score)) < tol:
        converged = True
    cov = np.linalg.inv(info)
    return beta, cov, it, converged, separation


def first_event_times(cohort: Cohort) -> np.ndarray:
    if cohort.e_death is None:
        raise ValueError("Cox analysis needs survival outcomes")
    return np.minimum(cohort.e_death, cohort.e_hosp)


def cox_fit(cohort: Cohort, use_covariates: bool = True) -> CoxResult:
    """Cox regression of the time to first event on arm (plus covariates).

    The Wald statistic refers to the treatment coefficient; covariate
    coefficients are nuisance terms.
    """
    times = first_event_times(cohort)
    cols = [cohort.arm.astype(float)]
    if use_covariates:
        cols += [cohort.x1.astype(float), cohort.x2.astype(float)]
        cols = [c for c in cols if c.std() > 0]
    X = np.column_stack(cols)
    beta, cov, iters, converged, separation = cox_ph(times, X)
    b = float(beta[0])
    se = float(math.sqrt(max(cov[0, 0], 0.0)))
    z = b / se if se > 0 else math.copysign(math.inf, b)
    safe_exp = lambda v: math.exp(v) if v < 700 else math.inf
    return CoxResult(
        beta_t_hat=b,
        se=se,
        z=z,
        p_value=_two_sided_p(z),
        hr=safe_exp(b),
        ci_low=safe_exp(b - Z_95 * se),
        ci_high=safe_exp(b + Z_95 * se),
        iterations=iters,
        converged=converged,
        separation=separation,
    )


# ---------------------------------------------------------------------------
# O'Brien rank-sum-type test


def midranks(x: np.ndarray) -> np.ndarray:
    """Ranks 1..n of ``x``; tied entries share the mean of their ranks.

    The same values as ``scipy.stats.rankdata(x)``: each is an exact
    half-integer.
    """
    order, start, stop = tie_groups(x)
    ranks = np.empty(len(x))
    ranks[order] = np.repeat(0.5 * (start + stop + 1), stop - start)
    return ranks


def obrien_test(values: np.ndarray, groups: np.ndarray) -> ObrienResult:
    """Rank-sum-type test: pooled midranks per endpoint, ANOVA on rank sums.

    ``values`` is (n, K) with larger entries better; ``groups`` labels each
    row.  Per endpoint the pooled sample is midranked, ranks are summed per
    patient, and a one-way ANOVA compares the sums across groups.
    """
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if values.shape[0] == 1 and values.shape[1] > 1 and len(np.asarray(groups)) == values.shape[1]:
        values = values.T
    groups = np.asarray(groups)
    n = values.shape[0]
    if len(groups) != n:
        raise ValueError("values and groups sizes disagree")
    labels = np.unique(groups)
    if len(labels) < 2:
        raise ValueError("need at least two groups")
    if min(int((groups == g).sum()) for g in labels) < 2:
        raise ValueError("each group needs at least two patients")

    if not np.all(np.isfinite(values)):
        raise ValueError("values must be finite")

    s = np.zeros(n)
    for k in range(values.shape[1]):
        s += midranks(values[:, k])
    grand = s.mean()
    ss_between = 0.0
    ss_within = 0.0
    means = {}
    for g in labels:
        sg = s[groups == g]
        means[g] = float(sg.mean())
        ss_between += len(sg) * (sg.mean() - grand) ** 2
        ss_within += float(((sg - sg.mean()) ** 2).sum())
    df_b = len(labels) - 1
    df_w = n - len(labels)
    if ss_within <= 0:
        if ss_between <= 0:
            raise DegenerateResultError("degenerate: rank sums constant across patients")
        f_stat = math.inf
        p = 0.0
    else:
        f_stat = (ss_between / df_b) / (ss_within / df_w)
        p = float(fdtrc(df_b, df_w, f_stat))  # the F survival function
    return ObrienResult(f_stat=float(f_stat), df=(df_b, df_w), p_value=p, rank_sums=means)


def obrien_first_event(cohort: Cohort) -> ObrienResult:
    """Rank-sum-type test on the time to first event (longer is better)."""
    return obrien_test(first_event_times(cohort)[:, None], cohort.arm)


# ---------------------------------------------------------------------------
# contingency-table odds ratio


def contingency_or_test(
    treatment_success: np.ndarray, control_success: np.ndarray
) -> OrResult:
    """Wald test of the success odds ratio from a 2x2 table.

    A zero cell triggers the Haldane-Anscombe correction: 0.5 is added to
    all four cells before the estimate and its variance are formed.
    """
    t = np.asarray(treatment_success).astype(bool)
    c = np.asarray(control_success).astype(bool)
    if len(t) == 0 or len(c) == 0:
        raise ValueError("both arms must be nonempty")
    n11 = int(t.sum())
    n10 = int(len(t) - n11)
    n01 = int(c.sum())
    n00 = int(len(c) - n01)
    cells = np.array([n11, n10, n01, n00], dtype=float)
    corrected = bool(np.any(cells == 0))
    if corrected:
        cells = cells + 0.5
    a, b, cc, d = cells
    or_hat = (a * d) / (b * cc)
    se = math.sqrt((1 / cells).sum())
    z = math.log(or_hat) / se
    return OrResult(
        table=(n11, n10, n01, n00),
        or_hat=float(or_hat),
        se_log=float(se),
        z=float(z),
        p_value=_two_sided_p(z),
        corrected=corrected,
    )
