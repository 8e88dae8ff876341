"""Comparator analyses: Cox regression, rank-sum-type test, odds-ratio test."""

from __future__ import annotations

import math
from dataclasses import dataclass
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


@dataclass(frozen=True)
class ObrienResult:
    f_stat: float
    df: tuple[int, int]
    p_value: float
    rank_sums: dict


@dataclass(frozen=True)
class OrResult:
    table: tuple[int, int, int, int]
    or_hat: float
    se_log: float
    z: float
    p_value: float
    corrected: bool = False


# ---------------------------------------------------------------------------
# Cox proportional hazards


class _CoxPatterns(NamedTuple):
    """A 0/1 design reduced to its 2^k covariate patterns, sorted by time once.

    Pattern p's covariates are the bits of p (column j is bit j).  Every
    Newton iterate reuses the integer at-risk counts: the rows of each
    pattern at risk at each row's tie-group start, one time-ordered row of
    N counts per pattern (held as floats for the matrix products).
    """

    xp: np.ndarray  # (P, k) pattern covariates
    xp1: np.ndarray  # (P, 1 + k) a column of ones, then xp
    diff: np.ndarray  # (P * P, k) x_p - x_q for every pair of patterns
    totals: np.ndarray  # (P,) rows of each pattern
    sum_x: np.ndarray  # (k,) column sums of the design
    at_risk: np.ndarray  # (P, N)


def _cox_patterns(times: np.ndarray, X: np.ndarray) -> _CoxPatterns:
    n, k = X.shape
    # tie groups share the risk set of their first row, and the counts at a
    # group start do not depend on the order inside the group
    order = np.argsort(times)
    t = times[order]
    if n < 2 or t[0] == t[-1]:
        raise ValueError("need at least two distinct event times")
    code = (X @ 2.0 ** np.arange(k)).astype(np.intp)[order]
    rows = np.arange(2**k)[:, None] == code
    # counted in int32, which numpy accumulates about twice as fast as float64
    at_risk = np.cumsum(rows[:, ::-1], axis=1, dtype=np.int32)[:, ::-1]
    new = np.ones(n, dtype=bool)
    np.not_equal(t[1:], t[:-1], out=new[1:])
    group_start = np.maximum.accumulate(np.where(new, np.arange(n), 0))
    xp = (np.arange(2**k)[:, None] >> np.arange(k) & 1).astype(float)
    totals = at_risk[:, 0].astype(float)  # every row is at risk at the first time
    return _CoxPatterns(xp, np.column_stack([np.ones(2**k), xp]),
                        (xp[:, None] - xp[None]).reshape(-1, k), totals, totals @ xp,
                        at_risk.take(group_start, axis=1).astype(float))


def cox_loglik(beta: np.ndarray, data: _CoxPatterns) -> float:
    """Breslow partial log-likelihood, every time an observed event."""
    eta = data.xp @ beta
    return float(data.totals @ eta - np.log(np.exp(eta) @ data.at_risk).sum())


def _cox_score_info(beta: np.ndarray, data: _CoxPatterns) -> tuple[np.ndarray, np.ndarray]:
    """Score and observed information of the Breslow partial likelihood at ``beta``.

    Each risk set's covariance is written over pattern pairs, as
    sum_{p<q} pi_p pi_q (x_p - x_q)(x_p - x_q)^T with pi_p = c_p w_p / s0.
    Its pair weights are nonnegative, so a risk set that holds one pattern
    adds exactly zero, where s2/s0 - xbar xbar^T summed over the rows would
    leave the rounding noise of a cancellation.
    """
    w = np.exp(data.xp @ beta)
    s = (data.xp1 * w[:, None]).T @ data.at_risk  # (1 + k, N): s0, then s1
    r = 1.0 / s[0]
    score = data.sum_x - s[1:] @ r
    pair_weight = ((data.at_risk * r**2) @ data.at_risk.T) * np.outer(w, w)
    info = 0.5 * (data.diff.T * pair_weight.ravel()) @ data.diff
    return score, info


# at most 2^8 patterns: the at-risk counts take N * 2^k floats
_MAX_COX_COLUMNS = 8


def cox_ph(
    times: np.ndarray,
    X: np.ndarray,
    max_iter: int = 50,
    tol: float = 1e-8,
) -> tuple[np.ndarray, np.ndarray, int, bool, bool]:
    """Fit the partial likelihood of a 0/1 design by damped Newton iteration.

    Returns (beta, covariance, iterations, converged, separation).  Ties are
    handled with the Breslow approximation.  When the likelihood is monotone
    (complete separation) coefficients are capped at |beta| <= 15 and the
    fit is flagged.

    Every entry of ``X`` must be 0 or 1, so the N rows hold at most 2^k
    distinct covariate patterns.  A fit sorts the times once and counts
    each pattern's rows at risk at every tie-group start; the risk-set sums
    of an iterate are then one product with those (2^k, N) counts, after
    2^k ``exp`` calls, so an iterate costs O(N 2^k).  The score and
    information are evaluated once per iterate (iterations + 1 times) and
    serve the convergence test, the next Newton step and the returned
    covariance; the log-likelihood is evaluated once at the start and once
    per trial point of each step.
    """
    times = np.asarray(times, dtype=float)
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or len(times) != X.shape[0]:
        raise ValueError("times and design matrix sizes disagree")
    if X.shape[1] == 0:
        raise ValueError("design matrix has no columns")
    if X.shape[1] > _MAX_COX_COLUMNS:
        raise ValueError(f"design matrix has more than {_MAX_COX_COLUMNS} columns")
    if not (np.all(np.isfinite(times)) and np.all(np.isfinite(X))):
        raise ValueError("event times and design matrix must be finite")
    if not np.all((X == 0) | (X == 1)):
        raise ValueError("design matrix entries must be 0 or 1")
    data = _cox_patterns(times, X)
    if np.any((data.sum_x == 0) | (data.sum_x == len(times))):
        raise ValueError("design matrix has a constant column")

    beta = np.zeros(X.shape[1])
    ll = cox_loglik(beta, data)
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
        new_ll = cox_loglik(new_beta, data)
        halvings = 0
        # a relative bound: |ll| grows like N log N, and an absolute 1e-12
        # falls below its rounding noise, halving near-optimal steps at random
        while new_ll < ll - 1e-12 * max(1.0, abs(ll)) and halvings < 30:
            step *= 0.5
            new_beta = beta + step
            new_ll = cox_loglik(new_beta, data)
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


def cox_fit(cohort: Cohort) -> CoxResult:
    """Cox regression of the time to first event on arm and the nonconstant covariates.

    The Wald statistic refers to the treatment coefficient; covariate
    coefficients are nuisance terms.  A cohort without both arms raises
    ``ValueError``.
    """
    times = first_event_times(cohort)
    X = np.column_stack([cohort.arm, cohort.x1, cohort.x2]).astype(float)
    n_treated, n_x1, n_x2 = X.sum(axis=0)
    if n_treated in (0, len(X)):
        missing = "treatment" if n_treated == 0 else "control"
        raise ValueError(f"Cox analysis needs both arms: the cohort has no {missing} patients")
    X = X[:, [True, 0 < n_x1 < len(X), 0 < n_x2 < len(X)]]
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
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ValueError(f"values must be a 2-D (n, K) array, got {values.ndim}-D")
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
