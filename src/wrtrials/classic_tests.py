"""Comparator analyses: Cox regression, rank-sum-type test, odds-ratio test."""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np
from scipy.stats import f as f_dist, norm, rankdata

from .core import Arm, DegenerateResultError, PatientRecord, SurvivalOutcome

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
    starts = np.flatnonzero(np.r_[True, t[1:] != t[:-1]])
    sizes = np.diff(np.r_[starts, len(t)])
    terms = np.add.reduceat(eta, starts) - sizes * np.log(rev_cum[starts])
    # cumsum adds the groups in time order, as a sequential sum would
    return float(np.cumsum(terms)[-1])


def _cox_score_info(beta, times, X):
    order = np.argsort(times, kind="stable")
    t, Xs = times[order], X[order]
    n, p = Xs.shape
    w = np.exp(Xs @ beta)
    s0 = np.cumsum(w[::-1])[::-1]
    s1 = np.cumsum((Xs * w[:, None])[::-1], axis=0)[::-1]
    s2 = np.cumsum((Xs[:, :, None] * Xs[:, None, :] * w[:, None, None])[::-1], axis=0)[::-1]
    # tie groups share the risk set of their first (earliest-index) member
    starts = np.ones(n, dtype=bool)
    starts[1:] = t[1:] != t[:-1]
    group_start = np.maximum.accumulate(np.where(starts, np.arange(n), 0))
    s0g = s0[group_start]
    s1g = s1[group_start]
    s2g = s2[group_start]
    xbar = s1g / s0g[:, None]
    score = (Xs - xbar).sum(axis=0)
    info = (s2g / s0g[:, None, None] - xbar[:, :, None] * xbar[:, None, :]).sum(axis=0)
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
    """
    times = np.asarray(times, dtype=float)
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or len(times) != X.shape[0]:
        raise ValueError("times and design matrix sizes disagree")
    if len(np.unique(times)) < 2:
        raise ValueError("need at least two distinct event times")
    sd = X.std(axis=0)
    if np.any(sd == 0):
        raise ValueError("design matrix has a constant column")

    beta = np.zeros(X.shape[1])
    ll = cox_loglik(beta, times, X)
    converged = False
    separation = False
    it = 0
    for it in range(1, max_iter + 1):
        score, info = _cox_score_info(beta, times, X)
        if np.max(np.abs(score)) < tol:
            converged = True
            it -= 1
            break
        try:
            step = np.linalg.solve(info, score)
        except np.linalg.LinAlgError:
            step = score / max(np.max(np.abs(np.diag(info))), 1.0)
        new_beta = beta + step
        new_ll = cox_loglik(new_beta, times, X)
        halvings = 0
        while new_ll < ll - 1e-12 and halvings < 30:
            step *= 0.5
            new_beta = beta + step
            new_ll = cox_loglik(new_beta, times, X)
            halvings += 1
        beta, ll = new_beta, new_ll
        if np.max(np.abs(beta)) > BETA_CAP:
            separation = True
            beta = np.clip(beta, -BETA_CAP, BETA_CAP)
            break
    score, info = _cox_score_info(beta, times, X)
    if not separation and np.max(np.abs(score)) < tol:
        converged = True
    cov = np.linalg.inv(info)
    return beta, cov, it, converged, separation


def first_event_times(cohort: list[PatientRecord]) -> np.ndarray:
    out = []
    for rec in cohort:
        o = rec.outcome
        if not isinstance(o, SurvivalOutcome):
            raise ValueError("Cox analysis needs survival outcomes")
        out.append(min(o.e_death, o.e_hosp))
    return np.array(out, dtype=float)


def cox_fit(cohort: list[PatientRecord], use_covariates: bool = True) -> CoxResult:
    """Cox regression of the time to first event on arm (plus covariates).

    The Wald statistic refers to the treatment coefficient; covariate
    coefficients are nuisance terms.
    """
    times = first_event_times(cohort)
    cols = [np.array([float(rec.arm == Arm.TREATMENT) for rec in cohort])]
    if use_covariates:
        cols.append(np.array([float(rec.covariates[0]) for rec in cohort]))
        cols.append(np.array([float(rec.covariates[1]) for rec in cohort]))
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
        p_value=float(2.0 * norm.sf(abs(z))),
        hr=safe_exp(b),
        ci_low=safe_exp(b - Z_95 * se),
        ci_high=safe_exp(b + Z_95 * se),
        iterations=iters,
        converged=converged,
        separation=separation,
    )


# ---------------------------------------------------------------------------
# O'Brien rank-sum-type test


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

    s = np.zeros(n)
    for k in range(values.shape[1]):
        s += rankdata(values[:, k])
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
        p = float(f_dist.sf(f_stat, df_b, df_w))
    return ObrienResult(f_stat=float(f_stat), df=(df_b, df_w), p_value=p, rank_sums=means)


def obrien_first_event(cohort: list[PatientRecord]) -> ObrienResult:
    """Rank-sum-type test on the time to first event (longer is better)."""
    times = first_event_times(cohort)
    groups = np.array([int(rec.arm) for rec in cohort])
    return obrien_test(times[:, None], groups)


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
        p_value=float(2.0 * norm.sf(abs(z))),
        corrected=corrected,
    )
