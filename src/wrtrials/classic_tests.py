"""Comparator analyses: Cox regression, rank-sum-type test, odds-ratio test."""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .core import Z_95, Cohort, DegenerateResultError, _f1_sf, _is_binary, _two_sided_p, tie_groups

BETA_CAP = 15.0


class CoxResult(NamedTuple):
    beta_t_hat: float
    se: float
    z: float
    p_value: float
    hr: float
    ci_low: float
    ci_high: float
    iterations: int


class ObrienResult(NamedTuple):
    f_stat: float
    df: tuple[int, int]
    p_value: float
    rank_sums: dict


class OrResult(NamedTuple):
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


@functools.cache
def _pattern_tables(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """k columns' ``xp``, ``xp1``, ``diff`` and one-hot pattern rows, built on first use, read-only."""
    xp = (np.arange(2**k)[:, None] >> np.arange(k) & 1).astype(float)
    tables = (xp, np.column_stack([np.ones(2**k), xp]), (xp[:, None] - xp[None]).reshape(-1, k),
              np.eye(2**k, dtype=bool))
    for table in tables:
        table.flags.writeable = False
    return tables


def _cox_patterns(times: np.ndarray, columns, ties) -> _CoxPatterns:
    """The patterns of a fit from its times, its k 0/1 design columns and ``tie_groups(times)``."""
    if not np.isfinite(times).all():
        raise ValueError("event times must be finite")
    # tie groups share the risk set of their first row, and the counts at a
    # group start do not depend on the order inside the group
    order, start, stop = ties
    if len(start) < 2:
        raise ValueError("need at least two distinct event times")
    k = len(columns)
    code = columns[0].astype(np.intp)  # each row's pattern: column j is bit j
    for j in range(1, k):
        code += columns[j].astype(np.intp) << j
    # each row's pattern as a one-hot row of an (N, 2^k) matrix, latest time
    # first: numpy accumulates down the rows of a narrow matrix faster than
    # along the rows of a wide one, and in int32 about twice as fast as in float64
    xp, xp1, diff, one_hot = _pattern_tables(k)
    rows = one_hot.take(code[order[::-1]], axis=0)
    at_risk = rows.cumsum(axis=0, dtype=np.int32)[::-1]
    totals = at_risk[0].astype(float)  # every row is at risk at the first time
    if len(start) < len(times):  # a tied row takes the counts of its group start
        at_risk = at_risk[start.repeat(stop - start)]
    # exact integer counts, so the float (2^k, N) copy holds the same values
    # in the row-contiguous layout the matrix products run over
    return _CoxPatterns(xp, xp1, diff, totals, totals @ xp, at_risk.T.astype(float, order="C"))


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
    pair_weight = ((data.at_risk * r**2) @ data.at_risk.T) * (w[:, None] * w)
    info = 0.5 * (data.diff.T * pair_weight.ravel()) @ data.diff
    return score, info


def _cox_newton(
    data: _CoxPatterns, max_iter: int = 50, tol: float = 1e-8
) -> tuple[np.ndarray, np.ndarray, int, str | None]:
    """Fit the Breslow partial likelihood of a pattern-coded design by damped Newton iteration.

    Returns (beta, covariance, iterations, reason), where reason is None on
    convergence, "separation" when a coefficient passed the |beta| = 15 cap
    (it is clipped there and the fit stops) or "non-convergence" after
    ``max_iter`` steps.  A singular information matrix raises
    ``DegenerateResultError``.  An iterate costs O(N 2^k): 2^k ``exp`` calls
    and one product with the (2^k, N) at-risk counts.  The score and
    information are evaluated once per iterate (iterations + 1 times) and
    serve the convergence test, the next step and the returned covariance;
    the log-likelihood is evaluated once at the start and once per trial point.
    """
    beta = np.zeros(data.xp.shape[1])
    ll = cox_loglik(beta, data)
    score, info = _cox_score_info(beta, data)
    iterations, reason = 0, None
    while reason is None and not np.abs(score).max() < tol:
        if iterations == max_iter:
            reason = "non-convergence"
            break
        try:
            step = np.linalg.solve(info, score)
        except np.linalg.LinAlgError:
            step = score / max(np.abs(info.diagonal()).max(), 1.0)
        new_beta = beta + step
        halvings = 0
        # a relative bound: |ll| grows like N log N, and an absolute 1e-12
        # falls below its rounding noise, halving near-optimal steps at random;
        # a NaN trial point (an exp overflow) and a +inf one (every exp of a
        # risk set underflows, and log(0) = -inf) are halved too, without a warning
        bound = ll - 1e-12 * max(1.0, abs(ll))
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            new_ll = cox_loglik(new_beta, data)
            while not bound <= new_ll < math.inf and halvings < 30:
                step *= 0.5
                new_beta = beta + step
                new_ll = cox_loglik(new_beta, data)
                halvings += 1
        beta, ll = new_beta, new_ll
        iterations += 1
        if np.abs(beta).max() > BETA_CAP:
            reason = "separation"  # stops the fit whatever the score at the cap
            beta = beta.clip(-BETA_CAP, BETA_CAP)
        score, info = _cox_score_info(beta, data)
    try:
        cov = np.linalg.inv(info)
    except np.linalg.LinAlgError:  # collinear columns, or a separated fit
        raise DegenerateResultError("singular information matrix") from None
    return beta, cov, iterations, reason


def cox_fit(cohort: Cohort) -> CoxResult:
    """Cox regression of the time to first event on arm and the nonconstant covariates.

    The Wald statistic refers to the treatment coefficient; covariate
    coefficients are nuisance terms.  A cohort without both arms raises
    ``ValueError``.  A fit without a usable estimate raises
    ``DegenerateResultError`` with one of three reasons: "singular information
    matrix", "separation" (a coefficient reached the |beta| = 15 cap) or
    "non-convergence" (the Newton loop ended with |score| >= 1e-8).

    The cohort's columns are 0/1 already, so no design matrix is built: the
    fit codes each row as its pattern arm + 2 x1 + 4 x2, a constant
    covariate's bit dropped.  The times and their tie groups are the
    cohort's kept ``first_event`` and ``first_event_ties``, which
    ``obrien_first_event`` shares.
    """
    times = cohort.first_event
    n = len(cohort)
    n_treated = int(cohort.arm.sum())
    if n_treated in (0, n):
        missing = "treatment" if n_treated == 0 else "control"
        raise ValueError(f"Cox analysis needs both arms: the cohort has no {missing} patients")
    columns = [cohort.arm] + [x for x in (cohort.x1, cohort.x2) if 0 < x.sum() < n]
    beta, cov, iters, reason = _cox_newton(_cox_patterns(times, columns, cohort.first_event_ties))
    if reason is not None:
        raise DegenerateResultError(reason)
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
    )


# ---------------------------------------------------------------------------
# O'Brien rank-sum-type test


def midranks(x: np.ndarray, ties=None) -> np.ndarray:
    """Ranks 1..n of ``x``; tied entries share the mean of their ranks.

    The same values as ``scipy.stats.rankdata(x)``: each is an exact
    half-integer.  ``ties``, if given, is ``tie_groups(x)``.
    """
    order, start, stop = tie_groups(x) if ties is None else ties
    ranks = np.empty(len(x))
    ranks[order] = (0.5 * (start + stop + 1)).repeat(stop - start)
    return ranks


def obrien_test(values: np.ndarray, arm: np.ndarray, ties=None) -> ObrienResult:
    """Rank-sum-type test of two arms: pooled midranks per endpoint, ANOVA on rank sums.

    ``values`` is (n, K) with larger entries better; ``arm`` marks each row
    0 (control) or 1 (treatment), in any dtype.  Per endpoint the pooled
    sample is midranked, ranks are summed per patient, and a one-way ANOVA
    on (1, n - 2) degrees of freedom compares the two arms' sums, whose means
    ``rank_sums`` holds keyed 0 and 1.  ``ties``, if given, holds
    ``tie_groups`` of each endpoint.

    The p-value is the F(1, n - 2) tail P(F > f), the two-sided Student-t
    tail on n - 2 degrees of freedom, from ``core._f1_sf``: not bit-identical
    to ``scipy.special.fdtrc``, but within 3e-13 relative of it wherever
    that is at least 1e-300.  It enters a summary only through p < alpha.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ValueError(f"values must be a 2-D (n, K) array, got {values.ndim}-D")
    arm = np.asarray(arm)
    n = values.shape[0]
    if len(arm) != n:
        raise ValueError("values and arm sizes disagree")
    if not _is_binary(arm):
        raise ValueError("arm must hold 0 (control) and 1 (treatment) only")
    arm = arm.astype(np.intp)
    sizes = np.bincount(arm, minlength=2)
    if sizes.min() < 2:
        raise ValueError("each arm needs at least two patients")

    if not np.isfinite(values).all():
        raise ValueError("values must be finite")
    n_endpoints = values.shape[1]
    if n_endpoints == 0:
        raise ValueError("values need at least one endpoint column")

    # one endpoint's midranks are the sums; more add up exactly in any order,
    # as sums of half-integers, so the grand mean is K (n + 1) / 2 exactly and
    # the bincount gives the means of s[arm == g]
    s = midranks(values[:, 0], None if ties is None else ties[0])
    for k in range(1, n_endpoints):
        s += midranks(values[:, k], None if ties is None else ties[k])
    grand = n_endpoints * (n + 1) / 2
    means = (np.bincount(arm, weights=s) / sizes).tolist()
    ss_between = 0.0
    ss_within = 0.0
    for g, (size, mean) in enumerate(zip(sizes.tolist(), means)):
        ss_between += size * (mean - grand) ** 2
        # summed pairwise over the arm's rows, as s[arm == g].sum() would:
        # a bincount of the squares sums in another order and moves F by an ulp
        ss_within += float(((s[arm == g] - mean) ** 2).sum())
    if ss_within <= 0:
        if ss_between <= 0:
            raise DegenerateResultError("degenerate: rank sums constant across patients")
        f_stat = math.inf
        p = 0.0
    else:
        f_stat = ss_between / (ss_within / (n - 2))
        p = _f1_sf(f_stat, n - 2)
    return ObrienResult(f_stat=float(f_stat), df=(1, n - 2), p_value=p, rank_sums=dict(enumerate(means)))


def obrien_first_event(cohort: Cohort) -> ObrienResult:
    """Rank-sum-type test on the time to first event (longer is better).

    It ranks on the cohort's kept ``first_event_ties``, which ``cox_fit`` shares.
    """
    return obrien_test(cohort.first_event[:, None], cohort.arm, (cohort.first_event_ties,))


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
    corrected = bool((cells == 0).any())
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
