"""Closed-form operating characteristics for the binary prioritized composite.

Matched analysis: the per-pair win/loss/tie probabilities are the cross-arm
ones of the unmatched analysis below, taken at the arms' event rates (one
bilinear formula serves both); the sample size either inverts the binomial
test actually used (``method="binomial"``, the default, validated by
simulation) or the ratio-scale normal approximation (``method="ratio"``),
which is retained because it is the published closed form but is markedly
anticonservative.

Unmatched analysis: the win ratio is a smooth function g of the six arm-wise
means theta = (p_t, q_t, p_t q_t, p_c, q_c, p_c q_c); the delta method gives
its asymptotic variance C^2 and the sample size formula
n_t = ((C0 Z_alpha - C1 Z_beta) / (g(theta1) - 1))^2.

Sign conventions, frozen here and in the tests: Z_alpha = Phi^-1(1 - alpha/2)
for a two-sided level alpha, Z_beta = Phi^-1(1 - power) (negative whenever
power exceeds one half).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import norm

from .core import ConfigError


@dataclass(frozen=True)
class WinProbs:
    p_w: float
    p_l: float
    p_tie: float


@dataclass(frozen=True)
class ThetaBinary:
    """Six-vector (p_t, q_t, p_t*q_t, p_c, q_c, p_c*q_c)."""

    theta: tuple[float, float, float, float, float, float]

    def __post_init__(self):
        t = self.theta
        if len(t) != 6 or any(not (0.0 <= v <= 1.0) for v in t):
            raise ConfigError("theta components must lie in [0, 1]")
        if abs(t[2] - t[0] * t[1]) > 1e-9 or abs(t[5] - t[3] * t[4]) > 1e-9:
            raise ConfigError("theta components 3 and 6 must be the products of (1,2) and (4,5)")

    @classmethod
    def from_rates(cls, p_t: float, q_t: float, p_c: float, q_c: float) -> "ThetaBinary":
        return cls((p_t, q_t, p_t * q_t, p_c, q_c, p_c * q_c))

    @property
    def mirrored(self) -> "ThetaBinary":
        t = self.theta
        return ThetaBinary((t[3], t[4], t[5], t[0], t[1], t[2]))


THETA_NULL = ThetaBinary((0.5, 0.5, 0.25, 0.5, 0.5, 0.25))


def _binary_win_loss(t: tuple[float, ...]) -> tuple[float, float]:
    """Cross-arm win and loss probabilities of the prioritized binary rule.

    ``t`` holds the six arm-wise means of (Y, X, XY), treatment then control:
    expectations or sample means alike.  Both probabilities are bilinear in
    them, which is what makes the win ratio a function of the arm-wise
    sample means alone.
    """
    t1, t2, t3, t4, t5, t6 = t
    w = (1 - t1) * t4 + (t1 - t3) * t6 + (1 - t1 - t2 + t3) * (t5 - t6)
    l = t1 * (1 - t4) + t3 * (t4 - t6) + (t2 - t3) * (1 - t4 - t5 + t6)
    return w, l


def matched_win_probs(p_t: float, q_t: float, p_c: float, q_c: float) -> WinProbs:
    """Per-pair win/loss/tie probabilities under the prioritized binary rule.

    Death and hospitalization indicators are independent Bernoulli draws
    within each patient; the pair compares death first, hospitalization on
    death ties.
    """
    p_w, p_l = _binary_win_loss(ThetaBinary.from_rates(p_t, q_t, p_c, q_c).theta)
    return WinProbs(p_w=p_w, p_l=p_l, p_tie=1.0 - p_w - p_l)


def z_alpha(alpha: float) -> float:
    return float(norm.ppf(1.0 - alpha / 2.0))


def z_beta(power: float) -> float:
    return float(norm.ppf(1.0 - power))


def matched_sample_size(
    p_a: float,
    p_tie: float,
    alpha: float = 0.05,
    power: float = 0.8,
    method: str = "binomial",
) -> tuple[int, int]:
    """Pairs needed for the matched win-ratio test.

    ``p_a`` is the win proportion among informative pairs under the
    alternative, ``p_tie`` the tie probability per pair.  Returns
    (n, n_pairs_total): informative pairs and total pairs enrolled
    (n / (1 - p_tie), rounded up).  One patient pair per unit, so the
    total patient count is 2 * n_pairs_total.

    ``method="binomial"`` inverts the level-alpha test of p = 1/2 that the
    matched procedure actually performs and meets the requested power in
    simulation.  ``method="ratio"`` is the closed form on the ratio scale
    p/(1-p) with null variance one; it returns far smaller sizes whose
    realized power falls short of the target (see the module docstring).
    """
    if not (0.5 < p_a < 1.0):
        raise ConfigError("no effect: sample size infinite (need 0.5 < p_a < 1)")
    if not (0.0 <= p_tie < 1.0):
        raise ConfigError("p_tie must lie in [0, 1)")
    if not (0.0 < alpha < 1.0 and 0.0 < power < 1.0):
        raise ConfigError("alpha and power must lie in (0, 1)")
    za, zb = z_alpha(alpha), z_beta(power)
    if method == "binomial":
        root_n = math.sqrt(p_a * (1.0 - p_a)) * (za - zb) / (p_a - 0.5)
        n = root_n**2
    elif method == "ratio":
        ratio = p_a / (1.0 - p_a)
        n = ((za - ratio * zb) / ((2.0 * p_a - 1.0) / (1.0 - p_a))) ** 2
    else:
        raise ConfigError(f"unknown method {method!r}")
    n = math.ceil(n - 1e-9)
    total = math.ceil(n / (1.0 - p_tie) - 1e-9)
    return n, total


def null_ratio_variance_candidates(p: float = 0.5) -> tuple[float, float]:
    """Two candidate limit variances for sqrt(n) (phat/(1-phat) - p/(1-p)).

    The first, p^2/(1-p)^2, treats the ratio itself as the plug-in scale;
    the second, p/(1-p)^3, is the delta-method variance of p -> p/(1-p)
    applied to a Bernoulli mean.  They agree nowhere except trivially; the
    simulation in the test suite measures which one the data obey (the
    second).  Both are surfaced so callers can see the discrepancy.
    """
    return (p**2 / (1.0 - p) ** 2, p / (1.0 - p) ** 3)


def measure_null_ratio_variance(n: int, reps: int, seed: int) -> float:
    """Empirical variance of sqrt(n)(phat/(1-phat) - 1) at p = 1/2."""
    rng = np.random.default_rng(seed)
    x = rng.binomial(n, 0.5, size=reps) / n
    x = np.clip(x, 1e-12, 1 - 1e-12)
    stat = math.sqrt(n) * (x / (1 - x) - 1.0)
    return float(stat.var())


# ---------------------------------------------------------------------------
# unmatched asymptotics


def unmatched_win_loss(theta: ThetaBinary) -> tuple[float, float]:
    """Expected per-pair win and loss probabilities across arms."""
    return _binary_win_loss(theta.theta)


def unmatched_g(theta: ThetaBinary) -> float:
    """Win ratio g(theta) = expected wins / expected losses."""
    w, l = unmatched_win_loss(theta)
    if l == 0:
        raise ZeroDivisionError("loss probability is zero: win ratio infinite")
    return w / l


def unmatched_g_gradient(theta: ThetaBinary) -> np.ndarray:
    """Analytic gradient of g; cross-checked against central differences."""
    t1, t2, t3, t4, t5, t6 = theta.theta
    w, l = unmatched_win_loss(theta)
    dw = np.array(
        [
            -t4 + t6 - (t5 - t6),
            -(t5 - t6),
            -t6 + (t5 - t6),
            1 - t1,
            1 - t1 - t2 + t3,
            (t1 - t3) - (1 - t1 - t2 + t3),
        ]
    )
    dl = np.array(
        [
            1 - t4,
            1 - t4 - t5 + t6,
            (t4 - t6) - (1 - t4 - t5 + t6),
            -t1 + t3 - (t2 - t3),
            -(t2 - t3),
            -t3 + (t2 - t3),
        ]
    )
    return (dw * l - w * dl) / l**2


def _bernoulli_block(p: float, q: float) -> np.ndarray:
    """Covariance of one patient's (Y, X, XY) with independent Y, X."""
    pq = p * q
    return np.array(
        [
            [p * (1 - p), 0.0, pq * (1 - p)],
            [0.0, q * (1 - q), pq * (1 - q)],
            [pq * (1 - p), pq * (1 - q), pq * (1 - pq)],
        ]
    )


def unmatched_variance(theta: ThetaBinary, n1: int, n0: int) -> float:
    """Delta-method variance C^2 of sqrt(n_t) (g(Xbar) - g(theta)).

    The covariance of the stacked arm-wise means, scaled by the total count
    n_t = n1 + n0, is block diagonal with each arm's per-patient covariance
    inflated by n_t / n_arm.
    """
    if n1 <= 0 or n0 <= 0:
        raise ConfigError("arm sizes must be positive")
    t = theta.theta
    n_t = n1 + n0
    cov = np.zeros((6, 6))
    cov[:3, :3] = _bernoulli_block(t[0], t[1]) * (n_t / n1)
    cov[3:, 3:] = _bernoulli_block(t[3], t[4]) * (n_t / n0)
    grad = unmatched_g_gradient(theta)
    c2 = float(grad @ cov @ grad)
    return max(c2, 0.0)


def unmatched_sample_size(
    theta1: ThetaBinary,
    alpha: float = 0.05,
    power: float = 0.8,
    allocation: float = 0.5,
) -> int:
    """Total patients n_t for the asymptotic unmatched win-ratio test.

    n_t = ((C0 Z_alpha - C1 Z_beta) / (g(theta1) - 1))^2 with C0 evaluated
    at the null theta and C1 at the alternative; the result is rounded up
    and then raised to the next multiple that makes both arms integral.
    """
    if not (0.0 < allocation < 1.0):
        raise ConfigError("allocation must lie in (0, 1)")
    g1 = unmatched_g(theta1)
    if g1 == 1.0:
        raise ConfigError("no effect: g(theta1) = 1 gives an infinite sample size")
    # allocation-consistent reference sizes; only their ratio matters
    n1, n0 = allocation, 1.0 - allocation
    c0 = math.sqrt(unmatched_variance(THETA_NULL, n1, n0))
    c1 = math.sqrt(unmatched_variance(theta1, n1, n0))
    za, zb = z_alpha(alpha), z_beta(power)
    n_t = ((c0 * za - c1 * zb) / (g1 - 1.0)) ** 2
    n_t = math.ceil(n_t - 1e-9)
    # make both arm counts integral (even total under 1:1)
    while (n_t * allocation) % 1 > 1e-9 or (n_t * (1 - allocation)) % 1 > 1e-9:
        n_t += 1
    return n_t


def unmatched_wald_test(
    y_t: np.ndarray, x_t: np.ndarray, y_c: np.ndarray, x_c: np.ndarray
) -> tuple[float, float, float]:
    """Asymptotic z-test of g = 1 from raw indicator samples.

    Returns (g_hat, z, p).  The statistic is sqrt(n_t) (g_hat - 1) / C0
    with the null-theta variance in the denominator, the form the sample
    size formula is calibrated against.
    """
    y_t = np.asarray(y_t)
    x_t = np.asarray(x_t)
    y_c = np.asarray(y_c)
    x_c = np.asarray(x_c)
    n1, n0 = len(y_t), len(y_c)
    # a plain tuple: sample means need not satisfy ThetaBinary's product constraint
    means = (
        y_t.mean(),
        x_t.mean(),
        (x_t * y_t).mean(),
        y_c.mean(),
        x_c.mean(),
        (x_c * y_c).mean(),
    )
    w, l = _binary_win_loss(means)
    if l == 0:
        return math.inf, math.inf, 0.0
    g_hat = w / l
    c0 = math.sqrt(unmatched_variance(THETA_NULL, n1, n0))
    z = math.sqrt(n1 + n0) * (g_hat - 1.0) / c0
    return g_hat, z, float(2.0 * norm.sf(abs(z)))
