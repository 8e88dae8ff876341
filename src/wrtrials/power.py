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
n_t = ((C0 Z_alpha - C1 Z_beta) / (g(theta1) - 1))^2 for 1:1 allocation,
rounded up to an even total.  ``unmatched_sample_size`` returns
(N, g, C0, C1), and ``wrtrials power --unmatched`` prints those values.

Sign conventions, frozen here and in the tests: Z_alpha = Phi^-1(1 - alpha/2)
for a two-sided level alpha, Z_beta = Phi^-1(1 - power) (negative whenever
power exceeds one half).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

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


# NormalDist's inv_cdf is Wichura's AS 241; a sample size reads it only through
# ceil, and tests/test_power.py holds the sizes equal to scipy.stats.norm.ppf's.
_PHI_INV = NormalDist().inv_cdf


def z_alpha(alpha: float) -> float:
    # the sample sizes read it (matched_sample_size, unmatched_sample_size);
    # z_alpha(0.05) is two ulps below core.Z_95, which the confidence
    # intervals read, and tests/test_power.py pins both
    return _PHI_INV(1.0 - alpha / 2.0)


def z_beta(power: float) -> float:
    return _PHI_INV(1.0 - power)


def _level_quantiles(alpha: float, power: float) -> tuple[float, float]:
    """(z_alpha(alpha), z_beta(power)), or ``ConfigError`` where either is not finite.

    At alpha <= 2**-53 or power <= 2**-54 (about 1.1e-16 and 5.6e-17),
    1 - alpha / 2 or 1 - power rounds to 1, whose quantile is infinite.
    """
    if not (0.0 < alpha < 1.0 and 0.0 < power < 1.0 and 1.0 - alpha / 2.0 < 1.0 and 1.0 - power < 1.0):
        raise ConfigError(f"alpha and power must lie in (0, 1), above 2**-53 and 2**-54 "
                          f"for finite normal quantiles; got {alpha} and {power}")
    return z_alpha(alpha), z_beta(power)


def matched_sample_size(
    p_a: float,
    p_tie: float,
    alpha: float = 0.05,
    power: float = 0.8,
    method: str = "binomial",
) -> tuple[int, int]:
    """Pairs needed for the matched win-ratio test.

    ``p_a`` is the win proportion among informative pairs under the
    alternative, ``p_tie`` the tie probability per pair.  A share within
    1e-12 of 1/2 (no effect) or of 1 (separation) raises ``ConfigError``:
    rounding there gives n of about 1e30 or 0.  Returns
    (n, n_pairs_total): informative pairs and total pairs enrolled
    (n / (1 - p_tie), rounded up).  One patient pair per unit, so the
    total patient count is 2 * n_pairs_total.

    ``method="binomial"`` inverts the level-alpha test of p = 1/2 that the
    matched procedure actually performs and meets the requested power in
    simulation.  ``method="ratio"`` is the closed form on the ratio scale
    p/(1-p) with null variance one; it returns far smaller sizes whose
    realized power falls short of the target (see the module docstring).
    """
    if not (0.5 + 1e-12 < p_a < 1.0 - 1e-12):
        raise ConfigError("no effect or separation: need 0.5 < p_a < 1 (by more than 1e-12)")
    if not (0.0 <= p_tie < 1.0):
        raise ConfigError("p_tie must lie in [0, 1)")
    za, zb = _level_quantiles(alpha, power)
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


# ---------------------------------------------------------------------------
# unmatched asymptotics


def unmatched_g(theta: ThetaBinary) -> float:
    """Win ratio g(theta) = expected wins / expected losses."""
    w, l = _binary_win_loss(theta.theta)
    if abs(l) <= 1e-12:  # rounding leaves |l| of about 1e-17 where it is exactly 0
        raise ConfigError("loss probability is zero: win ratio infinite")
    return w / l


def unmatched_g_gradient(theta: ThetaBinary) -> np.ndarray:
    """Gradient of g; cross-checked against central differences."""
    g = unmatched_g(theta)
    t = np.array(theta.theta)
    w, l = _binary_win_loss(t)
    # w and l are bilinear across the arms, so affine in any one coordinate:
    # a unit step along coordinate k changes them by exactly their k-th partial
    w_step, l_step = _binary_win_loss(t[:, None] + np.eye(6))  # column k: theta + e_k
    return ((w_step - w) - g * (l_step - l)) / l


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
) -> tuple[int, float, float, float]:
    """Total patients for the asymptotic unmatched win-ratio test, 1:1 allocation.

    n_t = ((C0 Z_alpha - C1 Z_beta) / (g(theta1) - 1))^2 with C0 evaluated
    at the null theta and C1 at the alternative, rounded up to an even
    total.  Returns (n_t, g(theta1), C0, C1): the size and the values it
    was computed from.
    """
    za, zb = _level_quantiles(alpha, power)
    g1 = unmatched_g(theta1)
    if abs(g1 - 1.0) <= 1e-12:  # as in matched_sample_size: rounding there gives N of 1e33
        raise ConfigError("no effect: g(theta1) = 1 gives an infinite sample size")
    c0 = math.sqrt(unmatched_variance(THETA_NULL, 1, 1))
    c1 = math.sqrt(unmatched_variance(theta1, 1, 1))
    n_t = math.ceil(((c0 * za - c1 * zb) / (g1 - 1.0)) ** 2 - 1e-9)
    n_t += n_t % 2  # both arms integral
    return n_t, g1, c0, c1
