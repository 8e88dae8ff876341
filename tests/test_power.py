"""Closed-form checks pinned to exhaustive-enumeration oracles."""

import itertools
import math

import numpy as np
import pytest

from wrtrials import (
    BinaryRule,
    ConfigError,
    ThetaBinary,
    matched_sample_size,
    matched_win_probs,
    unmatched_g,
    unmatched_sample_size,
    unmatched_variance,
)
from wrtrials.core import _two_sided_p
from wrtrials.power import (
    THETA_NULL,
    _binary_win_loss,
    null_ratio_variance_candidates,
    unmatched_g_gradient,
    unmatched_win_loss,
)

from test_wr_tests import LOSS, WIN, binary, pair_score

# the binary rule's score of each (y_t, x_t, y_c, x_c), on 0-d columns of built cohorts
BINARY_SCORES = {
    outcomes: pair_score(BinaryRule(), binary(*outcomes[:2]), binary(*outcomes[2:]))
    for outcomes in itertools.product((0, 1), repeat=4)
}


def measure_null_ratio_variance(n: int, reps: int, seed: int) -> float:
    """Empirical variance of sqrt(n)(phat/(1-phat) - 1) at p = 1/2."""
    rng = np.random.default_rng(seed)
    x = rng.binomial(n, 0.5, size=reps) / n
    x = np.clip(x, 1e-12, 1 - 1e-12)
    stat = math.sqrt(n) * (x / (1 - x) - 1.0)
    return float(stat.var())


def unmatched_wald_test(y_t, x_t, y_c, x_c):
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
    return g_hat, z, _two_sided_p(z)


def enumerate_win_probs(p_t, q_t, p_c, q_c):
    """Oracle: weight the 16 joint outcomes by their independent probabilities."""
    p_w = p_l = p_tie = 0.0
    for (y_t, x_t, y_c, x_c), score in BINARY_SCORES.items():
        prob = (
            (p_t if y_t else 1 - p_t)
            * (q_t if x_t else 1 - q_t)
            * (p_c if y_c else 1 - p_c)
            * (q_c if x_c else 1 - q_c)
        )
        if score == WIN:
            p_w += prob
        elif score == LOSS:
            p_l += prob
        else:
            p_tie += prob
    return p_w, p_l, p_tie


GRID = [0.0, 0.25, 0.5, 0.75, 1.0]


def test_matched_win_probs_match_enumeration_on_grid():
    worst = 0.0
    for p_t, q_t, p_c, q_c in itertools.product(GRID, repeat=4):
        probs = matched_win_probs(p_t, q_t, p_c, q_c)
        ew, el, et = enumerate_win_probs(p_t, q_t, p_c, q_c)
        worst = max(worst, abs(probs.p_w - ew), abs(probs.p_l - el), abs(probs.p_tie - et))
    assert worst < 1e-12


def test_matched_win_probs_symmetric_point():
    probs = matched_win_probs(0.5, 0.5, 0.5, 0.5)
    assert probs.p_w == pytest.approx(0.375, abs=1e-15)
    assert probs.p_l == pytest.approx(0.375, abs=1e-15)
    assert probs.p_tie == pytest.approx(0.25, abs=1e-15)


def test_matched_win_probs_null_symmetry():
    for p, q in [(0.3, 0.7), (0.1, 0.2), (0.9, 0.4)]:
        probs = matched_win_probs(p, q, p, q)
        assert probs.p_w == pytest.approx(probs.p_l, abs=1e-14)


def test_matched_win_probs_rejects_bad_rates():
    with pytest.raises(ConfigError):
        matched_win_probs(1.2, 0.5, 0.5, 0.5)


def test_unmatched_win_loss_matches_enumeration():
    for p_t, q_t, p_c, q_c in itertools.product([0.1, 0.4, 0.5, 0.8], repeat=4):
        theta = ThetaBinary.from_rates(p_t, q_t, p_c, q_c)
        w, l = unmatched_win_loss(theta)
        ew, el, _ = enumerate_win_probs(p_t, q_t, p_c, q_c)
        assert w == pytest.approx(ew, abs=1e-12)
        assert l == pytest.approx(el, abs=1e-12)


def test_unmatched_matched_probs_agree():
    # the per-pair comparison is the same rule, so the probabilities coincide
    for p_t, q_t, p_c, q_c in itertools.product([0.2, 0.5, 0.7], repeat=4):
        probs = matched_win_probs(p_t, q_t, p_c, q_c)
        w, l = unmatched_win_loss(ThetaBinary.from_rates(p_t, q_t, p_c, q_c))
        assert probs.p_w == pytest.approx(w, abs=1e-12)
        assert probs.p_l == pytest.approx(l, abs=1e-12)


def test_g_is_one_at_null():
    assert unmatched_g(THETA_NULL) == pytest.approx(1.0, abs=1e-15)
    w, l = unmatched_win_loss(THETA_NULL)
    assert w == pytest.approx(0.375, abs=1e-15)
    assert l == pytest.approx(0.375, abs=1e-15)


def test_g_swap_symmetry():
    rng = np.random.default_rng(2)
    for _ in range(50):
        p_t, q_t, p_c, q_c = rng.uniform(0.05, 0.95, 4)
        theta = ThetaBinary.from_rates(p_t, q_t, p_c, q_c)
        assert unmatched_g(theta) * unmatched_g(theta.mirrored) == pytest.approx(1.0, rel=1e-10)


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(4)
    h = 1e-6
    for _ in range(25):
        p_t, q_t, p_c, q_c = rng.uniform(0.2, 0.8, 4)
        theta = ThetaBinary.from_rates(p_t, q_t, p_c, q_c)
        grad = unmatched_g_gradient(theta)
        base = np.array(theta.theta)
        for k in range(6):
            up = base.copy()
            dn = base.copy()
            up[k] += h
            dn[k] -= h
            # bypass the product-consistency validation: the gradient is of
            # g as a free function of six coordinates
            g_up = _g_free(up)
            g_dn = _g_free(dn)
            fd = (g_up - g_dn) / (2 * h)
            assert grad[k] == pytest.approx(fd, rel=2e-6, abs=2e-6)


def _g_free(t):
    t1, t2, t3, t4, t5, t6 = t
    w = (1 - t1) * t4 + (t1 - t3) * t6 + (1 - t1 - t2 + t3) * (t5 - t6)
    l = t1 * (1 - t4) + t3 * (t4 - t6) + (t2 - t3) * (1 - t4 - t5 + t6)
    return w / l


def test_variance_mirror_identity():
    # under equal allocation, swapping arms inverts g, so the delta-method
    # variance transforms by 1/g^4; the two variances coincide exactly when
    # g = 1 and only then
    rng = np.random.default_rng(12)
    for _ in range(20):
        p_t, q_t, p_c, q_c = rng.uniform(0.2, 0.8, 4)
        theta = ThetaBinary.from_rates(p_t, q_t, p_c, q_c)
        g = unmatched_g(theta)
        assert unmatched_variance(theta.mirrored, 50, 50) == pytest.approx(
            unmatched_variance(theta, 50, 50) / g**4, rel=1e-9
        )
    null_like = ThetaBinary.from_rates(0.3, 0.6, 0.3, 0.6)
    assert unmatched_variance(null_like.mirrored, 50, 50) == pytest.approx(
        unmatched_variance(null_like, 50, 50), rel=1e-12
    )


def test_variance_against_null_simulation():
    # empirical variance of sqrt(n_t) (g_hat - 1) under the null within 10%
    rng = np.random.default_rng(99)
    n1 = n0 = 10000
    reps = 400
    stats = []
    for _ in range(reps):
        y_t = rng.binomial(1, 0.5, n1)
        x_t = rng.binomial(1, 0.5, n1)
        y_c = rng.binomial(1, 0.5, n0)
        x_c = rng.binomial(1, 0.5, n0)
        g_hat, _, _ = unmatched_wald_test(y_t, x_t, y_c, x_c)
        stats.append(math.sqrt(n1 + n0) * (g_hat - 1.0))
    c2 = unmatched_variance(THETA_NULL, n1, n0)
    emp = float(np.var(stats))
    assert abs(emp - c2) / c2 < 0.10


def test_matched_sample_size_null_boundary():
    with pytest.raises(ConfigError):
        matched_sample_size(0.5, 0.25)


def test_matched_sample_size_tie_scaling():
    n1, total1 = matched_sample_size(0.7, 0.0)
    n2, total2 = matched_sample_size(0.7, 0.5)
    assert n1 == n2
    assert total2 == math.ceil(n1 / 0.5)


def test_matched_sample_size_monotone_in_power():
    n80, _ = matched_sample_size(0.65, 0.2, power=0.8)
    n90, _ = matched_sample_size(0.65, 0.2, power=0.9)
    assert n90 > n80


def test_matched_sample_size_ratio_method_smaller():
    # the ratio-scale closed form underestimates the requirement
    n_bin, _ = matched_sample_size(0.75, 0.25, method="binomial")
    n_ratio, _ = matched_sample_size(0.75, 0.25, method="ratio")
    assert n_ratio < n_bin


def test_null_ratio_variance_measurement_identifies_candidate():
    # candidates at p = 1/2 are 1 and 4; the data follow the second
    v_ratio, v_delta = null_ratio_variance_candidates(0.5)
    assert v_ratio == pytest.approx(1.0)
    assert v_delta == pytest.approx(4.0)
    emp = measure_null_ratio_variance(n=4000, reps=4000, seed=5)
    assert abs(emp - v_delta) / v_delta < 0.10
    assert abs(emp - v_ratio) / v_ratio > 1.0


def test_unmatched_sample_size_monotone_and_null_boundary():
    theta_weak = ThetaBinary.from_rates(0.45, 0.45, 0.5, 0.5)
    theta_strong = ThetaBinary.from_rates(0.3, 0.3, 0.5, 0.5)
    assert unmatched_sample_size(theta_weak) > unmatched_sample_size(theta_strong)
    with pytest.raises(ConfigError):
        unmatched_sample_size(THETA_NULL)


def test_unmatched_sample_size_even_total_for_balanced_arms():
    theta = ThetaBinary.from_rates(0.35, 0.35, 0.5, 0.5)
    n_t = unmatched_sample_size(theta)
    assert n_t % 2 == 0
