"""Closed-form checks pinned to exhaustive-enumeration oracles."""

import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import norm  # the reference quantile; the package itself does not import scipy.stats

import wrtrials
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
from wrtrials.cli import main as cli_main
from wrtrials.core import _two_sided_p
from wrtrials.power import (
    THETA_NULL,
    _binary_win_loss,
    null_ratio_variance_candidates,
    unmatched_g_gradient,
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
        w, l = _binary_win_loss(theta.theta)
        ew, el, _ = enumerate_win_probs(p_t, q_t, p_c, q_c)
        assert w == pytest.approx(ew, abs=1e-12)
        assert l == pytest.approx(el, abs=1e-12)


def test_unmatched_matched_probs_agree():
    # the per-pair comparison is the same rule, so g is the matched p_w / p_l
    for p_t, q_t, p_c, q_c in itertools.product([0.2, 0.5, 0.7], repeat=4):
        probs = matched_win_probs(p_t, q_t, p_c, q_c)
        assert unmatched_g(ThetaBinary.from_rates(p_t, q_t, p_c, q_c)) == probs.p_w / probs.p_l


def test_g_is_one_at_null():
    assert unmatched_g(THETA_NULL) == pytest.approx(1.0, abs=1e-15)
    w, l = _binary_win_loss(THETA_NULL.theta)
    assert w == pytest.approx(0.375, abs=1e-15)
    assert l == pytest.approx(0.375, abs=1e-15)


def test_g_swap_symmetry():
    rng = np.random.default_rng(2)
    for _ in range(50):
        p_t, q_t, p_c, q_c = rng.uniform(0.05, 0.95, 4)
        theta = ThetaBinary.from_rates(p_t, q_t, p_c, q_c)
        swapped = ThetaBinary.from_rates(p_c, q_c, p_t, q_t)
        assert unmatched_g(theta) * unmatched_g(swapped) == pytest.approx(1.0, rel=1e-10)


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


@pytest.mark.parametrize("rates", [(0, 0, 1, 0.5), (0, 0, 0, 0)])
def test_zero_loss_probability_is_a_config_error(rates):
    # the gradient divided by l^2, so unmatched_variance returned nan with a
    # RuntimeWarning where unmatched_g refused the same theta
    theta = ThetaBinary.from_rates(*rates)
    for f in (unmatched_g, unmatched_g_gradient, lambda t: unmatched_variance(t, 1, 1)):
        with pytest.raises(ConfigError, match="loss probability is zero"):
            f(theta)


def test_variance_mirror_identity():
    # under equal allocation, swapping arms inverts g, so the delta-method
    # variance transforms by 1/g^4; the two variances coincide exactly when
    # g = 1 and only then
    rng = np.random.default_rng(12)
    for _ in range(20):
        p_t, q_t, p_c, q_c = rng.uniform(0.2, 0.8, 4)
        theta = ThetaBinary.from_rates(p_t, q_t, p_c, q_c)
        g = unmatched_g(theta)
        swapped = ThetaBinary.from_rates(p_c, q_c, p_t, q_t)
        assert unmatched_variance(swapped, 50, 50) == pytest.approx(
            unmatched_variance(theta, 50, 50) / g**4, rel=1e-9
        )
    null_like = ThetaBinary.from_rates(0.3, 0.6, 0.3, 0.6)
    assert unmatched_variance(ThetaBinary.from_rates(0.3, 0.6, 0.3, 0.6), 50, 50) == pytest.approx(
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
    # within rounding of 1/2 or of 1 the formula gives n of about 1e30 or 0
    for p_a in (0.5000000000000002, 1.0 - 1e-13, 1.0):
        with pytest.raises(ConfigError):
            matched_sample_size(p_a, 0.25)


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
    assert unmatched_sample_size(theta_weak)[0] > unmatched_sample_size(theta_strong)[0]
    with pytest.raises(ConfigError):
        unmatched_sample_size(THETA_NULL)


RATES = ["--pt", "0.3", "--qt", "0.3", "--pc", "0.5", "--qc", "0.5"]


@pytest.mark.parametrize("argv", [
    ["--matched", "--pt", "0", "--qt", "0", "--pc", "0", "--qc", "0"],  # every pair ties
    ["--unmatched", "--pt", "0", "--qt", "0", "--pc", "0", "--qc", "0"],  # no wins, no losses
    ["--unmatched", "--pt", "0", "--qt", "0", "--pc", "1", "--qc", "0.5"],  # no losses
    ["--unmatched", *RATES, "--alpha", "0"],
    ["--unmatched", *RATES, "--power", "1.5"],
    ["--matched", *RATES, "--alpha", "0"],
    ["--matched", "--pt", "0", "--qt", "0.05", "--pc", "0", "--qc", "0.05"],  # identical arms
    ["--matched", "--pt", "0", "--qt", "0", "--pc", "1", "--qc", "0.5"],  # p_a = 1: no losses
    # rounding leaves g = 0.9999999999999999 where g is 1: N of about 5.5e33
    ["--unmatched", "--pt", "0.1", "--qt", "0.9", "--pc", "0.5", "--qc", "0.1"],
    # rounding leaves p_l = -5.6e-18 where no loss can occur: g of -1.7e17
    ["--unmatched", "--pt", "0", "--qt", "0.1", "--pc", "0.3", "--qc", "1"],
    # 1 - alpha / 2 or 1 - power rounds to 1, whose normal quantile is infinite
    ["--matched", *RATES, "--alpha", "1e-17"],
    ["--unmatched", *RATES, "--alpha", "1e-17"],
    ["--unmatched", *RATES, "--power", "1e-17"],
], ids=["matched-all-ties", "unmatched-all-ties", "unmatched-no-losses", "unmatched-alpha-0",
        "unmatched-power-1.5", "matched-alpha-0", "matched-identical-arms", "matched-no-losses",
        "unmatched-rounded-null", "unmatched-rounded-zero-loss", "matched-alpha-1e-17",
        "unmatched-alpha-1e-17", "unmatched-power-1e-17"])
def test_cli_power_rejects_degenerate_inputs(argv, capsys):
    assert cli_main(["power", *argv]) == 2
    assert "config error" in capsys.readouterr().err


def test_unmatched_sample_size_even_total_for_balanced_arms():
    theta = ThetaBinary.from_rates(0.35, 0.35, 0.5, 0.5)
    n_t, *_ = unmatched_sample_size(theta)
    assert n_t % 2 == 0


def test_cli_power_unmatched_prints_the_inputs_of_n(capsys):
    # at these rates C1^2 ** 0.5 and math.sqrt(C1^2) differ in the last bit,
    # so a C1 computed apart from N's would show
    theta1 = ThetaBinary.from_rates(0.3, 0.4, 0.6, 0.8)
    assert cli_main(["power", "--unmatched", "--pt", "0.3", "--qt", "0.4",
                     "--pc", "0.6", "--qc", "0.8"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["C1"] == math.sqrt(unmatched_variance(theta1, 1, 1))
    assert (record["N"], record["g"], record["C0"], record["C1"]) == unmatched_sample_size(theta1)
    assert record["n"] is None


def test_sample_sizes_equal_those_from_scipy_norm_ppf(monkeypatch):
    # a size reads the quantiles only through ceil, so each size on a grid of
    # rates (0..1 by 0.1 matched, both methods; by 0.2 unmatched), levels and
    # powers is the one that scipy.stats.norm.ppf's quantiles give; the bits
    # of inv_cdf itself may differ between Python versions and are not pinned
    levels = [(alpha, power) for alpha in (0.01, 0.025, 0.05, 0.1) for power in (0.5, 0.8, 0.9)]
    rates = [i / 10 for i in range(11)]

    def sizes():
        out = []
        for r in itertools.product(rates, repeat=4):
            probs = matched_win_probs(*r)
            informative = probs.p_w + probs.p_l
            p_a = max(probs.p_w, probs.p_l) / informative if informative else 0.5
            for alpha, power in levels:
                for method in ("binomial", "ratio"):
                    try:
                        out.append(matched_sample_size(p_a, probs.p_tie, alpha, power, method))
                    except ConfigError:
                        out.append(None)
                if all(v in rates[::2] for v in r):
                    try:
                        out.append(unmatched_sample_size(ThetaBinary.from_rates(*r), alpha, power))
                    except ConfigError:
                        out.append(None)
        return out

    got = sizes()
    ys = {y for alpha, power in levels for y in (1.0 - alpha / 2.0, 1.0 - power)}
    monkeypatch.setattr(wrtrials.power, "_PHI_INV", {y: float(norm.ppf(y)) for y in ys}.__getitem__)
    assert sizes() == got
    assert sum(v is not None for v in got) > 200_000  # most cells have a finite size


def _fresh_python(code: str, *args: str) -> str:
    """What ``code`` prints in a new interpreter that imports this package's wrtrials."""
    src = str(Path(wrtrials.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, check=True).stdout


_SCIPY_MODULES = "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"


def test_package_import_loads_no_scipy_module():
    # scipy.special alone added about 0.2 s and 24 MiB to the start of every
    # process (BENCH_27.json)
    assert _fresh_python("import sys, wrtrials, wrtrials.cli; " + _SCIPY_MODULES).split() == []


# an O'Brien run of each family and design that has the analysis, and a binary run
_CONTINUOUS_GEN = {"beta_t1": -2.0, "mix": {"p1": 0.05, "p2": 0.05, "p3": 0.8, "p4": 0.1}}
_RUNS = [
    {"design": "parallel", "outcome_family": "survival", "generator": {},
     "analyses": ["Cox", "Obrien", "MatchedWR"], "n_total": 40, "reps": 3},
    *({"design": design, "outcome_family": "continuous", "generator": _CONTINUOUS_GEN,
       "analyses": ["Obrien", "StratUnmatchedWR", "Contingency"], "n_total": 40, "reps": 3}
      for design in ("cr", "sed")),
    {"design": "parallel", "outcome_family": "binary",
     "generator": {"p_t": 0.3, "q_t": 0.3, "p_c": 0.5, "q_c": 0.5},
     "analyses": ["MatchedWR", "UnstratUnmatchedWR"], "n_total": 40, "reps": 3},
]
# runs the scenarios of argv[1], both sample sizes and gen on the config at
# argv[2], then prints the scipy modules loaded
_RUN_POWER_AND_GEN = """
import json, sys
from wrtrials import monte_carlo, scenario_from_dict
from wrtrials.cli import main
for d in json.loads(sys.argv[1]):
    summaries = monte_carlo(scenario_from_dict(d))
    assert all(s.reps_used for s in summaries.values()), summaries
rates = ["--pt", "0.3", "--qt", "0.3", "--pc", "0.5", "--qc", "0.5"]
assert main(["power", "--matched", *rates]) == 0
assert main(["power", "--unmatched", *rates]) == 0
assert main(["gen", "--config", sys.argv[2], "--out", sys.argv[3]]) == 0
""" + _SCIPY_MODULES


def test_runs_power_and_gen_load_no_scipy_module(tmp_path):
    # the O'Brien p-value (the F(1, n - 2) tail) is computed in core, and the
    # normal p-value and the sample-size quantiles come from the standard
    # library: no run loads scipy
    cfg_path = tmp_path / "survival.json"
    cfg_path.write_text(json.dumps(_RUNS[0]))
    out = _fresh_python(_RUN_POWER_AND_GEN, json.dumps(_RUNS), str(cfg_path), str(tmp_path / "cohort.csv"))
    assert '"N":' in out and "wrote 40 patients" in out
    assert out.splitlines()[-1].split() == []
