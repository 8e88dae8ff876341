"""Closed-form checks pinned to exhaustive-enumeration oracles."""

import contextlib
import hashlib
import io
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
    matched_sample_size,
    matched_win_probs,
    unmatched_g,
    unmatched_sample_size,
    unmatched_variance,
)
from wrtrials.cli import main as cli_main
from wrtrials.core import Z_95, _two_sided_p
from wrtrials.power import (
    _binary_win_loss,
    _level_quantiles,
    _theta,
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
    # the six arm-wise sample means: an XY mean need not be the product of its arm's Y and X means
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
    c0 = math.sqrt(unmatched_variance(0.5, 0.5, 0.5, 0.5, n1, n0))
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
        w, l = _binary_win_loss(_theta(p_t, q_t, p_c, q_c))
        ew, el, _ = enumerate_win_probs(p_t, q_t, p_c, q_c)
        assert w == pytest.approx(ew, abs=1e-12)
        assert l == pytest.approx(el, abs=1e-12)


def test_unmatched_matched_probs_agree():
    # the per-pair comparison is the same rule, so g is the matched p_w / p_l
    for p_t, q_t, p_c, q_c in itertools.product([0.2, 0.5, 0.7], repeat=4):
        probs = matched_win_probs(p_t, q_t, p_c, q_c)
        assert unmatched_g(p_t, q_t, p_c, q_c) == probs.p_w / probs.p_l


def test_g_is_one_at_null():
    assert unmatched_g(0.5, 0.5, 0.5, 0.5) == pytest.approx(1.0, abs=1e-15)
    w, l = _binary_win_loss(_theta(0.5, 0.5, 0.5, 0.5))
    assert w == pytest.approx(0.375, abs=1e-15)
    assert l == pytest.approx(0.375, abs=1e-15)


def test_g_swap_symmetry():
    rng = np.random.default_rng(2)
    for _ in range(50):
        p_t, q_t, p_c, q_c = rng.uniform(0.05, 0.95, 4)
        assert unmatched_g(p_t, q_t, p_c, q_c) * unmatched_g(p_c, q_c, p_t, q_t) == pytest.approx(1.0, rel=1e-10)


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(4)
    h = 1e-6
    for _ in range(25):
        p_t, q_t, p_c, q_c = rng.uniform(0.2, 0.8, 4)
        grad = unmatched_g_gradient(p_t, q_t, p_c, q_c)
        base = np.array(_theta(p_t, q_t, p_c, q_c))
        for k in range(6):
            up = base.copy()
            dn = base.copy()
            up[k] += h
            dn[k] -= h
            # the gradient is of g as a free function of the six means: a
            # step in p_t q_t alone moves no rate, so _g_free takes the means
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
    for f in (unmatched_g, unmatched_g_gradient, lambda *r: unmatched_variance(*r, 1, 1)):
        with pytest.raises(ConfigError, match="loss probability is zero"):
            f(*rates)


def test_power_refuses_malformed_inputs():
    # a rate outside [0, 1] (NaN included) in each unmatched function, an
    # unknown size formula, an empty arm
    unmatched = (unmatched_g, unmatched_g_gradient, lambda *r: unmatched_variance(*r, 1, 1),
                 unmatched_sample_size)
    for f, bad in itertools.product(unmatched, (-0.1, 1.2, math.nan)):
        for k in range(4):
            rates = [0.3, 0.4, 0.5, 0.5]
            rates[k] = bad
            with pytest.raises(ConfigError, match=r"event rates must lie in \[0, 1\]"):
                f(*rates)
    with pytest.raises(ConfigError, match="unknown method 'wald'"):
        matched_sample_size(0.7, 0.2, method="wald")
    for n1, n0 in ((0, 10), (10, 0)):
        with pytest.raises(ConfigError, match="arm sizes must be positive"):
            unmatched_variance(0.5, 0.5, 0.5, 0.5, n1, n0)


def test_variance_mirror_identity():
    # under equal allocation, swapping arms inverts g, so the delta-method
    # variance transforms by 1/g^4; the two variances coincide exactly when
    # g = 1 and only then
    rng = np.random.default_rng(12)
    for _ in range(20):
        p_t, q_t, p_c, q_c = rng.uniform(0.2, 0.8, 4)
        g = unmatched_g(p_t, q_t, p_c, q_c)
        assert unmatched_variance(p_c, q_c, p_t, q_t, 50, 50) == pytest.approx(
            unmatched_variance(p_t, q_t, p_c, q_c, 50, 50) / g**4, rel=1e-9
        )
    # unequal arms with g = 1: the swap leaves the variance as it is
    assert unmatched_variance(0.5, 0.1, 0.1, 0.9, 50, 50) == pytest.approx(
        unmatched_variance(0.1, 0.9, 0.5, 0.1, 50, 50), rel=1e-12
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
    c2 = unmatched_variance(0.5, 0.5, 0.5, 0.5, n1, n0)
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
    assert unmatched_sample_size(0.45, 0.45, 0.5, 0.5)[0] > unmatched_sample_size(0.3, 0.3, 0.5, 0.5)[0]
    with pytest.raises(ConfigError):
        unmatched_sample_size(0.5, 0.5, 0.5, 0.5)


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
    n_t, *_ = unmatched_sample_size(0.35, 0.35, 0.5, 0.5)
    assert n_t % 2 == 0


def test_cli_power_unmatched_prints_the_inputs_of_n(capsys):
    # at these rates C1^2 ** 0.5 and math.sqrt(C1^2) differ in the last bit,
    # so a C1 computed apart from N's would show
    rates = (0.3, 0.4, 0.6, 0.8)
    assert cli_main(["power", "--unmatched", "--pt", "0.3", "--qt", "0.4",
                     "--pc", "0.6", "--qc", "0.8"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["C1"] == math.sqrt(unmatched_variance(*rates, 1, 1))
    assert (record["N"], record["g"], record["C0"], record["C1"]) == unmatched_sample_size(*rates)
    assert record["n"] is None


RATES_01 = [i / 10 for i in range(11)]
# sha256 of every `wrtrials power` record (mode, rates, exit code, stdout,
# stderr) on the 0.2 grid; the sizes read the normal quantiles only through
# ceil, and no other field reads them
POWER_RECORDS_SHA256 = "08e3eb7b5a009f8330de754514efcf6be5de52c8c1152a2cb943ebc4adfef18e"


def _matched_size(rates):
    """(n, N) as ``wrtrials power --matched`` computes it, or None where it exits 2."""
    probs = matched_win_probs(*rates)
    informative = probs.p_w + probs.p_l
    try:
        return matched_sample_size(max(probs.p_w, probs.p_l) / informative if informative else 0.5,
                                   probs.p_tie)
    except ConfigError:
        return None


def test_matched_size_is_the_same_after_an_arm_swap():
    # p_a and p_tie do not depend on which arm is which; rounding once left
    # p_tie = -1.7e-16 where no pair can tie, refusing one of the two orders
    for p_t, q_t, p_c, q_c in itertools.product(RATES_01, repeat=4):
        assert _matched_size((p_t, q_t, p_c, q_c)) == _matched_size((p_c, q_c, p_t, q_t)), (p_t, q_t, p_c, q_c)
    assert _matched_size((0.2, 0, 0, 1)) == (14, 14)


def test_power_prints_no_negative_probability_or_win_ratio():
    # rounding once printed p_tie, p_w and g of about -1e-16 where they are 0;
    # g = 0 is sized (N is finite), and its mirror g = inf is refused
    sized = 0
    for rates in itertools.product(RATES_01, repeat=4):
        assert min(matched_win_probs(*rates)) >= 0.0, rates
        try:
            g = unmatched_sample_size(*rates)[1]
        except ConfigError:
            continue
        assert g >= 0.0, rates
        sized += g == 0.0
    assert sized > 0
    assert unmatched_sample_size(0.3, 1, 0, 0.1)[:2] == (36, 0.0)
    with pytest.raises(ConfigError, match="loss probability is zero"):
        unmatched_sample_size(0, 0.1, 0.3, 1)


def test_power_records_are_pinned():
    records = []
    for mode in ("--matched", "--unmatched"):
        for rates in itertools.product(["0", "0.2", "0.4", "0.6", "0.8", "1"], repeat=4):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli_main(["power", mode, *itertools.chain(*zip(("--pt", "--qt", "--pc", "--qc"), rates))])
            records.append(json.dumps([mode, *rates, code, out.getvalue(), err.getvalue()]))
    assert len(records) == 2592
    assert hashlib.sha256("\n".join(records).encode()).hexdigest() == POWER_RECORDS_SHA256


def test_the_two_95_percent_quantiles_are_pinned_two_ulps_apart():
    # the confidence intervals read core.Z_95 and the sample sizes read
    # Z_alpha of _level_quantiles at alpha = 0.05; a change that makes the two
    # one value fails here instead of moving pinned intervals or sizes by an
    # ulp or two unexplained
    z_alpha = _level_quantiles(0.05, 0.8)[0]
    assert Z_95 == 1.959963984540054 == float(norm.ppf(0.975))
    assert z_alpha == 1.9599639845400536
    assert Z_95 - z_alpha == 2 * math.ulp(z_alpha)


def test_sample_sizes_equal_those_from_scipy_norm_ppf(monkeypatch):
    # a size reads the quantiles only through ceil, so each size on a grid of
    # rates (0..1 by 0.1 matched, both methods; by 0.2 unmatched), levels and
    # powers is the one that scipy.stats.norm.ppf's quantiles give; the bits
    # of inv_cdf itself may differ between Python versions and are not pinned
    levels = [(alpha, power) for alpha in (0.01, 0.025, 0.05, 0.1) for power in (0.5, 0.8, 0.9)]
    rates = RATES_01

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
                        out.append(unmatched_sample_size(*r, alpha, power))
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


# runs the scenarios of argv[1] serially, then prints the loaded modules of the packages in argv[2]
_SERIAL_RUNS = """
import json, sys
import wrtrials
for d in json.loads(sys.argv[1]):
    summaries = wrtrials.monte_carlo(wrtrials.scenario_from_dict(d))
    assert all(s.reps_used for s in summaries.values()), summaries
print(*sorted(m for m in sys.modules if m.split('.')[0] in sys.argv[2].split()))
"""


def test_import_and_serial_runs_load_no_pool_statistics_or_csv_module():
    # only a run with workers starts a pool (concurrent.futures loads
    # multiprocessing and logging, about 10 ms), only a sample size reads a
    # normal quantile, and only gen writes a CSV
    survival, sed = _RUNS[0], _RUNS[2]
    assert sed["design"] == "sed"
    out = _fresh_python(_SERIAL_RUNS, json.dumps([survival, sed]),
                        "concurrent multiprocessing logging statistics csv")
    assert out.split() == []
