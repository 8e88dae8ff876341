"""Winning rules and test procedures against brute-force oracles."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from wrtrials import (
    Arm,
    BinaryOutcome,
    ContinuousOutcome,
    DegenerateResultError,
    MatchedPair,
    PatientRecord,
    SurvivalOutcome,
    WinStatus,
    fs_unmatched_test,
    form_matched_pairs,
    improvement_indicators,
    matched_wr_test,
    stratify,
    win_binary,
    win_continuous,
    win_survival,
)
from wrtrials.wr_tests import BinaryRule, ContinuousRule, SurvivalRule


def surv_patient(pid, arm, e_death, e_hosp, cov=(0, 0)):
    return PatientRecord(
        id=pid, arm=arm, covariates=cov, stratum=stratify(cov),
        outcome=SurvivalOutcome(e_death, e_hosp),
    )


def random_survival_cohort(rng, n=None, n_strata=2):
    n = n or int(rng.integers(4, 30))
    cohort = []
    for i in range(n):
        arm = Arm(int(rng.integers(0, 2)))
        k = int(rng.integers(0, n_strata))
        cov = (k // 2, k % 2)
        cohort.append(surv_patient(i, arm, float(rng.exponential(1) + 1e-9),
                                   float(rng.exponential(1) + 1e-9), cov))
    return cohort


# ---------------------------------------------------------------------------
# binary rule


def test_win_binary_death_dominates():
    assert win_binary(BinaryOutcome(0, 0), BinaryOutcome(1, 0)) is WinStatus.WIN
    assert win_binary(BinaryOutcome(0, 1), BinaryOutcome(1, 0)) is WinStatus.WIN
    assert win_binary(BinaryOutcome(1, 0), BinaryOutcome(0, 1)) is WinStatus.LOSS


def test_win_binary_hosp_breaks_death_ties():
    assert win_binary(BinaryOutcome(1, 0), BinaryOutcome(1, 1)) is WinStatus.WIN
    assert win_binary(BinaryOutcome(0, 0), BinaryOutcome(0, 1)) is WinStatus.WIN
    assert win_binary(BinaryOutcome(0, 0), BinaryOutcome(0, 0)) is WinStatus.TIE


def test_win_binary_exhaustive_antisymmetry():
    for y_t, x_t, y_c, x_c in itertools.product((0, 1), repeat=4):
        a = BinaryOutcome(y_t, x_t)
        b = BinaryOutcome(y_c, x_c)
        assert win_binary(a, b) is win_binary(b, a).mirrored()


def test_win_binary_expected_scenarios():
    # the three win configurations: control dies; both die, only control
    # hospitalized; neither dies, only control hospitalized
    wins = [
        (BinaryOutcome(0, 0), BinaryOutcome(1, 1)),
        (BinaryOutcome(1, 0), BinaryOutcome(1, 1)),
        (BinaryOutcome(0, 0), BinaryOutcome(0, 1)),
    ]
    for t, c in wins:
        assert win_binary(t, c) is WinStatus.WIN


# ---------------------------------------------------------------------------
# survival rule


def test_win_survival_control_death_first():
    assert win_survival(SurvivalOutcome(5, 9), SurvivalOutcome(2, 9)) is WinStatus.WIN


def test_win_survival_identical_is_tie():
    assert win_survival(SurvivalOutcome(3, 4), SurvivalOutcome(3, 4)) is WinStatus.TIE


def test_win_survival_hosp_branch_when_neither_dies_first():
    # both have hospitalization before own death: decided on hosp times,
    # earlier hospitalization loses
    assert win_survival(SurvivalOutcome(10, 3), SurvivalOutcome(9, 2)) is WinStatus.WIN
    assert win_survival(SurvivalOutcome(10, 2), SurvivalOutcome(9, 3)) is WinStatus.LOSS


def test_win_survival_death_branch_when_one_dies_first():
    # treatment death is its first event, so deaths decide even though the
    # control hospitalization would favor treatment
    assert win_survival(SurvivalOutcome(2, 5), SurvivalOutcome(4, 1)) is WinStatus.LOSS


def test_win_survival_priority_swap_changes_branch():
    t, c = SurvivalOutcome(2, 5), SurvivalOutcome(4, 1)
    assert win_survival(t, c, priority="death") is WinStatus.LOSS
    assert win_survival(t, c, priority="hosp") is WinStatus.WIN


def test_win_survival_rejects_nonpositive_times():
    with pytest.raises(ValueError):
        SurvivalOutcome(0.0, 1.0)
    # the rule revalidates outcomes that bypassed the dataclass guard
    bad = SurvivalOutcome.__new__(SurvivalOutcome)
    object.__setattr__(bad, "e_death", -1.0)
    object.__setattr__(bad, "e_hosp", 1.0)
    with pytest.raises(ValueError):
        SurvivalRule().columns([bad])


def test_win_survival_swap_antisymmetry_random():
    rng = np.random.default_rng(8)
    for _ in range(500):
        t = SurvivalOutcome(float(rng.exponential(1) + 1e-12), float(rng.exponential(1) + 1e-12))
        c = SurvivalOutcome(float(rng.exponential(1) + 1e-12), float(rng.exponential(1) + 1e-12))
        assert win_survival(t, c) is win_survival(c, t).mirrored()


def test_win_survival_rank_invariance():
    rng = np.random.default_rng(9)
    transforms = [lambda x: x**3, lambda x: math.log1p(x), lambda x: 2.5 * x]
    for _ in range(200):
        t = SurvivalOutcome(float(rng.exponential(1) + 1e-9), float(rng.exponential(1) + 1e-9))
        c = SurvivalOutcome(float(rng.exponential(1) + 1e-9), float(rng.exponential(1) + 1e-9))
        base = win_survival(t, c)
        for f in transforms:
            ft = SurvivalOutcome(f(t.e_death), f(t.e_hosp))
            fc = SurvivalOutcome(f(c.e_death), f(c.e_hosp))
            assert win_survival(ft, fc) is base


def oracle_pair_matrix(rule, cols):
    """The O(n^2) form: every pair's score, row i scored against column j."""
    return rule.pair_scores(tuple(c[:, None] for c in cols), tuple(c[None, :] for c in cols))


def random_outcomes(rng, family, n, tie_heavy):
    """Outcomes drawn on a small integer grid (tie-heavy) or from continuous laws (tie-free)."""
    def draw(size):
        return rng.integers(1, 5, size).astype(float) if tie_heavy else rng.exponential(1, size) + 1e-9

    if family == "binary":
        return [BinaryOutcome(int(y), int(x)) for y, x in rng.integers(0, 2, (n, 2))]
    if family == "survival":
        return [SurvivalOutcome(float(d), float(h)) for d, h in zip(draw(n), draw(n))]
    return [ContinuousOutcome(5.0 if tie_heavy else float(b), tuple(float(v) for v in draw(3)))
            for b in draw(n)]


KERNEL_RULES = [
    ("binary", BinaryRule()),
    ("survival", SurvivalRule("death")),
    ("survival", SurvivalRule("hosp")),
    ("continuous", ContinuousRule(0.8)),
]


@pytest.mark.parametrize("tie_heavy", [True, False])
@pytest.mark.parametrize("family,rule", KERNEL_RULES,
                         ids=["binary", "survival-death", "survival-hosp", "continuous"])
def test_kernels_match_pair_score_oracle(family, rule, tie_heavy):
    rng = np.random.default_rng(10)
    informative = 0
    for n in range(2, 41):
        outcomes = random_outcomes(rng, family, n, tie_heavy)
        cols = rule.columns(outcomes)
        mat = oracle_pair_matrix(rule, cols)
        for i, j in itertools.product(range(n), repeat=2):
            assert mat[i, j] == rule.compare(outcomes[i], outcomes[j]).value
        # the elementwise form on shuffled partners, as the matched test uses it
        perm = rng.permutation(n)
        shuffled = rule.pair_scores(cols, tuple(c[perm] for c in cols))
        assert shuffled.dtype == np.int64
        assert shuffled.tolist() == [rule.compare(outcomes[i], outcomes[perm[i]]).value
                                     for i in range(n)]

        is_t = rng.random(n) < 0.5
        is_t[:2] = (True, False)
        np.fill_diagonal(mat, 0)
        cross = mat[np.ix_(is_t, ~is_t)]
        u, n_w, n_l = rule.u_win_loss(cols, is_t)
        assert u.dtype == np.int64
        assert np.array_equal(u, mat.sum(axis=1))
        assert (n_w, n_l) == ((cross > 0).sum(), (cross < 0).sum())

        cohort = [PatientRecord(i, Arm(int(t)), (0, 0), 0, o)
                  for i, (t, o) in enumerate(zip(is_t, outcomes))]
        try:
            res, inter = fs_unmatched_test(cohort, rule, stratified=False)
        except DegenerateResultError:
            assert not u.any()
            continue
        assert np.array_equal(inter.u_scores[0], u)
        assert (res.n_w, res.n_l, res.n_tie) == (n_w, n_l, (cross == 0).sum())
        informative += 1
    assert informative > 30


# ---------------------------------------------------------------------------
# continuous rule


def test_improvement_indicators_strict_cutoff():
    o = ContinuousOutcome(10.0, (7.0, 9.0, 9.0))
    assert improvement_indicators(o, 0.8) == (1, 0, 0, 1)
    exact = ContinuousOutcome(10.0, (8.0, 9.0, 9.0))
    assert improvement_indicators(exact, 0.8) == (0, 0, 0, 0)


def test_improvement_indicators_rejects_bad_baseline():
    with pytest.raises(ValueError):
        improvement_indicators(ContinuousOutcome(0.0, (1.0, 1.0, 1.0)), 0.8)


def test_win_continuous_counts():
    t = ContinuousOutcome(10.0, (1.0, 2.0, 9.0))
    c = ContinuousOutcome(10.0, (1.0, 9.0, 9.0))
    assert win_continuous(t, c, 0.8) is WinStatus.WIN
    assert win_continuous(c, t, 0.8) is WinStatus.LOSS
    assert win_continuous(t, t, 0.8) is WinStatus.TIE


def test_win_continuous_antisymmetry_random():
    rng = np.random.default_rng(11)
    for _ in range(300):
        t = ContinuousOutcome(5.0, tuple(rng.normal(4, 2, 3)))
        c = ContinuousOutcome(5.0, tuple(rng.normal(4, 2, 3)))
        assert win_continuous(t, c, 0.8) is win_continuous(c, t, 0.8).mirrored()


# ---------------------------------------------------------------------------
# matched test


def test_matched_null_center():
    cohort = []
    pairs = []
    for i in range(8):
        win = i < 4
        cohort.append(surv_patient(2 * i, Arm.TREATMENT, 5.0 if win else 1.0, 10.0))
        cohort.append(surv_patient(2 * i + 1, Arm.CONTROL, 1.0 if win else 5.0, 10.0))
        pairs.append(MatchedPair(2 * i, 2 * i + 1, 0))
    res = matched_wr_test(cohort, pairs, SurvivalRule())
    assert res.n_w == res.n_l == 4
    assert res.z == pytest.approx(0.0, abs=1e-12)
    assert res.r_w == pytest.approx(1.0)
    assert res.p_value == pytest.approx(1.0)


def test_matched_step5_arithmetic_frozen():
    # 12 wins, 4 losses: p_w = 0.75, R_w = 3, z = 0.25 / sqrt(0.1875/16)
    cohort = []
    pairs = []
    for i in range(16):
        win = i < 12
        cohort.append(surv_patient(2 * i, Arm.TREATMENT, 5.0 if win else 1.0, 10.0))
        cohort.append(surv_patient(2 * i + 1, Arm.CONTROL, 1.0 if win else 5.0, 10.0))
        pairs.append(MatchedPair(2 * i, 2 * i + 1, 0))
    res = matched_wr_test(cohort, pairs, SurvivalRule())
    assert res.p_w == pytest.approx(0.75)
    assert res.r_w == pytest.approx(3.0)
    assert res.z == pytest.approx(2.309401076758503, abs=1e-12)
    # CI from the transformed binomial interval
    half = 1.959963984540054 * math.sqrt(0.75 * 0.25 / 16)
    lo, hi = 0.75 - half, 0.75 + half
    assert res.ci_low == pytest.approx(lo / (1 - lo))
    assert res.ci_high == pytest.approx(hi / (1 - hi))


def test_matched_all_ties_degenerate():
    cohort = [
        surv_patient(0, Arm.TREATMENT, 1.0, 2.0),
        surv_patient(1, Arm.CONTROL, 1.0, 2.0),
    ]
    with pytest.raises(DegenerateResultError):
        matched_wr_test(cohort, [MatchedPair(0, 1, 0)], SurvivalRule())


def test_matched_complete_separation_sentinel():
    cohort = []
    pairs = []
    for i in range(5):
        cohort.append(surv_patient(2 * i, Arm.TREATMENT, 5.0 + i, 10.0))
        cohort.append(surv_patient(2 * i + 1, Arm.CONTROL, 1.0 + 0.1 * i, 10.0))
        pairs.append(MatchedPair(2 * i, 2 * i + 1, 0))
    res = matched_wr_test(cohort, pairs, SurvivalRule())
    assert res.z == math.inf
    assert res.p_value == 0.0
    assert math.isinf(res.r_w)


# ---------------------------------------------------------------------------
# unmatched test vs brute-force oracle


def brute_force_fs(cohort, rule, stratified=True):
    """Independent recomputation of T and V straight from the definitions."""
    strata = sorted({rec.stratum if stratified else 0 for rec in cohort})
    t_stat = 0.0
    v_stat = 0.0
    for k in strata:
        members = [rec for rec in cohort if (rec.stratum if stratified else 0) == k]
        n_k = len(members)
        m_k = sum(1 for rec in members if rec.arm == Arm.TREATMENT)
        if n_k < 2 or m_k == 0 or m_k == n_k:
            continue
        u_sums = {}
        for rec in members:
            total = 0
            for other in members:
                if other.id == rec.id:
                    continue
                total += rule.compare(rec.outcome, other.outcome).value
            u_sums[rec.id] = total
        # antisymmetry implies the within-stratum scores sum to zero
        assert sum(u_sums.values()) == 0
        t_stat += sum(u_sums[rec.id] for rec in members if rec.arm == Arm.TREATMENT)
        v_stat += (
            m_k * (n_k - m_k) / (n_k * (n_k - 1)) * sum(v**2 for v in u_sums.values())
        )
    return t_stat, v_stat


@pytest.mark.parametrize("stratified", [True, False])
def test_fs_matches_brute_force_small_cohorts(stratified):
    rng = np.random.default_rng(20)
    rule = SurvivalRule()
    checked = 0
    for total in range(2, 9):
        for _ in range(30):
            cohort = random_survival_cohort(rng, n=total)
            truth = brute_force_fs(cohort, rule, stratified)
            try:
                res, inter = fs_unmatched_test(cohort, rule, stratified)
            except DegenerateResultError:
                assert truth[1] == pytest.approx(0.0)
                continue
            assert inter.t_stat == pytest.approx(truth[0], abs=1e-9)
            assert inter.v_stat == pytest.approx(truth[1], rel=1e-9)
            assert res.z == pytest.approx(truth[0] / math.sqrt(truth[1]), rel=1e-9)
            checked += 1
    assert checked > 100


def test_fs_two_by_two_toy_cohort():
    cohort = [
        surv_patient(0, Arm.TREATMENT, 4.0, 10.0),
        surv_patient(1, Arm.TREATMENT, 3.0, 10.0),
        surv_patient(2, Arm.CONTROL, 2.0, 10.0),
        surv_patient(3, Arm.CONTROL, 1.0, 10.0),
    ]
    # deaths ordered 0 > 1 > 2 > 3: U = (3, 1, -1, -3), T = 4,
    # V = (2*2)/(4*3) * (9+1+1+9) = 20/3
    res, inter = fs_unmatched_test(cohort, SurvivalRule(), stratified=True)
    assert inter.t_stat == pytest.approx(4.0)
    assert inter.v_stat == pytest.approx(20.0 / 3.0)
    assert res.n_w == 4 and res.n_l == 0
    assert math.isinf(res.r_w)


def test_fs_all_identical_degenerate():
    cohort = [surv_patient(i, Arm(i % 2), 1.0, 2.0) for i in range(6)]
    with pytest.raises(DegenerateResultError):
        fs_unmatched_test(cohort, SurvivalRule())


def test_fs_sign_test_structure_one_pair_per_stratum():
    # one patient per arm per stratum, no ties: T ranges over {-K..K} parity-bound
    rng = np.random.default_rng(33)
    for k_strata in (1, 2, 3):
        values = set()
        for _ in range(80):
            cohort = []
            for k in range(k_strata):
                cov = (k // 2, k % 2)
                cohort.append(
                    surv_patient(2 * k, Arm.TREATMENT, float(rng.exponential(1) + 1e-9),
                                 float(rng.exponential(1) + 1e-9), cov)
                )
                cohort.append(
                    surv_patient(2 * k + 1, Arm.CONTROL, float(rng.exponential(1) + 1e-9),
                                 float(rng.exponential(1) + 1e-9), cov)
                )
            _, inter = fs_unmatched_test(cohort, SurvivalRule(), stratified=True)
            assert abs(inter.t_stat) <= k_strata
            values.add(inter.t_stat)
        assert values <= set(range(-k_strata, k_strata + 1))


def test_fs_dropped_strata_counted():
    cohort = [
        surv_patient(0, Arm.TREATMENT, 4.0, 10.0, (0, 0)),
        surv_patient(1, Arm.CONTROL, 2.0, 10.0, (0, 0)),
        surv_patient(2, Arm.TREATMENT, 3.0, 10.0, (0, 1)),  # stratum lacking controls
    ]
    res, _ = fs_unmatched_test(cohort, SurvivalRule(), stratified=True)
    assert res.dropped_strata == 1


def test_arm_swap_maps_statistics():
    rng = np.random.default_rng(44)
    flips = 0
    for _ in range(150):
        cohort = random_survival_cohort(rng, n=16)
        swapped = [
            PatientRecord(r.id, Arm(1 - int(r.arm)), r.covariates, r.stratum, r.outcome)
            for r in cohort
        ]
        for stratified in (True, False):
            try:
                a, _ = fs_unmatched_test(cohort, SurvivalRule(), stratified)
                b, _ = fs_unmatched_test(swapped, SurvivalRule(), stratified)
            except DegenerateResultError:
                continue
            if a.n_w and a.n_l:
                assert b.r_w == pytest.approx(1.0 / a.r_w, rel=1e-12)
                assert b.z == pytest.approx(-a.z, abs=1e-12)
                assert b.p_value == pytest.approx(a.p_value, abs=1e-12)
                flips += 1
    assert flips > 100


def test_cohort_level_rank_invariance():
    rng = np.random.default_rng(55)
    for _ in range(50):
        cohort = random_survival_cohort(rng, n=14)
        transformed = [
            PatientRecord(
                r.id, r.arm, r.covariates, r.stratum,
                SurvivalOutcome(r.outcome.e_death**3, r.outcome.e_hosp**3),
            )
            for r in cohort
        ]
        for stratified in (True, False):
            try:
                a, ia = fs_unmatched_test(cohort, SurvivalRule(), stratified)
                b, ib = fs_unmatched_test(transformed, SurvivalRule(), stratified)
            except DegenerateResultError:
                continue
            assert (a.n_w, a.n_l, a.n_tie) == (b.n_w, b.n_l, b.n_tie)
            assert ia.t_stat == ib.t_stat
            assert ia.v_stat == pytest.approx(ib.v_stat)
            assert a.z == pytest.approx(b.z)


def test_matched_arm_swap_antisymmetry():
    rng = np.random.default_rng(66)
    flips = 0
    for _ in range(150):
        cohort = random_survival_cohort(rng, n=18)
        swapped = [
            PatientRecord(r.id, Arm(1 - int(r.arm)), r.covariates, r.stratum, r.outcome)
            for r in cohort
        ]
        try:
            pairing = form_matched_pairs(cohort, np.random.default_rng(1))
            res = matched_wr_test(cohort, pairing.pairs, SurvivalRule())
            mirrored_pairs = [MatchedPair(p.control_id, p.treatment_id, p.stratum)
                              for p in pairing.pairs]
            res_swapped = matched_wr_test(swapped, mirrored_pairs, SurvivalRule())
        except DegenerateResultError:
            continue
        if res.n_w and res.n_l:
            assert res_swapped.r_w == pytest.approx(1.0 / res.r_w, rel=1e-12)
            assert res_swapped.z == pytest.approx(-res.z, abs=1e-12)
            assert res_swapped.p_value == pytest.approx(res.p_value, abs=1e-12)
            flips += 1
    assert flips > 100


def test_wr_result_json_fields():
    cohort = [
        surv_patient(0, Arm.TREATMENT, 4.0, 10.0),
        surv_patient(1, Arm.TREATMENT, 2.5, 10.0),
        surv_patient(2, Arm.CONTROL, 2.0, 10.0),
        surv_patient(3, Arm.CONTROL, 3.0, 10.0),
    ]
    res, _ = fs_unmatched_test(cohort, SurvivalRule(), stratified=False)
    assert set(res.to_dict()) == {
        "method", "n_w", "n_l", "n_tie", "p_w", "r_w", "z",
        "p_value", "ci_low", "ci_high", "dropped_strata",
    }


def test_fs_and_matched_memory_linear_in_n():
    # one int64 n x n score matrix at this size would take 3.2 GB
    rng = np.random.default_rng(77)
    cohort = random_survival_cohort(rng, n=20_000, n_strata=4)
    pairs = form_matched_pairs(cohort, np.random.default_rng(1)).pairs
    tracemalloc.start()
    try:
        fs_unmatched_test(cohort, SurvivalRule(), stratified=False)
        fs_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        matched_wr_test(cohort, pairs, SurvivalRule())
        matched_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fs_peak < 64 * 2**20
    assert matched_peak < 64 * 2**20
