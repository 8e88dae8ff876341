"""Winning rules and test procedures against brute-force oracles."""

import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from wrtrials import (
    Arm,
    BinaryOutcome,
    Cohort,
    ContinuousOutcome,
    DegenerateResultError,
    PatientRecord,
    SurvivalOutcome,
    WinStatus,
    fs_unmatched_test,
    form_matched_pairs,
    improvement_indicators,
    matched_wr_test,
)
from wrtrials.wr_tests import BinaryRule, ContinuousRule, SurvivalRule


def surv_patient(arm, e_death, e_hosp, cov=(0, 0)):
    return PatientRecord(arm=arm, covariates=cov, outcome=SurvivalOutcome(e_death, e_hosp))


def surv_cohort(*patients):
    return Cohort.from_records(patients)


def random_survival_cohort(rng, n=None, n_strata=2):
    n = n or int(rng.integers(4, 30))
    records = []
    for _ in range(n):
        arm = Arm(int(rng.integers(0, 2)))
        k = int(rng.integers(0, n_strata))
        cov = (k // 2, k % 2)
        records.append(surv_patient(arm, float(rng.exponential(1) + 1e-9),
                                    float(rng.exponential(1) + 1e-9), cov))
    return Cohort.from_records(records)


# ---------------------------------------------------------------------------
# binary rule


def test_win_binary_death_dominates():
    assert BinaryRule().compare(BinaryOutcome(0, 0), BinaryOutcome(1, 0)) is WinStatus.WIN
    assert BinaryRule().compare(BinaryOutcome(0, 1), BinaryOutcome(1, 0)) is WinStatus.WIN
    assert BinaryRule().compare(BinaryOutcome(1, 0), BinaryOutcome(0, 1)) is WinStatus.LOSS


def test_win_binary_hosp_breaks_death_ties():
    assert BinaryRule().compare(BinaryOutcome(1, 0), BinaryOutcome(1, 1)) is WinStatus.WIN
    assert BinaryRule().compare(BinaryOutcome(0, 0), BinaryOutcome(0, 1)) is WinStatus.WIN
    assert BinaryRule().compare(BinaryOutcome(0, 0), BinaryOutcome(0, 0)) is WinStatus.TIE


def test_win_binary_exhaustive_antisymmetry():
    for y_t, x_t, y_c, x_c in itertools.product((0, 1), repeat=4):
        a = BinaryOutcome(y_t, x_t)
        b = BinaryOutcome(y_c, x_c)
        assert BinaryRule().compare(a, b) is BinaryRule().compare(b, a).mirrored()


def test_win_binary_expected_scenarios():
    # the three win configurations: control dies; both die, only control
    # hospitalized; neither dies, only control hospitalized
    wins = [
        (BinaryOutcome(0, 0), BinaryOutcome(1, 1)),
        (BinaryOutcome(1, 0), BinaryOutcome(1, 1)),
        (BinaryOutcome(0, 0), BinaryOutcome(0, 1)),
    ]
    for t, c in wins:
        assert BinaryRule().compare(t, c) is WinStatus.WIN


def written_out_binary_score(t, c):
    """The binary priority spelled out: death decides, hospitalization breaks its ties."""
    death = np.sign(c.y_death - t.y_death)
    return int(np.where(death != 0, death, np.sign(c.x_hosp - t.x_hosp)))


def test_binary_key_matches_written_out_priority():
    # the reference is independent of the rule's key, which the pair-matrix
    # oracle below is built from
    rule = BinaryRule()
    for y_t, x_t, y_c, x_c in itertools.product((0, 1), repeat=4):
        t, c = BinaryOutcome(y_t, x_t), BinaryOutcome(y_c, x_c)
        want = written_out_binary_score(t, c)
        assert rule.compare(t, c).value == want
        assert int(rule.pair_scores(rule.columns(t), rule.columns(c))) == want


# ---------------------------------------------------------------------------
# survival rule


def test_win_survival_control_death_first():
    assert SurvivalRule().compare(SurvivalOutcome(5, 9), SurvivalOutcome(2, 9)) is WinStatus.WIN


def test_win_survival_identical_is_tie():
    assert SurvivalRule().compare(SurvivalOutcome(3, 4), SurvivalOutcome(3, 4)) is WinStatus.TIE


def test_win_survival_hosp_branch_when_neither_dies_first():
    # both have hospitalization before own death: decided on hosp times,
    # earlier hospitalization loses
    assert SurvivalRule().compare(SurvivalOutcome(10, 3), SurvivalOutcome(9, 2)) is WinStatus.WIN
    assert SurvivalRule().compare(SurvivalOutcome(10, 2), SurvivalOutcome(9, 3)) is WinStatus.LOSS


def test_win_survival_death_branch_when_one_dies_first():
    # treatment death is its first event, so deaths decide even though the
    # control hospitalization would favor treatment
    assert SurvivalRule().compare(SurvivalOutcome(2, 5), SurvivalOutcome(4, 1)) is WinStatus.LOSS


def test_win_survival_priority_swap_changes_branch():
    t, c = SurvivalOutcome(2, 5), SurvivalOutcome(4, 1)
    assert SurvivalRule("death").compare(t, c) is WinStatus.LOSS
    assert SurvivalRule("hosp").compare(t, c) is WinStatus.WIN


def test_win_survival_rejects_nonpositive_times():
    with pytest.raises(ValueError):
        SurvivalOutcome(0.0, 1.0)
    # a cohort revalidates outcomes that bypassed the dataclass guard
    bad = SurvivalOutcome.__new__(SurvivalOutcome)
    object.__setattr__(bad, "e_death", -1.0)
    object.__setattr__(bad, "e_hosp", 1.0)
    with pytest.raises(ValueError):
        surv_cohort(PatientRecord(Arm.TREATMENT, (0, 0), bad))


def test_win_survival_swap_antisymmetry_random():
    rng = np.random.default_rng(8)
    for _ in range(500):
        t = SurvivalOutcome(float(rng.exponential(1) + 1e-12), float(rng.exponential(1) + 1e-12))
        c = SurvivalOutcome(float(rng.exponential(1) + 1e-12), float(rng.exponential(1) + 1e-12))
        assert SurvivalRule().compare(t, c) is SurvivalRule().compare(c, t).mirrored()


def test_win_survival_rank_invariance():
    rng = np.random.default_rng(9)
    transforms = [lambda x: x**3, lambda x: math.log1p(x), lambda x: 2.5 * x]
    for _ in range(200):
        t = SurvivalOutcome(float(rng.exponential(1) + 1e-9), float(rng.exponential(1) + 1e-9))
        c = SurvivalOutcome(float(rng.exponential(1) + 1e-9), float(rng.exponential(1) + 1e-9))
        base = SurvivalRule().compare(t, c)
        for f in transforms:
            ft = SurvivalOutcome(f(t.e_death), f(t.e_hosp))
            fc = SurvivalOutcome(f(c.e_death), f(c.e_hosp))
            assert SurvivalRule().compare(ft, fc) is base


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


def random_groups(rng, is_t):
    """Stratum labels 0..7: up to six random groups, a singleton and a treatment-only group."""
    groups = rng.integers(0, rng.integers(1, 7), len(is_t))
    t_rows = np.flatnonzero(is_t)
    groups[t_rows[-1]] = 6
    groups[t_rows[:-1][:2]] = 7
    return groups


KERNEL_IDS = ["binary", "survival-death", "survival-hosp", "continuous"]


@pytest.mark.parametrize("tie_heavy", [True, False])
@pytest.mark.parametrize("family,rule", KERNEL_RULES, ids=KERNEL_IDS)
def test_kernels_match_pair_score_oracle(family, rule, tie_heavy):
    rng = np.random.default_rng(10)
    informative = 0
    for n in range(2, 41):
        outcomes = random_outcomes(rng, family, n, tie_heavy)
        cohort = Cohort.from_records(PatientRecord(Arm.CONTROL, (0, 0), o) for o in outcomes)
        cols = rule.columns(cohort)
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
        # random strata, then one stratum: only same-stratum pairs count
        for groups in (random_groups(rng, is_t), np.zeros(n, dtype=np.uint8)):
            in_stratum = groups[:, None] == groups[None, :]
            same = np.where(in_stratum, mat, 0)
            cross = same[np.ix_(is_t, ~is_t)]
            u, n_tie = rule.u_ties(cols, is_t, groups)
            assert u.dtype == np.int64
            assert np.array_equal(u, same.sum(axis=1))
            assert n_tie == (in_stratum & (mat == 0))[np.ix_(is_t, ~is_t)].sum()
            # the wins and losses fs_unmatched_test derives: treatment-treatment
            # scores cancel, so the treatment U-scores sum to wins less losses
            assert u[is_t].sum() == (cross > 0).sum() - (cross < 0).sum()

        try:
            res = fs_unmatched_test(replace(cohort, arm=is_t.astype(int)), rule, stratified=False)
        except DegenerateResultError:
            assert not u.any()
            continue
        assert (res.n_w, res.n_l, res.n_tie) == ((cross > 0).sum(), (cross < 0).sum(), n_tie)
        informative += 1
    assert informative > 30


def per_stratum_fs(cohort, rule, stratified):
    """FS reference: each stratum's O(n^2) score matrix, T and V summed stratum by stratum.

    Returns the per-row U-scores (against each row's own stratum, dropped
    strata included) and (n_w, n_l, n_tie, T, V, dropped strata).
    """
    cols = rule.columns(cohort)
    keys = cohort.stratum if stratified else np.zeros(len(cohort), dtype=int)
    u = np.zeros(len(cohort), dtype=np.int64)
    t_stat = v_stat = 0.0
    n_w = n_l = n_tie = dropped = 0
    for k in np.unique(keys):
        rows = np.flatnonzero(keys == k)
        scores = oracle_pair_matrix(rule, tuple(c[rows] for c in cols))
        u[rows] = scores.sum(axis=1)
        is_t = cohort.arm[rows] == Arm.TREATMENT
        n_k, m_k = len(rows), int(is_t.sum())
        if n_k < 2 or m_k == 0 or m_k == n_k:
            dropped += 1
            continue
        cross = scores[np.ix_(is_t, ~is_t)]
        n_w += int((cross > 0).sum())
        n_l += int((cross < 0).sum())
        n_tie += int((cross == 0).sum())
        t_stat += float(u[rows][is_t].sum())
        v_stat += m_k * (n_k - m_k) / (n_k * (n_k - 1)) * float((u[rows].astype(float) ** 2).sum())
    return u, (n_w, n_l, n_tie, t_stat, v_stat, dropped)


@pytest.mark.parametrize("tie_heavy", [True, False])
@pytest.mark.parametrize("family,rule", KERNEL_RULES, ids=KERNEL_IDS)
def test_fs_matches_per_stratum_reference_exactly(family, rule, tie_heavy):
    rng = np.random.default_rng(21)
    dropped = 0
    for n in (100, 250, 600):
        # skewed covariates and stage leave some of the 8 strata tiny or one-armed
        x1 = (rng.random(n) < 0.05).astype(int)
        x2 = (rng.random(n) < 0.3).astype(int)
        stage = (rng.random(n) < 0.1).astype(int)
        arm = (rng.random(n) < rng.uniform(0.3, 0.7)).astype(int)
        cohort = Cohort.from_records(
            PatientRecord(Arm(a), (c1, c2), o, st)
            for a, c1, c2, st, o in zip(arm, x1, x2, stage, random_outcomes(rng, family, n, tie_heavy))
        )
        for stratified in (True, False):
            want_u, (n_w, n_l, n_tie, t_stat, v_stat, want_dropped) = per_stratum_fs(
                cohort, rule, stratified)
            res = fs_unmatched_test(cohort, rule, stratified)
            assert (res.n_w, res.n_l, res.n_tie, res.dropped_strata) == (n_w, n_l, n_tie, want_dropped)
            t = res.n_w - res.n_l
            assert t == t_stat
            assert res.z == t / math.sqrt(v_stat)
            groups = cohort.stratum if stratified else np.zeros(len(cohort), dtype=int)
            u, _ = rule.u_ties(rule.columns(cohort), cohort.arm == Arm.TREATMENT, groups)
            assert np.array_equal(u, want_u)
            dropped += res.dropped_strata
    assert dropped > 0


# ---------------------------------------------------------------------------
# continuous rule


def test_improvement_indicators_strict_cutoff():
    o = ContinuousOutcome(10.0, (7.0, 9.0, 9.0))
    assert improvement_indicators(o, 0.8).tolist() == [1, 0, 0]
    assert improvement_indicators(o, 0.8).any()
    exact = ContinuousOutcome(10.0, (8.0, 9.0, 9.0))
    assert improvement_indicators(exact, 0.8).tolist() == [0, 0, 0]
    assert not improvement_indicators(exact, 0.8).any()
    # one vectorised definition: a cohort's rows match the single outcomes
    cohort = Cohort.from_records(PatientRecord(Arm.CONTROL, (0, 0), x) for x in (o, exact))
    assert improvement_indicators(cohort, 0.8).tolist() == [[1, 0, 0], [0, 0, 0]]


def test_improvement_indicators_rejects_bad_baseline():
    with pytest.raises(ValueError):
        improvement_indicators(ContinuousOutcome(0.0, (1.0, 1.0, 1.0)), 0.8)


def test_win_continuous_counts():
    t = ContinuousOutcome(10.0, (1.0, 2.0, 9.0))
    c = ContinuousOutcome(10.0, (1.0, 9.0, 9.0))
    assert ContinuousRule(0.8).compare(t, c) is WinStatus.WIN
    assert ContinuousRule(0.8).compare(c, t) is WinStatus.LOSS
    assert ContinuousRule(0.8).compare(t, t) is WinStatus.TIE


def test_win_continuous_antisymmetry_random():
    rng = np.random.default_rng(11)
    for _ in range(300):
        t = ContinuousOutcome(5.0, tuple(rng.normal(4, 2, 3)))
        c = ContinuousOutcome(5.0, tuple(rng.normal(4, 2, 3)))
        assert ContinuousRule(0.8).compare(t, c) is ContinuousRule(0.8).compare(c, t).mirrored()


# ---------------------------------------------------------------------------
# matched test


def adjacent_pairs(n):
    """Rows 2i (treatment) and 2i + 1 (control) as pair i."""
    return np.arange(n).reshape(-1, 2)


def test_matched_null_center():
    records = []
    for i in range(8):
        win = i < 4
        records.append(surv_patient(Arm.TREATMENT, 5.0 if win else 1.0, 10.0))
        records.append(surv_patient(Arm.CONTROL, 1.0 if win else 5.0, 10.0))
    res = matched_wr_test(Cohort.from_records(records), adjacent_pairs(len(records)),
                          SurvivalRule())
    assert res.n_w == res.n_l == 4
    assert res.z == pytest.approx(0.0, abs=1e-12)
    assert res.r_w == pytest.approx(1.0)
    assert res.p_value == pytest.approx(1.0)


def test_matched_step5_arithmetic_frozen():
    # 12 wins, 4 losses: p_w = 0.75, R_w = 3, z = 0.25 / sqrt(0.1875/16)
    records = []
    for i in range(16):
        win = i < 12
        records.append(surv_patient(Arm.TREATMENT, 5.0 if win else 1.0, 10.0))
        records.append(surv_patient(Arm.CONTROL, 1.0 if win else 5.0, 10.0))
    res = matched_wr_test(Cohort.from_records(records), adjacent_pairs(len(records)),
                          SurvivalRule())
    assert res.p_w == pytest.approx(0.75)
    assert res.r_w == pytest.approx(3.0)
    assert res.z == pytest.approx(2.309401076758503, abs=1e-12)
    # CI from the transformed binomial interval
    half = 1.959963984540054 * math.sqrt(0.75 * 0.25 / 16)
    lo, hi = 0.75 - half, 0.75 + half
    assert res.ci_low == pytest.approx(lo / (1 - lo))
    assert res.ci_high == pytest.approx(hi / (1 - hi))


def test_matched_all_ties_degenerate():
    cohort = surv_cohort(
        surv_patient(Arm.TREATMENT, 1.0, 2.0),
        surv_patient(Arm.CONTROL, 1.0, 2.0),
    )
    with pytest.raises(DegenerateResultError):
        matched_wr_test(cohort, adjacent_pairs(2), SurvivalRule())


def test_matched_complete_separation_sentinel():
    records = []
    for i in range(5):
        records.append(surv_patient(Arm.TREATMENT, 5.0 + i, 10.0))
        records.append(surv_patient(Arm.CONTROL, 1.0 + 0.1 * i, 10.0))
    res = matched_wr_test(Cohort.from_records(records), adjacent_pairs(len(records)),
                          SurvivalRule())
    assert res.z == math.inf
    assert res.p_value == 0.0
    assert math.isinf(res.r_w)


# ---------------------------------------------------------------------------
# unmatched test vs brute-force oracle


def brute_force_fs(cohort, rule, stratified=True):
    """Independent recomputation of T and V straight from the definitions."""
    rows = list(cohort)
    strata = sorted({rec.stratum if stratified else 0 for rec in rows})
    t_stat = 0.0
    v_stat = 0.0
    for k in strata:
        members = [i for i, rec in enumerate(rows) if (rec.stratum if stratified else 0) == k]
        n_k = len(members)
        m_k = sum(1 for i in members if rows[i].arm == Arm.TREATMENT)
        if n_k < 2 or m_k == 0 or m_k == n_k:
            continue
        u_sums = {}
        for i in members:
            total = 0
            for j in members:
                if j == i:
                    continue
                total += rule.compare(rows[i].outcome, rows[j].outcome).value
            u_sums[i] = total
        # antisymmetry implies the within-stratum scores sum to zero
        assert sum(u_sums.values()) == 0
        t_stat += sum(u_sums[i] for i in members if rows[i].arm == Arm.TREATMENT)
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
            t_stat, v_stat = brute_force_fs(cohort, rule, stratified)
            try:
                res = fs_unmatched_test(cohort, rule, stratified)
            except DegenerateResultError:
                assert v_stat == pytest.approx(0.0)
                continue
            t = res.n_w - res.n_l
            assert t == t_stat
            assert res.z == t / math.sqrt(v_stat)
            checked += 1
    assert checked > 100


def test_fs_two_by_two_toy_cohort():
    cohort = surv_cohort(
        surv_patient(Arm.TREATMENT, 4.0, 10.0),
        surv_patient(Arm.TREATMENT, 3.0, 10.0),
        surv_patient(Arm.CONTROL, 2.0, 10.0),
        surv_patient(Arm.CONTROL, 1.0, 10.0),
    )
    # deaths ordered 0 > 1 > 2 > 3: U = (3, 1, -1, -3), T = 4,
    # V = (2*2)/(4*3) * (9+1+1+9) = 20/3
    res = fs_unmatched_test(cohort, SurvivalRule(), stratified=True)
    assert res.n_w == 4 and res.n_l == 0
    assert res.z == pytest.approx(4.0 / math.sqrt(20.0 / 3.0))
    assert math.isinf(res.r_w)


def test_fs_all_identical_degenerate():
    cohort = surv_cohort(*(surv_patient(Arm(i % 2), 1.0, 2.0) for i in range(6)))
    with pytest.raises(DegenerateResultError):
        fs_unmatched_test(cohort, SurvivalRule())


def test_fs_sign_test_structure_one_pair_per_stratum():
    # one patient per arm per stratum, no ties: T ranges over {-K..K} parity-bound
    rng = np.random.default_rng(33)
    for k_strata in (1, 2, 3):
        values = set()
        for _ in range(80):
            records = []
            for k in range(k_strata):
                cov = (k // 2, k % 2)
                records.append(
                    surv_patient(Arm.TREATMENT, float(rng.exponential(1) + 1e-9),
                                 float(rng.exponential(1) + 1e-9), cov)
                )
                records.append(
                    surv_patient(Arm.CONTROL, float(rng.exponential(1) + 1e-9),
                                 float(rng.exponential(1) + 1e-9), cov)
                )
            res = fs_unmatched_test(surv_cohort(*records), SurvivalRule(), stratified=True)
            t = res.n_w - res.n_l
            assert abs(t) <= k_strata
            values.add(t)
        assert values <= set(range(-k_strata, k_strata + 1))


def test_fs_dropped_strata_counted():
    cohort = surv_cohort(
        surv_patient(Arm.TREATMENT, 4.0, 10.0, (0, 0)),
        surv_patient(Arm.CONTROL, 2.0, 10.0, (0, 0)),
        surv_patient(Arm.TREATMENT, 3.0, 10.0, (0, 1)),  # stratum lacking controls
    )
    res = fs_unmatched_test(cohort, SurvivalRule(), stratified=True)
    assert res.dropped_strata == 1


def test_arm_swap_maps_statistics():
    rng = np.random.default_rng(44)
    flips = 0
    for _ in range(150):
        cohort = random_survival_cohort(rng, n=16)
        swapped = replace(cohort, arm=1 - cohort.arm)
        for stratified in (True, False):
            try:
                a = fs_unmatched_test(cohort, SurvivalRule(), stratified)
                b = fs_unmatched_test(swapped, SurvivalRule(), stratified)
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
        transformed = replace(cohort, e_death=cohort.e_death**3, e_hosp=cohort.e_hosp**3)
        for stratified in (True, False):
            try:
                a = fs_unmatched_test(cohort, SurvivalRule(), stratified)
                b = fs_unmatched_test(transformed, SurvivalRule(), stratified)
            except DegenerateResultError:
                continue
            assert (a.n_w, a.n_l, a.n_tie) == (b.n_w, b.n_l, b.n_tie)
            assert a.z == pytest.approx(b.z)


def test_matched_arm_swap_antisymmetry():
    rng = np.random.default_rng(66)
    flips = 0
    for _ in range(150):
        cohort = random_survival_cohort(rng, n=18)
        swapped = replace(cohort, arm=1 - cohort.arm)
        try:
            pairing = form_matched_pairs(cohort, np.random.default_rng(1))
            res = matched_wr_test(cohort, pairing.pairs, SurvivalRule())
            mirrored_pairs = pairing.pairs[:, ::-1]
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
    cohort = surv_cohort(
        surv_patient(Arm.TREATMENT, 4.0, 10.0),
        surv_patient(Arm.TREATMENT, 2.5, 10.0),
        surv_patient(Arm.CONTROL, 2.0, 10.0),
        surv_patient(Arm.CONTROL, 3.0, 10.0),
    )
    res = fs_unmatched_test(cohort, SurvivalRule(), stratified=False)
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
