"""Winning rules and test procedures against brute-force oracles."""

import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from wrtrials import (
    Arm,
    Cohort,
    DegenerateResultError,
    fs_unmatched_test,
    form_matched_pairs,
    improvement_indicators,
    matched_wr_test,
)
from wrtrials.classic_tests import cox_fit, obrien_first_event
from wrtrials.core import _OUTCOME_COLUMNS
from wrtrials.wr_tests import BinaryRule, ContinuousRule, SurvivalRule, WrResult, _KeyRule

from test_core import make_cohort

WIN, TIE, LOSS = 1, 0, -1


def binary(y_death, x_hosp):
    return dict(y_death=y_death, x_hosp=x_hosp)


def surv(e_death, e_hosp):
    return dict(e_death=e_death, e_hosp=e_hosp)


def cont(y_base, y):
    return dict(y_base=y_base, y=y)


def pair_score(rule, t, c):
    """The rule's score of outcome ``t`` against outcome ``c``, on 0-d columns of a two-row cohort.

    ``t`` and ``c`` map one family's outcome columns to one patient's values.
    """
    cols = rule.columns(make_cohort([1, 0], **{name: [t[name], c[name]] for name in t}))
    return int(rule.pair_scores(tuple(x[0, ...] for x in cols), tuple(x[1, ...] for x in cols)))


def sign(x):
    return (x > 0) - (x < 0)


def written_out_score(rule, t, c):
    """Each rule's definition on one pair of patients given as plain-Python values.

    The reference is independent of the rules' columns and ``pair_scores``,
    which the oracles below check.
    """
    if isinstance(rule, BinaryRule):
        # death decides, hospitalization breaks its ties; no event is better
        return sign(c["y_death"] - t["y_death"]) or sign(c["x_hosp"] - t["x_hosp"])
    if isinstance(rule, SurvivalRule):
        p, s = ("e_death", "e_hosp") if rule.priority == "death" else ("e_hosp", "e_death")
        # the primary time decides when it is the first event of either patient
        if t[p] < t[s] or c[p] < c[s]:
            return sign(t[p] - c[p])
        return sign(t[s] - c[s])
    # continuous: more components improved (y_j / y_base < c_t) is better
    improved = [sum(v / o["y_base"] < rule.c_t for v in o["y"]) for o in (t, c)]
    return sign(improved[0] - improved[1])


def outcome_rows(cohort):
    """Each patient's outcome columns as a dict of plain-Python values."""
    names = [name for name in _OUTCOME_COLUMNS if getattr(cohort, name) is not None]
    columns = (getattr(cohort, name).tolist() for name in names)
    return [dict(zip(names, values)) for values in zip(*columns)]


def random_survival_cohort(rng, n=None, n_strata=2):
    n = n or int(rng.integers(4, 30))
    rows = [(int(rng.integers(0, 2)), int(rng.integers(0, n_strata)),
             float(rng.exponential(1) + 1e-9), float(rng.exponential(1) + 1e-9))
            for _ in range(n)]
    arm, k, e_death, e_hosp = np.array(rows).T
    k = k.astype(int)
    return make_cohort(arm.astype(int), k // 2, k % 2, e_death=e_death, e_hosp=e_hosp)


# ---------------------------------------------------------------------------
# binary rule


def test_win_binary_death_dominates():
    assert pair_score(BinaryRule(), binary(0, 0), binary(1, 0)) == WIN
    assert pair_score(BinaryRule(), binary(0, 1), binary(1, 0)) == WIN
    assert pair_score(BinaryRule(), binary(1, 0), binary(0, 1)) == LOSS


def test_win_binary_hosp_breaks_death_ties():
    assert pair_score(BinaryRule(), binary(1, 0), binary(1, 1)) == WIN
    assert pair_score(BinaryRule(), binary(0, 0), binary(0, 1)) == WIN
    assert pair_score(BinaryRule(), binary(0, 0), binary(0, 0)) == TIE


def test_win_binary_exhaustive_antisymmetry():
    for y_t, x_t, y_c, x_c in itertools.product((0, 1), repeat=4):
        a, b = binary(y_t, x_t), binary(y_c, x_c)
        assert pair_score(BinaryRule(), a, b) == -pair_score(BinaryRule(), b, a)


def test_win_binary_expected_scenarios():
    # the three win configurations: control dies; both die, only control
    # hospitalized; neither dies, only control hospitalized
    wins = [
        (binary(0, 0), binary(1, 1)),
        (binary(1, 0), binary(1, 1)),
        (binary(0, 0), binary(0, 1)),
    ]
    for t, c in wins:
        assert pair_score(BinaryRule(), t, c) == WIN


def test_binary_key_matches_written_out_priority():
    # the reference is independent of the rule's key, which the pair-matrix
    # oracle below is built from
    rule = BinaryRule()
    for y_t, x_t, y_c, x_c in itertools.product((0, 1), repeat=4):
        t, c = binary(y_t, x_t), binary(y_c, x_c)
        assert pair_score(rule, t, c) == written_out_score(rule, t, c)


# ---------------------------------------------------------------------------
# survival rule


def test_win_survival_control_death_first():
    assert pair_score(SurvivalRule(), surv(5, 9), surv(2, 9)) == WIN


def test_win_survival_identical_is_tie():
    assert pair_score(SurvivalRule(), surv(3, 4), surv(3, 4)) == TIE


def test_win_survival_hosp_branch_when_neither_dies_first():
    # both have hospitalization before own death: decided on hosp times,
    # earlier hospitalization loses
    assert pair_score(SurvivalRule(), surv(10, 3), surv(9, 2)) == WIN
    assert pair_score(SurvivalRule(), surv(10, 2), surv(9, 3)) == LOSS


def test_win_survival_death_branch_when_one_dies_first():
    # treatment death is its first event, so deaths decide even though the
    # control hospitalization would favor treatment
    assert pair_score(SurvivalRule(), surv(2, 5), surv(4, 1)) == LOSS


def test_win_survival_priority_swap_changes_branch():
    t, c = surv(2, 5), surv(4, 1)
    assert pair_score(SurvivalRule("death"), t, c) == LOSS
    assert pair_score(SurvivalRule("hosp"), t, c) == WIN
    with pytest.raises(ValueError, match="priority must be 'death' or 'hosp'"):
        SurvivalRule("first")


def test_win_survival_rejects_nonpositive_times():
    # a cohort checks its times when it is built
    for e_death in (0.0, -1.0):
        with pytest.raises(ValueError, match="strictly positive"):
            make_cohort([1, 0], **surv([e_death, 1.0], [1.0, 1.0]))
        with pytest.raises(ValueError, match="strictly positive"):
            make_cohort([1, 0], **surv([1.0, 1.0], [1.0, e_death]))


def test_win_survival_unsigned_times_score_as_floats():
    # 1 - 2 wraps to 255 in uint8; the cohort holds its times as floats
    for dtype in (np.uint8, np.int64, float):
        t = surv(np.array(1, dtype), np.array(5, dtype))
        c = surv(np.array(2, dtype), np.array(5, dtype))
        assert pair_score(SurvivalRule(), t, c) == LOSS
    # so every survival analysis of integer times on a tie-heavy grid equals
    # that of the float copy
    rng = np.random.default_rng(5)
    arm = np.arange(40) % 2
    x1, x2 = (rng.random((2, 40)) < 0.5).astype(int)
    times = rng.integers(1, 6, (2, 40))
    calls = [cox_fit, obrien_first_event] + [
        lambda c, rule=SurvivalRule(priority), strat=strat: fs_unmatched_test(c, rule, strat)
        for priority in ("death", "hosp") for strat in (True, False)]
    as_float = make_cohort(arm, x1, x2, e_death=times[0].astype(float), e_hosp=times[1].astype(float))
    for dtype in (np.uint8, np.int64):
        cohort = make_cohort(arm, x1, x2, e_death=times[0].astype(dtype), e_hosp=times[1].astype(dtype))
        assert cohort.e_death.dtype == cohort.e_hosp.dtype == np.float64
        assert [repr(call(cohort)) for call in calls] == [repr(call(as_float)) for call in calls]


def test_win_survival_swap_antisymmetry_random():
    rng = np.random.default_rng(8)
    for _ in range(500):
        t = surv(float(rng.exponential(1) + 1e-12), float(rng.exponential(1) + 1e-12))
        c = surv(float(rng.exponential(1) + 1e-12), float(rng.exponential(1) + 1e-12))
        assert pair_score(SurvivalRule(), t, c) == -pair_score(SurvivalRule(), c, t)


def test_win_survival_rank_invariance():
    rng = np.random.default_rng(9)
    transforms = [lambda x: x**3, lambda x: math.log1p(x), lambda x: 2.5 * x]
    for _ in range(200):
        t = surv(float(rng.exponential(1) + 1e-9), float(rng.exponential(1) + 1e-9))
        c = surv(float(rng.exponential(1) + 1e-9), float(rng.exponential(1) + 1e-9))
        base = pair_score(SurvivalRule(), t, c)
        for f in transforms:
            ft = surv(f(t["e_death"]), f(t["e_hosp"]))
            fc = surv(f(c["e_death"]), f(c["e_hosp"]))
            assert pair_score(SurvivalRule(), ft, fc) == base


def oracle_pair_matrix(rule, cols):
    """The O(n^2) form: every pair's score, row i scored against column j."""
    return rule.pair_scores(tuple(c[:, None] for c in cols), tuple(c[None, :] for c in cols))


def random_outcomes(rng, family, n, tie_heavy):
    """Outcome columns on a small integer grid (tie-heavy) or from continuous laws (tie-free)."""
    def draw(size):
        return rng.integers(1, 5, size).astype(float) if tie_heavy else rng.exponential(1, size) + 1e-9

    if family == "binary":
        return binary(*rng.integers(0, 2, (n, 2)).T)
    if family == "survival":
        return surv(draw(n), draw(n))
    y_base = draw(n)
    y = np.array([draw(3) for _ in range(n)])
    return cont(np.full(n, 5.0) if tie_heavy else y_base, y)


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
        cohort = make_cohort(np.zeros(n, dtype=int), **random_outcomes(rng, family, n, tie_heavy))
        rows = outcome_rows(cohort)
        cols = rule.columns(cohort)
        mat = oracle_pair_matrix(rule, cols)
        for i, j in itertools.product(range(n), repeat=2):
            assert mat[i, j] == written_out_score(rule, rows[i], rows[j])
        # the elementwise form on shuffled partners, as the matched test uses it
        perm = rng.permutation(n)
        shuffled = rule.pair_scores(cols, tuple(c[perm] for c in cols))
        assert shuffled.dtype == np.int64
        assert shuffled.tolist() == [written_out_score(rule, rows[i], rows[perm[i]])
                                     for i in range(n)]

        is_t = rng.random(n) < 0.5
        is_t[:2] = (True, False)
        np.fill_diagonal(mat, 0)
        # random strata, then one stratum: only same-stratum pairs count
        for groups in (random_groups(rng, is_t), np.zeros(n, dtype=np.uint8)):
            in_stratum = groups[:, None] == groups[None, :]
            same = np.where(in_stratum, mat, 0)
            cross = same[np.ix_(is_t, ~is_t)]
            u, n_tie = rule.u_ties(cohort, is_t, groups)
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
        cohort = make_cohort(arm, x1, x2, stage, **random_outcomes(rng, family, n, tie_heavy))
        for stratified in (True, False):
            want_u, (n_w, n_l, n_tie, t_stat, v_stat, want_dropped) = per_stratum_fs(
                cohort, rule, stratified)
            res = fs_unmatched_test(cohort, rule, stratified)
            assert (res.n_w, res.n_l, res.n_tie, res.dropped_strata) == (n_w, n_l, n_tie, want_dropped)
            t = res.n_w - res.n_l
            assert t == t_stat
            assert res.z == t / math.sqrt(v_stat)
            groups = cohort.stratum if stratified else np.zeros(len(cohort), dtype=int)
            u, _ = rule.u_ties(cohort, cohort.arm == Arm.TREATMENT, groups)
            assert np.array_equal(u, want_u)
            dropped += res.dropped_strata
    assert dropped > 0


@pytest.mark.parametrize("tie_heavy", [True, False])
@pytest.mark.parametrize("family,rule", KERNEL_RULES, ids=KERNEL_IDS)
def test_label_free_unstratified_path_equals_zero_labels(family, rule, tie_heavy):
    # the unstratified FS test passes no labels; all-zero labels are the
    # one-stratum reference, read by the stratified test on a one-stratum cohort
    rng = np.random.default_rng(41)
    informative = 0
    for n in (2, 3, 7, 50, 400):
        arm = (rng.random(n) < 0.5).astype(int)
        arm[:2] = (1, 0)
        cohort = make_cohort(arm, **random_outcomes(rng, family, n, tie_heavy))
        assert not cohort.stratum.any()
        is_t = cohort.arm == Arm.TREATMENT
        u, n_tie = rule.u_ties(cohort, is_t)
        u_zero, n_tie_zero = rule.u_ties(cohort, is_t, np.zeros(n, dtype=np.uint8))
        assert u.dtype == u_zero.dtype == np.int64
        assert np.array_equal(u, u_zero)
        assert type(n_tie) is int and n_tie == n_tie_zero
        # so T (wins less losses) and z = T / sqrt(V) are the same floats
        one = or_degenerate(fs_unmatched_test, cohort, rule, False)
        zero = or_degenerate(fs_unmatched_test, cohort, rule, True)
        assert (one is None) == (zero is None)
        if one is not None:
            assert repr(one) == repr(zero)
            informative += 1
    assert informative >= 3


@pytest.mark.parametrize("tie_heavy", [True, False])
@pytest.mark.parametrize("priority", ["death", "hosp"])
def test_survival_analyses_sharing_a_cohort_equal_fresh_copies_in_every_order(priority, tie_heavy):
    # Cox and O'Brien share the cohort's first-event ranking and both FS
    # tests its time-column sorts, each built by whichever call comes first
    rng = np.random.default_rng(43)
    rule = SurvivalRule(priority)
    calls = {
        "cox": cox_fit,
        "obrien": obrien_first_event,
        "fs strat": lambda c: fs_unmatched_test(c, rule, True),
        "fs unstrat": lambda c: fs_unmatched_test(c, rule, False),
    }
    informative = 0
    for n in (12, 60, 300):
        arm = (rng.random(n) < 0.5).astype(int)
        arm[:4] = (1, 1, 0, 0)
        x1, x2, stage = (rng.random((3, n)) < 0.4).astype(int)
        cohort = make_cohort(arm, x1, x2, stage, **random_outcomes(rng, "survival", n, tie_heavy))
        alone = {name: repr(or_degenerate(call, replace(cohort))) for name, call in calls.items()}
        informative += sum(r != "None" for r in alone.values())
        for order in itertools.permutations(calls):
            shared = replace(cohort)
            assert {name: repr(or_degenerate(calls[name], shared)) for name in order} == alone
            # the kept rankings are built once and cannot be written through
            assert shared.first_event_ties is shared.first_event_ties
            assert shared.time_orders is shared.time_orders
            for kept in (shared.first_event, *shared.first_event_ties, *shared.time_orders.values()):
                assert not kept.flags.writeable
    assert informative >= 10


# ---------------------------------------------------------------------------
# count kernel of the key rules: properties against the pair oracle

PROPERTY = settings(derandomize=True, max_examples=200, deadline=None)


@st.composite
def level_tables(draw):
    """Levels, arms and stratum labels of 1-40 rows.

    The levels are a random subset of 0..3 (so a cohort may have one level)
    and the labels a random subset of 0..7 (so labels have gaps); strata of
    one arm or one row arise as they fall.
    """
    n = draw(st.integers(1, 40))
    levels = draw(st.lists(st.integers(0, _KeyRule.L - 1), min_size=1, max_size=4, unique=True))
    labels = draw(st.lists(st.integers(0, 7), min_size=1, max_size=8, unique=True))
    key = draw(hnp.arrays(np.intp, n, elements=st.sampled_from(levels)))
    is_t = draw(hnp.arrays(bool, n))
    groups = draw(hnp.arrays(np.uint8, n, elements=st.sampled_from(labels)))
    return key, is_t, groups


@PROPERTY
@given(level_tables())
def test_count_kernel_matches_pair_oracle(table):
    key, is_t, groups = table
    same = groups[:, None] == groups[None, :]
    scores = np.where(same, np.sign(key[:, None] - key[None, :]), 0)
    ties = same & (key[:, None] == key[None, :])
    # cohorts whose rule levels are the drawn levels
    arm = is_t.astype(int)
    improved = np.arange(3) < key[:, None]
    cohorts = {
        BinaryRule(): make_cohort(arm, **binary((3 - key) // 2, (3 - key) % 2)),
        ContinuousRule(0.8): make_cohort(arm, **cont(np.ones(len(key)), np.where(improved, 0.5, 1.0))),
    }
    for rule, cohort in cohorts.items():
        assert np.array_equal(rule.columns(cohort)[0], key)
        u, n_tie = rule.u_ties(cohort, is_t, groups)
        assert u.dtype == np.int64
        assert np.array_equal(u, scores.sum(axis=1))
        assert type(n_tie) is int
        assert n_tie == ties[np.ix_(is_t, ~is_t)].sum()


def grid_cohorts(family):
    """Cohorts of 2-40 rows with outcomes on small grids, so ties are frequent."""
    @st.composite
    def build(draw):
        n = draw(st.integers(2, 40))

        def column(values, size=n):
            return draw(hnp.arrays(np.asarray(values).dtype, size, elements=st.sampled_from(values)))

        design = {name: column((0, 1)) for name in ("arm", "x1", "x2", "stage")}
        if family == "binary":
            return Cohort(**design, y_death=column((0, 1)), x_hosp=column((0, 1)))
        if family == "survival":
            grid = (0.5, 1.0, 2.0, 3.0)
            return Cohort(**design, e_death=column(grid), e_hosp=column(grid))
        y = column((3.0, 4.0, 6.0, 9.0, 12.0), 3 * n).reshape(n, 3)
        return Cohort(**design, y_base=column((5.0, 10.0)), y=y)
    return build()


def or_degenerate(test, *args):
    """A test's result, or None when it is degenerate."""
    try:
        return test(*args)
    except DegenerateResultError:
        return None


def assert_reciprocal(x, y):
    """``y`` is 1 / ``x`` at rel 1e-12, with inf and 0 each other's reciprocal and NaN its own."""
    if math.isnan(x):
        assert math.isnan(y)
    elif x in (0.0, math.inf):
        assert y == (math.inf if x == 0 else 0.0)
    else:
        assert y == pytest.approx(1.0 / x, rel=1e-12)


@pytest.mark.parametrize("family,rule", KERNEL_RULES, ids=KERNEL_IDS)
def test_fs_arm_swap_negates_z_and_swaps_wins_and_losses(family, rule):
    @PROPERTY
    @given(grid_cohorts(family))
    def check(cohort):
        swapped = replace(cohort, arm=1 - cohort.arm)
        for stratified in (True, False):
            a = or_degenerate(fs_unmatched_test, cohort, rule, stratified)
            b = or_degenerate(fs_unmatched_test, swapped, rule, stratified)
            assert (a is None) == (b is None)
            if a is not None:
                assert b.z == -a.z
                assert (b.n_w, b.n_l, b.n_tie, b.dropped_strata) == (
                    a.n_l, a.n_w, a.n_tie, a.dropped_strata)
                # the win ratio inverts, and the CI (lo, hi) becomes (1/hi, 1/lo):
                # (0, inf) at the boundary maps to itself
                assert_reciprocal(a.r_w, b.r_w)
                assert_reciprocal(a.ci_high, b.ci_low)
                assert_reciprocal(a.ci_low, b.ci_high)
                for res in (a, b):
                    if math.isfinite(res.ci_low) and math.isfinite(res.ci_high):
                        assert res.ci_low < res.ci_high
    check()


@PROPERTY
@given(grid_cohorts("binary"), st.integers(0, 2**32 - 1))
def test_binary_float_columns_score_as_int(cohort, seed):
    floats = replace(cohort, y_death=cohort.y_death.astype(float),
                     x_hosp=cohort.x_hosp.astype(float))
    rule = BinaryRule()
    (k_int,), (k_float,) = rule.columns(cohort), rule.columns(floats)
    assert k_float.dtype.kind == "i"
    assert np.array_equal(k_int, k_float)
    # repr compares every field exactly, NaN included
    for stratified in (True, False):
        assert (repr(or_degenerate(fs_unmatched_test, cohort, rule, stratified))
                == repr(or_degenerate(fs_unmatched_test, floats, rule, stratified)))
    pairing = or_degenerate(form_matched_pairs, cohort, np.random.default_rng(seed))
    if pairing is not None:
        assert (repr(or_degenerate(matched_wr_test, cohort, pairing.pairs, rule))
                == repr(or_degenerate(matched_wr_test, floats, pairing.pairs, rule)))


# ---------------------------------------------------------------------------
# continuous rule


def test_improvement_indicators_strict_cutoff():
    # 7 / 10 is below the cutoff 0.8; 8 / 10 is exactly on it, so not improved
    cohort = make_cohort([0, 0], **cont([10.0, 10.0], [(7.0, 9.0, 9.0), (8.0, 9.0, 9.0)]))
    improved = improvement_indicators(cohort, 0.8)
    assert improved.tolist() == [[1, 0, 0], [0, 0, 0]]
    assert improved.any(axis=1).tolist() == [True, False]


def test_improvement_indicators_rejects_bad_baseline():
    # a cohort checks its baselines when it is built
    for y_base in (0.0, -1.0):
        with pytest.raises(ValueError, match="y_base"):
            make_cohort([0], **cont([y_base], [(1.0, 1.0, 1.0)]))


def test_win_continuous_counts():
    t = cont(10.0, (1.0, 2.0, 9.0))
    c = cont(10.0, (1.0, 9.0, 9.0))
    assert pair_score(ContinuousRule(0.8), t, c) == WIN
    assert pair_score(ContinuousRule(0.8), c, t) == LOSS
    assert pair_score(ContinuousRule(0.8), t, t) == TIE


def test_win_continuous_antisymmetry_random():
    rng = np.random.default_rng(11)
    for _ in range(300):
        t = cont(5.0, tuple(rng.normal(4, 2, 3)))
        c = cont(5.0, tuple(rng.normal(4, 2, 3)))
        assert pair_score(ContinuousRule(0.8), t, c) == -pair_score(ContinuousRule(0.8), c, t)


# ---------------------------------------------------------------------------
# matched test


def adjacent_pairs(n):
    """Rows 2i (treatment) and 2i + 1 (control) as pair i."""
    return np.arange(n).reshape(-1, 2)


def adjacent_pair_deaths(t_death, c_death):
    """A cohort whose pair i is rows 2i (treatment) and 2i + 1 (control), all hospitalized at 10."""
    e_death = np.column_stack([t_death, c_death]).ravel()
    return make_cohort([1, 0] * len(t_death), **surv(e_death, np.full(len(e_death), 10.0)))


def test_matched_null_center():
    cohort = adjacent_pair_deaths([5.0] * 4 + [1.0] * 4, [1.0] * 4 + [5.0] * 4)
    res = matched_wr_test(cohort, adjacent_pairs(len(cohort)), SurvivalRule())
    assert res.n_w == res.n_l == 4
    assert res.z == pytest.approx(0.0, abs=1e-12)
    assert res.r_w == pytest.approx(1.0)
    assert res.p_value == pytest.approx(1.0)


def test_matched_step5_arithmetic_frozen():
    # 12 wins, 4 losses: p_w = 0.75, R_w = 3, z = 0.25 / sqrt(0.1875/16)
    cohort = adjacent_pair_deaths([5.0] * 12 + [1.0] * 4, [1.0] * 12 + [5.0] * 4)
    res = matched_wr_test(cohort, adjacent_pairs(len(cohort)), SurvivalRule())
    assert res.p_w == pytest.approx(0.75)
    assert res.r_w == pytest.approx(3.0)
    assert res.z == pytest.approx(2.309401076758503, abs=1e-12)
    # CI from the transformed binomial interval
    half = 1.959963984540054 * math.sqrt(0.75 * 0.25 / 16)
    lo, hi = 0.75 - half, 0.75 + half
    assert res.ci_low == pytest.approx(lo / (1 - lo))
    assert res.ci_high == pytest.approx(hi / (1 - hi))


def test_matched_all_ties_degenerate():
    cohort = make_cohort([1, 0], **surv([1.0, 1.0], [2.0, 2.0]))
    with pytest.raises(DegenerateResultError):
        matched_wr_test(cohort, adjacent_pairs(2), SurvivalRule())
    # and so is a pairing with no pair at all
    with pytest.raises(DegenerateResultError, match="at least one pair"):
        matched_wr_test(cohort, np.empty((0, 2), dtype=int), SurvivalRule())


def test_matched_complete_separation_sentinel():
    i = np.arange(5)
    cohort = adjacent_pair_deaths(5.0 + i, 1.0 + 0.1 * i)
    res = matched_wr_test(cohort, adjacent_pairs(len(cohort)), SurvivalRule())
    assert res.z == math.inf
    assert res.p_value == 0.0
    assert math.isinf(res.r_w)
    assert (res.ci_low, res.ci_high) == (math.inf, math.inf)


def test_matched_complete_separation_all_losses_sentinel():
    i = np.arange(5)
    cohort = adjacent_pair_deaths(1.0 + 0.1 * i, 5.0 + i)
    res = matched_wr_test(cohort, adjacent_pairs(len(cohort)), SurvivalRule())
    assert (res.n_w, res.n_l, res.n_tie) == (0, 5, 0)
    assert res.z == -math.inf
    assert res.p_value == 0.0
    assert res.p_w == 0.0 and res.r_w == 0.0
    assert (res.ci_low, res.ci_high) == (0.0, 0.0)


# ---------------------------------------------------------------------------
# unmatched test vs brute-force oracle


def brute_force_fs(cohort, rule, stratified=True):
    """Independent recomputation of T and V straight from the definitions."""
    rows = outcome_rows(cohort)
    arms = cohort.arm.tolist()
    keys = cohort.stratum.tolist() if stratified else [0] * len(rows)
    t_stat = 0.0
    v_stat = 0.0
    for k in sorted(set(keys)):
        members = [i for i, key in enumerate(keys) if key == k]
        n_k = len(members)
        m_k = sum(1 for i in members if arms[i] == Arm.TREATMENT)
        if n_k < 2 or m_k == 0 or m_k == n_k:
            continue
        u_sums = {}
        for i in members:
            total = 0
            for j in members:
                if j == i:
                    continue
                total += written_out_score(rule, rows[i], rows[j])
            u_sums[i] = total
        # antisymmetry implies the within-stratum scores sum to zero
        assert sum(u_sums.values()) == 0
        t_stat += sum(u_sums[i] for i in members if arms[i] == Arm.TREATMENT)
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
    cohort = make_cohort([1, 1, 0, 0], **surv([4.0, 3.0, 2.0, 1.0], [10.0] * 4))
    # deaths ordered 0 > 1 > 2 > 3: U = (3, 1, -1, -3), T = 4,
    # V = (2*2)/(4*3) * (9+1+1+9) = 20/3
    res = fs_unmatched_test(cohort, SurvivalRule(), stratified=True)
    assert res.n_w == 4 and res.n_l == 0
    assert res.z == pytest.approx(4.0 / math.sqrt(20.0 / 3.0))
    assert math.isinf(res.r_w)


@pytest.mark.parametrize("stratified", [True, False])
def test_fs_no_decided_cross_arm_pair(stratified):
    # every cross-arm pair is decided on death, and ties there; the two treated
    # rows are decided on hospitalization against each other, so V > 0
    cohort = make_cohort([0, 1, 1], **surv([1.0, 1.0, 1.0], [2.0, 0.5, 0.7]))
    res = fs_unmatched_test(cohort, SurvivalRule(), stratified)
    assert (res.n_w, res.n_l, res.n_tie, res.z, res.p_value) == (0, 0, 2, 0.0, 1.0)
    assert all(math.isnan(v) for v in (res.r_w, res.p_w, res.ci_low, res.ci_high))


@pytest.mark.parametrize("stratified", [True, False])
def test_fs_all_wins_and_all_losses_give_the_same_ci(stratified):
    # every treated row beats every control: levels (3, 2) against (1, 0)
    cohort = make_cohort([1, 1, 0, 0], **binary([0, 0, 1, 1], [0, 1, 0, 1]))
    swapped = replace(cohort, arm=1 - cohort.arm)
    wins = fs_unmatched_test(cohort, BinaryRule(), stratified)
    losses = fs_unmatched_test(swapped, BinaryRule(), stratified)
    # U = (3, 1, -1, -3): T = 4, V = (2*2)/(4*3) * 20
    assert wins.z == -losses.z == pytest.approx(4.0 / math.sqrt(20.0 / 3.0))
    assert wins.p_value == losses.p_value
    assert (wins.n_w, wins.n_l, wins.n_tie, wins.p_w, wins.r_w) == (4, 0, 0, 1.0, math.inf)
    assert (losses.n_w, losses.n_l, losses.n_tie, losses.p_w, losses.r_w) == (0, 4, 0, 0.0, 0.0)
    assert (wins.ci_low, wins.ci_high) == (losses.ci_low, losses.ci_high) == (0.0, math.inf)


def test_fs_all_identical_degenerate():
    cohort = make_cohort([0, 1] * 3, **surv([1.0] * 6, [2.0] * 6))
    with pytest.raises(DegenerateResultError):
        fs_unmatched_test(cohort, SurvivalRule())


def test_fs_sign_test_structure_one_pair_per_stratum():
    # one patient per arm per stratum, no ties: T ranges over {-K..K} parity-bound
    rng = np.random.default_rng(33)
    for k_strata in (1, 2, 3):
        values = set()
        for _ in range(80):
            # stratum k: a treatment then a control row, each drawing death then hosp
            k = np.repeat(np.arange(k_strata), 2)
            times = rng.exponential(1, (2 * k_strata, 2)) + 1e-9
            cohort = make_cohort([1, 0] * k_strata, k // 2, k % 2, **surv(*times.T))
            res = fs_unmatched_test(cohort, SurvivalRule(), stratified=True)
            t = res.n_w - res.n_l
            assert abs(t) <= k_strata
            values.add(t)
        assert values <= set(range(-k_strata, k_strata + 1))


def test_fs_dropped_strata_counted():
    # the third row's stratum 1 lacks controls
    cohort = make_cohort([1, 0, 1], 0, [0, 0, 1], **surv([4.0, 2.0, 3.0], [10.0] * 3))
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
    # the fields that the trial records and the tests read
    assert list(WrResult._fields) == [
        "n_w", "n_l", "n_tie", "p_w", "r_w", "z",
        "p_value", "ci_low", "ci_high", "dropped_strata",
    ]


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
