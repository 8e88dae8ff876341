"""Winning rules and the three win-ratio test procedures.

Three rules cover the outcome families:

* binary, two prioritized components: death beats hospitalization;
* survival, two prioritized components: the pair is decided on death times
  whenever death is the first event for at least one member, otherwise on
  hospitalization times;
* continuous, three equally important components: counts of successful
  improvements are compared.

Each rule reads its columns straight off a :class:`~wrtrials.core.Cohort`
(``columns``), scores pairs with a broadcasting ``pair_scores`` (+1 win, -1
loss, 0 tie for the left member of each pair), and gives the within-stratum
U-scores and the cross-arm win and loss counts as rank counts
(``u_win_loss``).  ``compare`` is the single-pair view of ``pair_scores``.
Every rule is a total preorder (binary, continuous) or a two-branch preorder
(survival), so the U-scores and counts are sorted searches, as in Knight's
O(n log n) Kendall tau (Knight 1966, JASA 61:436): O(n log n) time and O(n)
memory per stratum, giving exactly the integers that summing ``pair_scores``
over every pair would.  ``matched_wr_test`` scores its pairs with
``pair_scores``; ``fs_unmatched_test`` calls ``u_win_loss`` once per stratum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .core import (
    Arm, Cohort, DegenerateResultError, Outcome, WinStatus, _two_sided_p, stratum_groups,
)

Z_95 = 1.959963984540054

METHOD_MATCHED = "MatchedStratified"
METHOD_UNMATCHED_STRAT = "UnmatchedStratified"
METHOD_UNMATCHED_UNSTRAT = "UnmatchedUnstratified"


@dataclass(frozen=True)
class WrResult:
    """Counts, win ratio, and normal-theory inference for one procedure."""

    method: str
    n_w: int
    n_l: int
    n_tie: int
    p_w: float
    r_w: float
    z: float
    p_value: float
    ci_low: float
    ci_high: float
    dropped_strata: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class FsIntermediate:
    """Per-stratum building blocks of the unmatched permutation statistic."""

    u_scores: dict[int, np.ndarray]
    stratum_sizes: dict[int, int]
    treatment_counts: dict[int, int]
    t_stat: float
    v_stat: float


# ---------------------------------------------------------------------------
# winning rules


def _below_above(q: np.ndarray, ref: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each element of ``q``, how many elements of ``ref`` lie strictly below and above it."""
    ref = np.sort(ref)
    below = np.searchsorted(ref, q, side="left")
    above = len(ref) - np.searchsorted(ref, q, side="right")
    return below, above


def _sign_sums(q: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """sum_j sign(q_i - ref_j) for each element of ``q``."""
    below, above = _below_above(q, ref)
    return below - above


def _cross_win_loss(q: np.ndarray, ref: np.ndarray) -> tuple[int, int]:
    """Counts of pairs (i, j) with q_i > ref_j and with q_i < ref_j."""
    below, above = _below_above(q, ref)
    return int(below.sum()), int(above.sum())


def _preorder_u_win_loss(key: np.ndarray, is_t: np.ndarray) -> tuple[np.ndarray, int, int]:
    """``u_win_loss`` for a rule whose score is sign(key_i - key_j)."""
    return _sign_sums(key, key), *_cross_win_loss(key[is_t], key[~is_t])


class _WinningRule:
    """What every rule shares: ``compare``, the single-pair view of ``pair_scores``.

    A rule's ``columns`` reads the same attributes off a cohort (arrays) and
    off one outcome object (scalars, as 0-d arrays), so one definition
    scores both.
    """

    def compare(self, t: Outcome, c: Outcome) -> WinStatus:
        return WinStatus(int(self.pair_scores(self.columns(t), self.columns(c))))


class BinaryRule(_WinningRule):
    """Prioritized comparison of (death, hospitalization) indicators.

    Absence of death beats death; on equal death status, absence of
    hospitalization beats hospitalization; otherwise a tie.
    """

    def columns(self, src) -> tuple[np.ndarray, ...]:
        return np.asarray(src.y_death), np.asarray(src.x_hosp)

    def pair_scores(self, left, right) -> np.ndarray:
        (y_i, x_i), (y_j, x_j) = left, right
        death = np.sign(y_j - y_i)
        hosp = np.sign(x_j - x_i)
        return np.where(death != 0, death, hosp).astype(np.int64)

    def u_win_loss(self, cols, is_t: np.ndarray) -> tuple[np.ndarray, int, int]:
        y, x = cols
        # death outweighs hospitalization; fewer events is better
        return _preorder_u_win_loss(-(2 * y + x), is_t)


class SurvivalRule(_WinningRule):
    """Prioritized comparison of (death time, hospitalization time).

    The death branch is active when death is the first event for at least
    one member of the pair (its death time precedes its own hospitalization
    time); the later death then wins.  Otherwise the later hospitalization
    wins.  Exactly equal times at the deciding level give a tie.

    ``priority="hosp"`` swaps the roles of the two components, which models
    an analysis run with the wrong clinical prioritization.
    """

    def __init__(self, priority: str = "death"):
        if priority not in ("death", "hosp"):
            raise ValueError(f"priority must be 'death' or 'hosp', got {priority!r}")
        self.priority = priority

    def columns(self, src) -> tuple[np.ndarray, ...]:
        d = np.asarray(src.e_death, dtype=float)
        h = np.asarray(src.e_hosp, dtype=float)
        return (d, h) if self.priority == "death" else (h, d)

    def pair_scores(self, left, right) -> np.ndarray:
        (p_i, s_i), (p_j, s_j) = left, right
        primary_first = (p_i < s_i) | (p_j < s_j)
        return np.where(primary_first, np.sign(p_i - p_j), np.sign(s_i - s_j)).astype(np.int64)

    def u_win_loss(self, cols, is_t: np.ndarray) -> tuple[np.ndarray, int, int]:
        # A = {primary first}: a pair with a member in A is decided on p,
        # any other pair on s
        p, s = cols
        a = p < s
        u = _sign_sums(p, p)
        u[~a] = _sign_sums(p[~a], p[a]) + _sign_sums(s[~a], s[~a])
        # cross-arm pairs on p, less those with neither member in A, plus
        # those decided on s
        both_t, both_c = is_t & ~a, ~is_t & ~a
        w_all, l_all = _cross_win_loss(p[is_t], p[~is_t])
        w_p, l_p = _cross_win_loss(p[both_t], p[both_c])
        w_s, l_s = _cross_win_loss(s[both_t], s[both_c])
        return u, w_all - w_p + w_s, l_all - l_p + l_s


def improvement_indicators(src, c_t: float) -> np.ndarray:
    """Per-component improvement indicators, shape (..., 3), of a cohort or one outcome.

    Component j improved when y_j / y_base < c_t (strict).
    """
    return np.asarray(src.y, dtype=float) / np.asarray(src.y_base, dtype=float)[..., None] < c_t


class ContinuousRule(_WinningRule):
    """Comparison of improvement counts for three equally important components."""

    def __init__(self, c_t: float):
        self.c_t = c_t

    def columns(self, src) -> tuple[np.ndarray, ...]:
        return (improvement_indicators(src, self.c_t).sum(axis=-1),)

    def pair_scores(self, left, right) -> np.ndarray:
        (n_i,), (n_j,) = left, right
        return np.sign(n_i - n_j).astype(np.int64)

    def u_win_loss(self, cols, is_t: np.ndarray) -> tuple[np.ndarray, int, int]:
        (counts,) = cols
        return _preorder_u_win_loss(counts, is_t)


# ---------------------------------------------------------------------------
# test procedures


def _odds(p: float) -> float:
    if p <= 0:
        return 0.0
    if p >= 1:
        return math.inf
    return p / (1.0 - p)


def matched_wr_test(cohort: Cohort, pairs: np.ndarray, rule) -> WrResult:
    """Win-ratio test on matched pairs via the standardized-normal statistic.

    With n informative (non-tie) pairs and win proportion p_w, the statistic
    is z = (p_w - 0.5) / sqrt(p_w (1 - p_w) / n); the 95% CI for the win
    ratio transforms the binomial CI of p_w through p / (1 - p).  ``pairs``
    is an (m, 2) array of row ids, treatment then control.
    """
    if not len(pairs):
        raise DegenerateResultError("matched test needs at least one pair")
    cols = rule.columns(cohort)
    scores = rule.pair_scores(tuple(c[pairs[:, 0]] for c in cols),
                              tuple(c[pairs[:, 1]] for c in cols))
    n_w = int((scores > 0).sum())
    n_l = int((scores < 0).sum())
    n_tie = int((scores == 0).sum())
    n = n_w + n_l
    if n == 0:
        raise DegenerateResultError("degenerate: no informative pairs (all ties)")

    p_w = n_w / n
    r_w = _odds(p_w)
    if n_w == 0 or n_l == 0:
        z = math.inf if n_l == 0 else -math.inf
        return WrResult(METHOD_MATCHED, n_w, n_l, n_tie, p_w, r_w, z, 0.0,
                        ci_low=0.0 if n_w == 0 else math.inf,
                        ci_high=0.0 if n_w == 0 else math.inf)
    half = Z_95 * math.sqrt(p_w * (1.0 - p_w) / n)
    p_lo, p_hi = p_w - half, p_w + half
    z = (p_w - 0.5) / math.sqrt(p_w * (1.0 - p_w) / n)
    return WrResult(
        METHOD_MATCHED, n_w, n_l, n_tie, p_w, r_w, z, _two_sided_p(z),
        ci_low=_odds(max(p_lo, 0.0)), ci_high=_odds(min(p_hi, 1.0)),
    )


def fs_unmatched_test(
    cohort: Cohort,
    rule,
    stratified: bool = True,
) -> tuple[WrResult, FsIntermediate]:
    """Stratified permutation-variance test on all within-stratum pairs.

    Every pair of patients in a stratum, irrespective of arm, is scored
    u_ij in {+1, -1, 0}; U_i sums patient i's scores.  The statistic is
    z = T / sqrt(V) with T the sum of U_i over treatment patients and
    V = sum_k m_k (n_k - m_k) / (n_k (n_k - 1)) * sum_{i in k} U_i^2.

    Win and loss counts (and hence the win ratio) use only the
    treatment-versus-control pairs; its CI comes from s = ln(R_w) / z.

    Strata with fewer than two patients or with an empty arm are dropped
    and counted in ``dropped_strata``.
    """
    cols = rule.columns(cohort)
    t_stat = 0.0
    v_stat = 0.0
    n_w = n_l = n_tie = 0
    dropped = 0
    u_scores: dict[int, np.ndarray] = {}
    sizes: dict[int, int] = {}
    m_counts: dict[int, int] = {}
    for key, rows in stratum_groups(cohort, stratified):
        n_k = len(rows)
        is_t = cohort.arm[rows] == Arm.TREATMENT
        m_k = int(is_t.sum())
        if n_k < 2 or m_k == 0 or m_k == n_k:
            dropped += 1
            continue
        scores, w, l = rule.u_win_loss(tuple(c[rows] for c in cols), is_t)
        u_scores[key] = scores
        sizes[key] = n_k
        m_counts[key] = m_k
        t_stat += float(scores[is_t].sum())
        v_stat += m_k * (n_k - m_k) / (n_k * (n_k - 1)) * float((scores.astype(float) ** 2).sum())
        n_w += w
        n_l += l
        n_tie += m_k * (n_k - m_k) - w - l

    method = METHOD_UNMATCHED_STRAT if stratified else METHOD_UNMATCHED_UNSTRAT
    inter = FsIntermediate(u_scores, sizes, m_counts, t_stat, v_stat)
    if v_stat <= 0:
        raise DegenerateResultError("degenerate: no discordant pairs (V = 0)")
    z = t_stat / math.sqrt(v_stat)

    if n_l == 0:
        return (
            WrResult(method, n_w, n_l, n_tie, 1.0 if n_w else math.nan, math.inf,
                     z, _two_sided_p(z), math.nan, math.nan, dropped),
            inter,
        )
    r_w = n_w / n_l
    p_w = n_w / (n_w + n_l)
    if n_w == 0 or z == 0:
        ci_low, ci_high = (0.0, math.inf) if n_w == 0 else (math.nan, math.nan)
        return (
            WrResult(method, n_w, n_l, n_tie, p_w, r_w, z, _two_sided_p(z),
                     ci_low, ci_high, dropped),
            inter,
        )
    s = math.log(r_w) / z
    lo = math.exp(math.log(r_w) - Z_95 * s)
    hi = math.exp(math.log(r_w) + Z_95 * s)
    if lo > hi:
        lo, hi = hi, lo
    return (
        WrResult(method, n_w, n_l, n_tie, p_w, r_w, z, _two_sided_p(z), lo, hi, dropped),
        inter,
    )
