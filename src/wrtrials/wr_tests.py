"""Winning rules and the three win-ratio test procedures.

Three rules cover the outcome families:

* binary, two prioritized components: death beats hospitalization;
* survival, two prioritized components: the pair is decided on death times
  whenever death is the first event for at least one member, otherwise on
  hospitalization times;
* continuous, three equally important components: counts of successful
  improvements are compared.

Each rule offers a scalar ``compare`` for single pairs, a broadcasting
``pair_scores`` (+1 win, -1 loss, 0 tie for the left member of each pair),
and ``u_win_loss``, which gives the within-stratum U-scores and the
cross-arm win and loss counts as rank counts.  Every rule is a total
preorder (binary, continuous) or a two-branch preorder (survival), so these
sums are sorted searches, as in Knight's O(n log n) Kendall tau (Knight 1966,
JASA 61:436): O(n log n) time and O(n) memory per stratum, giving exactly
the integers that summing ``pair_scores`` over every pair would.
``matched_wr_test`` scores its pairs with ``pair_scores``;
``fs_unmatched_test`` calls ``u_win_loss`` once per stratum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np
from scipy.stats import norm

from .core import (
    Arm,
    BinaryOutcome,
    ContinuousOutcome,
    DegenerateResultError,
    MatchedPair,
    PatientRecord,
    SurvivalOutcome,
    WinStatus,
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


def _status_from_sign(s: int) -> WinStatus:
    return WinStatus.WIN if s > 0 else WinStatus.LOSS if s < 0 else WinStatus.TIE


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


class BinaryRule:
    """Prioritized comparison of (death, hospitalization) indicators.

    Absence of death beats death; on equal death status, absence of
    hospitalization beats hospitalization; otherwise a tie.
    """

    def compare(self, t: BinaryOutcome, c: BinaryOutcome) -> WinStatus:
        if t.y_death != c.y_death:
            return WinStatus.WIN if t.y_death < c.y_death else WinStatus.LOSS
        if t.x_hosp != c.x_hosp:
            return WinStatus.WIN if t.x_hosp < c.x_hosp else WinStatus.LOSS
        return WinStatus.TIE

    def columns(self, outcomes: list[BinaryOutcome]) -> tuple[np.ndarray, ...]:
        y = np.array([o.y_death for o in outcomes])
        x = np.array([o.x_hosp for o in outcomes])
        return y, x

    def pair_scores(self, left, right) -> np.ndarray:
        (y_i, x_i), (y_j, x_j) = left, right
        death = np.sign(y_j - y_i)
        hosp = np.sign(x_j - x_i)
        return np.where(death != 0, death, hosp).astype(np.int64)

    def u_win_loss(self, cols, is_t: np.ndarray) -> tuple[np.ndarray, int, int]:
        y, x = cols
        # death outweighs hospitalization; fewer events is better
        return _preorder_u_win_loss(-(2 * y + x), is_t)


class SurvivalRule:
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

    def compare(self, t: SurvivalOutcome, c: SurvivalOutcome) -> WinStatus:
        return _status_from_sign(int(self.pair_scores(self.columns([t]), self.columns([c]))[0]))

    def columns(self, outcomes: list[SurvivalOutcome]) -> tuple[np.ndarray, ...]:
        d = np.array([o.e_death for o in outcomes], dtype=float)
        h = np.array([o.e_hosp for o in outcomes], dtype=float)
        if np.any(d <= 0) or np.any(h <= 0):
            raise ValueError("survival times must be strictly positive")
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


def improvement_indicators(
    o: ContinuousOutcome, c_t: float
) -> tuple[int, int, int, int]:
    """Per-component improvement indicators and their any-component union.

    Component j improved when y_j / y_base < c_t (strict).
    """
    if not o.y_base > 0:
        raise ValueError("y_base must be strictly positive")
    flags = tuple(int(yj / o.y_base < c_t) for yj in o.y)
    return flags + (int(sum(flags) >= 1),)


class ContinuousRule:
    """Comparison of improvement counts for three equally important components."""

    def __init__(self, c_t: float):
        self.c_t = c_t

    def compare(self, t: ContinuousOutcome, c: ContinuousOutcome) -> WinStatus:
        n_t = sum(improvement_indicators(t, self.c_t)[:3])
        n_c = sum(improvement_indicators(c, self.c_t)[:3])
        return _status_from_sign(n_t - n_c)

    def columns(self, outcomes: list[ContinuousOutcome]) -> tuple[np.ndarray, ...]:
        base = np.array([o.y_base for o in outcomes], dtype=float)
        if np.any(base <= 0):
            raise ValueError("y_base must be strictly positive")
        y = np.array([o.y for o in outcomes], dtype=float)
        counts = (y / base[:, None] < self.c_t).sum(axis=1)
        return (counts,)

    def pair_scores(self, left, right) -> np.ndarray:
        (n_i,), (n_j,) = left, right
        return np.sign(n_i - n_j).astype(np.int64)

    def u_win_loss(self, cols, is_t: np.ndarray) -> tuple[np.ndarray, int, int]:
        (counts,) = cols
        return _preorder_u_win_loss(counts, is_t)


def win_binary(t: BinaryOutcome, c: BinaryOutcome) -> WinStatus:
    return BinaryRule().compare(t, c)


def win_survival(t: SurvivalOutcome, c: SurvivalOutcome, priority: str = "death") -> WinStatus:
    return SurvivalRule(priority).compare(t, c)


def win_continuous(t: ContinuousOutcome, c: ContinuousOutcome, c_t: float) -> WinStatus:
    return ContinuousRule(c_t).compare(t, c)


# ---------------------------------------------------------------------------
# test procedures


def _two_sided_p(z: float) -> float:
    return float(2.0 * norm.sf(abs(z)))


def _odds(p: float) -> float:
    if p <= 0:
        return 0.0
    if p >= 1:
        return math.inf
    return p / (1.0 - p)


def matched_wr_test(cohort: list[PatientRecord], pairs: list[MatchedPair], rule) -> WrResult:
    """Win-ratio test on matched pairs via the standardized-normal statistic.

    With n informative (non-tie) pairs and win proportion p_w, the statistic
    is z = (p_w - 0.5) / sqrt(p_w (1 - p_w) / n); the 95% CI for the win
    ratio transforms the binomial CI of p_w through p / (1 - p).
    """
    if not pairs:
        raise DegenerateResultError("matched test needs at least one pair")
    by_id = {rec.id: rec for rec in cohort}
    t_out = [by_id[p.treatment_id].outcome for p in pairs]
    c_out = [by_id[p.control_id].outcome for p in pairs]
    left = rule.columns(t_out)
    right = rule.columns(c_out)
    scores = rule.pair_scores(left, right)
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
    cohort: list[PatientRecord],
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
    groups: dict[int, list[PatientRecord]] = {}
    for rec in cohort:
        groups.setdefault(rec.stratum if stratified else 0, []).append(rec)

    t_stat = 0.0
    v_stat = 0.0
    n_w = n_l = n_tie = 0
    dropped = 0
    u_scores: dict[int, np.ndarray] = {}
    sizes: dict[int, int] = {}
    m_counts: dict[int, int] = {}
    for key in sorted(groups):
        recs = groups[key]
        n_k = len(recs)
        is_t = np.array([rec.arm == Arm.TREATMENT for rec in recs])
        m_k = int(is_t.sum())
        if n_k < 2 or m_k == 0 or m_k == n_k:
            dropped += 1
            continue
        cols = rule.columns([rec.outcome for rec in recs])
        scores, w, l = rule.u_win_loss(cols, is_t)
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
