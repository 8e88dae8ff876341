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
loss, 0 tie for the left member of each pair), and gives the U-scores
against each row's own stratum and the within-stratum cross-arm ties
(``u_ties``).  A single pair is scored by passing 0-d columns to
``pair_scores``; a rule has no per-patient form.  ``u_ties`` gives exactly
the integers that summing ``pair_scores`` over every within-stratum pair
would, in O(n) memory, in one of two ways:

* the binary and continuous rules rank every row on one integer level in
  0..3, so, as for the Mann-Whitney statistic on an ordinal outcome
  (Agresti 2010, *Analysis of Ordinal Categorical Data*, ch. 2), the
  U-scores and ties are read off one stratum x level count table: O(n +
  strata * levels) time, no sort;
* the survival rule is a two-branch preorder on continuous times, so, as in
  Knight's O(n log n) Kendall tau (Knight 1966, JASA 61:436), one sort of
  all rows by (stratum, key) per sort coordinate gives each row's stratum
  rows below and above it: O(n log n) time.

``matched_wr_test`` scores its pairs with ``pair_scores``;
``fs_unmatched_test`` hands ``u_ties`` the cohort once, with every row's
stratum or, unstratified, with no labels, and derives the cross-arm wins and
losses from the U-scores and the ties.  The survival rule starts its ranking
from the argsorts of its two time columns that the cohort keeps
(``Cohort.time_orders``), so the stratified and unstratified tests sort each
column once between them.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .core import Z_95, Cohort, DegenerateResultError, _two_sided_p, tie_groups


class WrResult(NamedTuple):
    """Counts, win ratio, and normal-theory inference for one procedure."""

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


# ---------------------------------------------------------------------------
# winning rules


class _Ranked:
    """Rows sorted by (stratum, key), with each run's rows of its stratum below and above it.

    The survival rule's ranking; the key rules count instead.

    A run is a set of rows of equal (stratum, key); every row of a run has
    the same rows of its stratum strictly below it and strictly above it.
    ``order`` is an argsort of ``key``.  Without ``groups`` every
    row is in one stratum, the whole sorted range; with them a stable sort
    by the label, a linear-time radix sort for 8-bit labels, lays the rows
    out in stratum blocks that keep the key order.  When every run holds
    one row (continuous times without ties), no pair ties within a run and
    a per-run array is already one value per row, so ``cross_ties`` and
    ``rows`` skip their per-run counts and repeats.
    """

    def __init__(self, key: np.ndarray, order: np.ndarray, groups: np.ndarray | None = None):
        if groups is None:
            self.order, self.start, self.stop = tie_groups(key, order)
            self.tie_free = len(self.start) == len(self.order)
            self.block = None
            return
        order = order[groups[order].argsort(kind="stable")]
        size = np.bincount(groups)
        block_stop = size.cumsum()
        block_start = block_stop - size
        self.order, self.start, self.stop = tie_groups(key, order, block_start[size > 0])
        self.tie_free = len(self.start) == len(self.order)
        # each run's stratum, and the sorted positions its stratum's block starts and stops at
        g = np.arange(len(size)).repeat(size)
        self.block = g if self.tie_free else g[self.start]
        self.block_start, self.block_stop = block_start, block_stop

    def sign_sums(self, mask: np.ndarray | None = None) -> np.ndarray:
        """Per run: the rows of its stratum (those in ``mask``) below it less those above it.

        With c[i] the rows (in ``mask``) before sorted position i, a run has
        c[start] - c[lo] rows of its stratum below it and c[hi] - c[stop]
        above it, where its stratum's block spans the positions lo..hi.
        """
        if mask is None:
            c = np.arange(len(self.order) + 1)
            around = self.start + self.stop
        else:
            c = np.zeros(len(mask) + 1, dtype=np.int64)
            mask[self.order].cumsum(out=c[1:])
            # one row per run: its run starts and stops at its own sorted position
            around = c[:-1] + c[1:] if self.tie_free else c[self.start] + c[self.stop]
        if self.block is None:
            return around - c[-1]
        return around - (c[self.block_start] + c[self.block_stop])[self.block]

    def count(self, mask: np.ndarray) -> np.ndarray:
        """Per run: its rows in ``mask``."""
        return np.add.reduceat(mask[self.order], self.start)

    def rows(self, per_run: np.ndarray) -> np.ndarray:
        """A per-run array spread over the rows, in input order."""
        out = np.empty(len(self.order), dtype=per_run.dtype)
        out[self.order] = per_run if self.tie_free else per_run.repeat(self.stop - self.start)
        return out

    def cross_ties(self, is_t: np.ndarray, is_c: np.ndarray | None = None) -> int:
        """Pairs of a row in ``is_t`` and a row in ``is_c`` (default: not in ``is_t``) within a run."""
        if self.tie_free:
            return 0
        t = self.count(is_t)
        c = self.stop - self.start - t if is_c is None else self.count(is_c)
        return int(t @ c)


class _KeyRule:
    """A rule that ranks every patient on one small integer level, larger being better.

    ``columns`` is the single key ``(k,)`` with ``0 <= k < L``; a pair scores
    sign(k_i - k_j).
    """

    L = 4

    def pair_scores(self, left, right) -> np.ndarray:
        (k_i,), (k_j,) = left, right
        return np.sign(k_i - k_j).astype(np.int64)

    def u_ties(self, cohort: Cohort, is_t: np.ndarray,
               groups: np.ndarray | None = None) -> tuple[np.ndarray, int]:
        # one (stratum, level) count table: a row's U is its stratum's rows
        # below its level less those above it, 2 * at_most - counts - n_g
        # (cells in intp, so no 8-bit label overflows); without labels one stratum
        (key,) = self.columns(cohort)
        cell = key if groups is None else groups * np.intp(self.L) + key
        n_strata = 1 if groups is None else int(groups.max()) + 1
        counts = np.bincount(cell, minlength=self.L * n_strata).reshape(-1, self.L)
        at_most = counts.cumsum(axis=1)
        u = 2 * at_most - counts - at_most[:, -1:]
        treated = np.bincount(cell[is_t], minlength=counts.size)
        return u.ravel()[cell], int(treated @ (counts.ravel() - treated))


class BinaryRule(_KeyRule):
    """Prioritized comparison of (death, hospitalization) indicators.

    Absence of death beats death; on equal death status, absence of
    hospitalization beats hospitalization; otherwise a tie.  That is the
    level 3 - (2 * y_death + x_hosp): death outweighs hospitalization, and
    fewer events is better.
    """

    def columns(self, cohort: Cohort) -> tuple[np.ndarray, ...]:
        return ((3 - (2 * cohort.y_death + cohort.x_hosp)).astype(np.intp),)


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
        self._names = ("e_death", "e_hosp") if priority == "death" else ("e_hosp", "e_death")

    def columns(self, cohort: Cohort) -> tuple[np.ndarray, ...]:
        return tuple(getattr(cohort, name) for name in self._names)

    def pair_scores(self, left, right) -> np.ndarray:
        (p_i, s_i), (p_j, s_j) = left, right
        primary_first = (p_i < s_i) | (p_j < s_j)
        return np.where(primary_first, np.sign(p_i - p_j), np.sign(s_i - s_j)).astype(np.int64)

    def u_ties(self, cohort: Cohort, is_t: np.ndarray,
               groups: np.ndarray | None = None) -> tuple[np.ndarray, int]:
        # A = {primary first}: a pair with a member in A is decided on p,
        # any other pair on s.  So a row in A is ranked on p against its
        # whole stratum, and a row outside A on p against the rows in A and
        # on s against the other rows outside A.
        p, s = self.columns(cohort)
        p_order, s_order = (cohort.time_orders[name] for name in self._names)
        a = p < s
        b = ~a
        on_p, on_s = _Ranked(p, p_order, groups), _Ranked(s, s_order, groups)
        u = np.where(a, on_p.rows(on_p.sign_sums()),
                     on_p.rows(on_p.sign_sums(a)) + on_s.rows(on_s.sign_sums(b)))
        # a cross-arm pair ties on p within a run of on_p unless neither
        # member is in A, and on s within a run of on_s if neither is
        t_b, c_b = is_t & b, ~is_t & b
        n_tie = on_p.cross_ties(is_t) - on_p.cross_ties(t_b, c_b) + on_s.cross_ties(t_b, c_b)
        return u, n_tie


def improvement_indicators(cohort: Cohort, c_t: float) -> np.ndarray:
    """A cohort's per-component improvement indicators, shape (n, 3).

    Component j improved when y_j / y_base < c_t (strict).
    """
    return cohort.y / cohort.y_base[:, None] < c_t


class ContinuousRule(_KeyRule):
    """Comparison of improvement counts for three equally important components."""

    def __init__(self, c_t: float):
        self.c_t = c_t

    def columns(self, cohort: Cohort) -> tuple[np.ndarray, ...]:
        improved = improvement_indicators(cohort, self.c_t)
        k = improved[:, 0].astype(np.intp)
        k += improved[:, 1]
        k += improved[:, 2]
        return (k,)


# ---------------------------------------------------------------------------
# test procedures


def _odds(p: float) -> float:
    if p >= 1:
        return math.inf
    return p / (1.0 - p)


def matched_wr_test(cohort: Cohort, pairs: np.ndarray, rule) -> WrResult:
    """Win-ratio test on matched pairs via the standardized-normal statistic.

    With n informative (non-tie) pairs and win proportion p_w, the statistic
    is z = (p_w - 0.5) / sqrt(p_w (1 - p_w) / n); the 95% CI for the win
    ratio transforms the binomial CI of p_w through p / (1 - p).  ``pairs``
    is an (m, 2) array of row ids, treatment then control.

    Complete separation has no finite statistic and returns sentinels: when
    every informative pair is a win, z = +inf, p = 0 and the CI is
    (inf, inf); when every one is a loss, z = -inf, p = 0 and the CI is
    (0, 0).  With no informative pair it raises DegenerateResultError.
    """
    if not len(pairs):
        raise DegenerateResultError("matched test needs at least one pair")
    cols = rule.columns(cohort)
    scores = rule.pair_scores(tuple(c[pairs[:, 0]] for c in cols),
                              tuple(c[pairs[:, 1]] for c in cols))
    n_w = int(np.count_nonzero(scores > 0))
    n_l = int(np.count_nonzero(scores < 0))
    n_tie = int(np.count_nonzero(scores == 0))
    n = n_w + n_l
    if n == 0:
        raise DegenerateResultError("degenerate: no informative pairs (all ties)")

    p_w = n_w / n
    r_w = _odds(p_w)
    if n_w == 0 or n_l == 0:
        return WrResult(n_w, n_l, n_tie, p_w, r_w, math.copysign(math.inf, p_w - 0.5), 0.0,
                        ci_low=r_w, ci_high=r_w)
    half = Z_95 * math.sqrt(p_w * (1.0 - p_w) / n)
    p_lo, p_hi = p_w - half, p_w + half
    z = (p_w - 0.5) / math.sqrt(p_w * (1.0 - p_w) / n)
    return WrResult(
        n_w, n_l, n_tie, p_w, r_w, z, _two_sided_p(z),
        ci_low=_odds(max(p_lo, 0.0)), ci_high=_odds(min(p_hi, 1.0)),
    )


def fs_unmatched_test(
    cohort: Cohort,
    rule,
    stratified: bool = True,
) -> WrResult:
    """Stratified permutation-variance test on all within-stratum pairs.

    Every pair of patients in a stratum, irrespective of arm, is scored
    u_ij in {+1, -1, 0}; U_i sums patient i's scores.  The statistic is
    z = T / sqrt(V) with T the sum of U_i over treatment patients and
    V = sum_k m_k (n_k - m_k) / (n_k (n_k - 1)) * sum_{i in k} U_i^2.

    Win and loss counts (and hence the win ratio) use only the
    treatment-versus-control pairs; its CI comes from s = ln(R_w) / z.  With
    no decided cross-arm pair r_w, p_w and the CI are NaN; when every decided
    pair goes one way the CI is (0, inf); with as many wins as losses it is NaN.

    Strata with fewer than two patients or with an empty arm are dropped
    and counted in ``dropped_strata``.
    """
    is_t = cohort.arm == 1
    # 8-bit labels, which sort in linear time; unstratified, no labels at all
    groups = cohort.stratum.astype(np.uint8) if stratified else None
    u, n_tie = rule.u_ties(cohort, is_t, groups)
    if stratified:
        # (size, treated, sum of U^2) per stratum < 8, sizes and treated from
        # one count of the label 2 * stratum + arm; the squares are exact
        # integers below 2**53, so summed in any order they are the same floats
        by_arm = np.bincount(2 * groups + is_t, minlength=16).reshape(8, 2)
        strata = zip((by_arm[:, 0] + by_arm[:, 1]).tolist(), by_arm[:, 1].tolist(),
                     np.bincount(groups, weights=u * u, minlength=8).tolist())
    else:  # one stratum: its totals, twice as fast as a bincount over a constant label
        strata = [(len(cohort), int(np.count_nonzero(is_t)), float((u * u).sum()))]
    # Every score is antisymmetric, so within a stratum the U-scores sum to
    # zero (a one-arm stratum adds nothing to T) and the treatment-treatment
    # scores cancel: T is wins less losses over the cross-arm pairs, and every
    # cross-arm pair is a win, a loss or a tie.
    diff = int(u @ is_t)
    decided = -n_tie
    v_stat = 0.0
    dropped = 0
    for n_k, m_k, ss_k in strata:
        decided += m_k * (n_k - m_k)
        if n_k == 0:
            continue
        if n_k < 2 or m_k == 0 or m_k == n_k:
            dropped += 1
            continue
        v_stat += m_k * (n_k - m_k) / (n_k * (n_k - 1)) * ss_k
    n_w, n_l = (decided + diff) // 2, (decided - diff) // 2

    if v_stat <= 0:
        raise DegenerateResultError("degenerate: no discordant pairs (V = 0)")
    z = diff / math.sqrt(v_stat)

    p_w = n_w / (n_w + n_l) if n_w + n_l else math.nan
    r_w = n_w / n_l if n_l else math.inf if n_w else math.nan
    if n_w and n_l and diff:
        # n_w - n_l = diff and z = diff / sqrt(V), so ln(r_w) and z share a sign: s > 0, lo < hi
        s = math.log(r_w) / z
        ci = math.exp(math.log(r_w) - Z_95 * s), math.exp(math.log(r_w) + Z_95 * s)
    else:  # all one way: (0, inf); as many wins as losses, 0 = 0 too: z = 0 gives no width
        ci = (0.0, math.inf) if diff else (math.nan, math.nan)
    return WrResult(n_w, n_l, n_tie, p_w, r_w, z, _two_sided_p(z), *ci, dropped)
