"""Domain types, the array-native cohort, and pair formation shared by every analysis.

A cohort is one :class:`Cohort`: parallel arrays with one row per patient,
whose row index is the patient id.  It holds the design columns (arm,
covariates, stage) and the outcome columns of one family, validated once when
the cohort is built, and derives the stratum of every row.  There is no
per-patient object: analyses and CSV export read the columns, and a cohort is
built by hand from columns too.  A cohort is never modified after it is
built, so it can be shared freely between concurrently running replications
as long as each replication owns its own random generator, and the sorts of
its survival times are kept on the cohort for every analysis that ranks them.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, NamedTuple

import numpy as np


class ConfigError(ValueError):
    """Invalid configuration (bad rates, mixture not summing to one, ...)."""


class DegenerateResultError(RuntimeError):
    """An analysis could not produce a test statistic (all ties, V=0, ...)."""


# Phi^-1(0.975), the two-sided 95% normal quantile (scipy's norm.ppf(0.975)).
# Every confidence interval reads it: cox_fit's hazard ratio and the win ratio
# of matched_wr_test and fs_unmatched_test.  power.z_alpha(0.05), which the
# sample sizes read, is two ulps lower; tests/test_power.py pins both.
Z_95 = 1.959963984540054
_SQRTH = 7.07106781186547524401e-1  # sqrt(1/2)


def _two_sided_p(z: float) -> float:
    """Two-sided normal p-value, 2 * P(Z > |z|) = erfc(|z| / sqrt(2)).

    ``tests/test_core.py`` holds it within 1e-12 relative of ``scipy.stats.norm.sf``
    wherever that is at least 1e-300; a summary reads it only through p < alpha.
    """
    return math.erfc(abs(float(z)) * _SQRTH)


def _bgrat_d(n_terms: int) -> tuple[float, ...]:
    """d_1 .. d_n of the BGRAT expansion of I_x(a, b) at b = 1/2 (TOMS 708's recurrence)."""
    b = 0.5
    c, d = [], []
    for n in range(1, n_terms + 1):
        c.append((c[-1] if c else 1.0) / (2 * n * (2 * n + 1)))
        s = sum((i * b - n) * c[i - 1] * d[n - i - 1] for i in range(1, n))
        d.append((b - 1.0) * c[-1] + s / n)
    return tuple(d)


_BGRAT_D = _bgrat_d(30)
_BGRAT_MIN_A = 15.0  # BGRAT's expansion is accurate from a = 15 up
_SQRT_PI = math.sqrt(math.pi)


def _bgrat_g(a: float) -> float:
    """Gamma(a + 1/2) / (Gamma(a) sqrt(a - 1/4)) for a >= 15, from Stirling's series.

    ln Gamma(a + 1/2) - ln Gamma(a) = ln(a) / 2 - 1/(8a) + 1/(192a^3)
    - 1/(640a^5) + 17/(14336a^7) - 31/(18432a^9) + 691/(180224a^11)
    + O(a^-13), and the first omitted term is below 1e-17 at a = 15, so the
    ratio is good to an ulp or two for every a up to 2**52.  A difference of
    two ``math.lgamma`` values is not: it is 2e-11 off at a = 5e4.
    """
    r = 1.0 / a
    r2 = r * r
    s = r * (0.125 + r2 * (-1 / 192 + r2 * (1 / 640 + r2 * (-17 / 14336 + r2 * (31 / 18432
                                                                              - r2 * (691 / 180224))))))
    return math.exp(-0.5 * math.log1p(-0.25 / a) - s)


def _f1_sf(f: float, nu: int) -> float:
    """P(F > f) for F ~ F(1, nu), nu >= 2: the two-sided Student-t tail P(|T_nu| > sqrt(f)).

    That is I_x(a, 1/2), the regularized incomplete beta function at a = nu / 2
    and x = nu / (nu + f), evaluated as DiDonato and Morris's TOMS 708 does
    for b = 1/2 (ACM TOMS 18:360, 1992).  Where f >= nu, so x <= 1/2, it sums
    the power series in x (their BPSER).  Elsewhere it takes the asymptotic
    expansion for large a (their BGRAT): erfc(sqrt(z)), z = -(a - 1/4) ln x,
    plus a correction in powers of 1/a, after the series' first terms have
    carried an a below 15 up to 15 (their BUP).  No step subtracts nearly
    equal numbers, so against ``scipy.special.fdtrc`` it is within 3e-13
    relative wherever that is at least 1e-300, on every nu tried from 2 to
    2**53 - 2 (``tests/test_classic_tests.py`` holds it to 1e-11).  It is 1
    for f <= 0, 0 at f = inf, and NaN at NaN.
    """
    if f <= 0.0:
        return 1.0
    if f == math.inf:
        return 0.0
    a = 0.5 * nu
    lnx = -math.log1p(f / nu)
    p = 0.0
    if a < _BGRAT_MIN_A or f >= nu:
        # series term k is x^(a+k) sqrt(1 - x) Gamma(a + k + 1/2) / (sqrt(pi) Gamma(a + k + 1))
        x = nu / (nu + f)
        if a < _BGRAT_MIN_A:
            gamma_ratio = math.gamma(a + 0.5) / math.gamma(a + 1.0)
        else:
            gamma_ratio = _bgrat_g(a) * math.sqrt(a - 0.25) / a
        term = math.exp(a * lnx) * math.sqrt(f / (nu + f)) * gamma_ratio / _SQRT_PI
        while a < _BGRAT_MIN_A or (f >= nu and term > 1e-17 * p):
            p += term
            term *= x * (a + 0.5) / (a + 1.0)
            a += 1.0
        if f >= nu:
            return p
    # BGRAT: I_x(a, 1/2) = G(a) sum_n d_n K_n, K_0 = erfc(sqrt(z)), d_0 = 1
    t = a - 0.25
    z = -t * lnx
    k = total = math.erfc(math.sqrt(z))
    r = math.exp(-z) * math.sqrt(z / math.pi)  # exp(-z) z^(1/2) / Gamma(1/2), times (ln(x) / 2)^(2n)
    v = 0.25 / (t * t)
    t2 = 0.25 * lnx * lnx
    b2n = 0.5  # b + 2n
    for d in _BGRAT_D:
        k = (b2n * (b2n + 1.0) * k + (z + b2n + 1.0) * r) * v
        r *= t2
        b2n += 2.0
        total += d * k
        if abs(d * k) <= 1e-16 * total:
            break
    return min(p + _bgrat_g(a) * total, 1.0)


class Arm(enum.IntEnum):
    CONTROL = 0
    TREATMENT = 1


# the outcome columns of each family: survival, binary, continuous
_FAMILY_COLUMNS = (("e_death", "e_hosp"), ("y_death", "x_hosp"), ("y_base", "y"))
_OUTCOME_COLUMNS = sum(_FAMILY_COLUMNS, ())


class ArmStratum(NamedTuple):
    """One row's arm and stratum, as :meth:`Cohort.__iter__` yields them."""

    arm: int
    stratum: int


def _is_binary(col: np.ndarray) -> bool:
    return bool(((col == 0) | (col == 1)).all())


def _read_only(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.flags.writeable = False


@dataclass(frozen=True, eq=False)
class Cohort:
    """A trial's patients as parallel columns; row ``i`` is patient ``i``.

    ``arm``, ``x1``, ``x2`` and ``stage`` are 0/1 integer arrays.  Exactly
    one family's outcome columns are set: ``e_death``/``e_hosp`` (strictly
    positive times, stored as float64 so that differences of unsigned integer
    times cannot wrap), ``y_death``/``x_hosp`` (0/1 indicators), or ``y_base``
    (strictly positive, length n) with ``y`` (shape (n, 3)).  ``stratum`` is
    derived as 4 * stage + 2 * x1 + x2, so each stage is its own layer of
    covariate strata; the encoding is fixed, so a cohort written to CSV by
    one process is re-analyzed by another without renumbering.

    A survival cohort keeps its rankings, each built on first use and
    read-only: ``first_event`` (min(e_death, e_hosp)) and its
    ``first_event_ties``, which ``cox_fit`` and ``obrien_first_event`` share,
    and ``time_orders``, an argsort of each time column, which the stratified
    and unstratified FS tests share.  So a replicate sorts each of its three
    time columns once, whichever analyses it runs in whatever order.
    """

    arm: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    stage: np.ndarray
    e_death: np.ndarray | None = None
    e_hosp: np.ndarray | None = None
    y_death: np.ndarray | None = None
    x_hosp: np.ndarray | None = None
    y_base: np.ndarray | None = None
    y: np.ndarray | None = None
    stratum: np.ndarray = field(init=False)

    def __post_init__(self):
        present = tuple(name for name in _OUTCOME_COLUMNS if getattr(self, name) is not None)
        if present not in _FAMILY_COLUMNS:
            raise ValueError(f"a cohort needs the outcome columns of one family, got {present}")
        for name in ("arm", "x1", "x2", "stage") + present:
            dtype = float if name in ("e_death", "e_hosp") else None
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        n = len(self.arm)
        if n == 0:
            raise ValueError("a cohort needs at least one patient")
        for name in ("x1", "x2", "stage") + present:
            if len(getattr(self, name)) != n:
                raise ValueError(f"column {name} has {len(getattr(self, name))} rows, not {n}")
        for name in ("arm", "x1", "x2", "stage"):
            if not _is_binary(getattr(self, name)):
                raise ValueError(f"{name} must be 0/1")
        if self.e_death is not None and not ((self.e_death > 0).all() and (self.e_hosp > 0).all()):
            raise ValueError("survival times must be strictly positive")
        if self.y_death is not None and not (_is_binary(self.y_death) and _is_binary(self.x_hosp)):
            raise ValueError("binary outcome components must be 0/1")
        if self.y_base is not None:
            if not (self.y_base > 0).all():
                raise ValueError("y_base must be strictly positive")
            if self.y.shape != (n, 3):
                raise ValueError(f"y must have shape ({n}, 3), got {self.y.shape}")
        object.__setattr__(self, "stratum", 4 * self.stage + 2 * self.x1 + self.x2)

    def __len__(self) -> int:
        return len(self.arm)

    def __iter__(self) -> Iterator[ArmStratum]:
        """Each row's (arm, stratum), in id order.

        Only the benchmark tracer (``perfbench/spans.py``) reads the rows, to
        size the strata of an FS call; this goes once the tracer reads the
        columns instead (ROADMAP item 1).
        """
        return map(ArmStratum, self.arm.tolist(), self.stratum.tolist())

    @cached_property
    def first_event(self) -> np.ndarray:
        """Each row's time to its first event, min(e_death, e_hosp)."""
        if self.e_death is None:
            raise ValueError("the time to first event needs survival outcomes")
        t = np.minimum(self.e_death, self.e_hosp)
        _read_only(t)
        return t

    @cached_property
    def first_event_ties(self) -> tuple[np.ndarray, ...]:
        """``tie_groups(first_event)``."""
        ties = tie_groups(self.first_event)
        _read_only(*ties)
        return ties

    @cached_property
    def time_orders(self) -> dict[str, np.ndarray]:
        """An argsort of each time column, keyed "e_death" and "e_hosp"."""
        orders = {name: getattr(self, name).argsort() for name in ("e_death", "e_hosp")}
        _read_only(*orders.values())
        return orders


def tie_groups(key: np.ndarray, order: np.ndarray | None = None,
               breaks: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
    """The rows in sorted order, and the runs of equal ``key`` in that order.

    ``order`` lists the row ids in sorted order, by default ``key.argsort()``.
    A caller that sorts by a coarser label first (the FS test's strata) gives
    in ``breaks`` the sorted positions where each label's rows begin, so that
    no run crosses one.  Returns ``order`` and the sorted positions ``start``
    and ``stop`` that bound each run: run ``r`` is ``order[start[r]:stop[r]]``,
    its rows in no particular order, so the runs do not depend on how
    ``order`` ranks equal keys.
    """
    n = len(key)
    if order is None:
        order = key.argsort()
    k = key[order]
    new = np.empty(n, dtype=bool)
    new[:1] = True
    np.not_equal(k[1:], k[:-1], out=new[1:])
    if breaks is not None:
        new[breaks] = True
    start = new.nonzero()[0]
    stop = np.empty_like(start)
    stop[:-1] = start[1:]
    stop[-1:] = n
    return order, start, stop


class PairingResult(NamedTuple):
    """Matched pairs as an (m, 2) array of row ids: treatment, then control."""

    pairs: np.ndarray
    n_unpaired_treatment: int
    n_unpaired_control: int


def form_matched_pairs(cohort: Cohort, rng: np.random.Generator) -> PairingResult:
    """Form one-to-one treatment/control pairs within each stratum, uniformly at random.

    Within each stratum the two arms are shuffled and zipped; the surplus of
    the larger arm is left unpaired.  Deterministic given the generator
    state: strata are visited in increasing order, treatments shuffled
    before controls, each arm's rows in id order with the draws of
    ``rng.permutation`` of its size.

    Raises ``DegenerateResultError`` when no stratum can contribute a pair.
    """
    # one stable (radix) sort by the 4-bit label 2 * stratum + arm lays the
    # rows out in (stratum, arm) blocks, controls first, each in id order
    label = (2 * cohort.stratum + cohort.arm).astype(np.uint8)
    order = label.argsort(kind="stable")
    ends = np.bincount(label, minlength=16).cumsum().tolist()  # stratum < 8
    treatments, controls = [], []
    unpaired_t = unpaired_c = 0
    start = 0
    for s in range(8):
        mid, stop = ends[2 * s], ends[2 * s + 1]
        if start == stop:
            continue
        treated, control = order[mid:stop], order[start:mid]
        rng.shuffle(treated)
        rng.shuffle(control)
        m = min(len(treated), len(control))
        treatments.append(treated[:m])
        controls.append(control[:m])
        unpaired_t += len(treated) - m
        unpaired_c += len(control) - m
        start = stop

    # one concatenation, viewed as (m, 2): each column is contiguous
    pairs = np.concatenate(treatments + controls).reshape(2, -1).T
    if not len(pairs):
        raise DegenerateResultError("no pairs formable: an arm is empty in every stratum")
    return PairingResult(pairs, unpaired_t, unpaired_c)
