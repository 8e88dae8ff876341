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


Z_95 = 1.959963984540054  # Phi^-1(0.975), the two-sided 95% normal quantile


# Cephes ndtr, erf and erfc (S. L. Moshier, Methods and Programs for
# Mathematical Functions, 1989), the code behind scipy.special.ndtr, on x >= 0.
# Coefficients run from the highest power down; Q, S and U carry the leading 1
# that Cephes' p1evl leaves implicit, since 0 * x + 1 and 1 * x + c are exact.
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_MAXLOG = 7.09782712893383996843e2  # ln(2**1024): exp(-x * x) underflows past it
_SQRTH = 7.07106781186547524401e-1  # sqrt(1/2)


def _polevl(x: float, coefs: tuple[float, ...]) -> float:
    """The polynomial with ``coefs``, highest power first, at x by Horner's rule."""
    y = 0.0
    for c in coefs:
        y = y * x + c
    return y


def _erf(x: float) -> float:
    """Cephes erf(x) for 0 <= x < 1."""
    z = x * x
    return x * _polevl(z, _ERF_T) / _polevl(z, _ERF_U)


def _erfc(x: float) -> float:
    """Cephes erfc(x) for x >= 0 (or NaN)."""
    if x < 1.0:
        return 1.0 - _erf(x)
    z = -x * x
    if z < -_MAXLOG:
        return 0.0
    p, q = (_ERFC_P, _ERFC_Q) if x < 8.0 else (_ERFC_R, _ERFC_S)
    return math.exp(z) * _polevl(x, p) / _polevl(x, q)


def _two_sided_p(z: float) -> float:
    """Two-sided normal p-value, 2 * P(Z > |z|), as 2 * ndtr(-|z|).

    ``ndtr`` is a port of Cephes', the code of ``scipy.special.ndtr`` (and so
    of ``scipy.stats.norm.sf``), in its branch order: erf below x = |z| / sqrt(2)
    = sqrt(1/2), 1 - erf below 1, one rational approximation of erfc below 8
    and another above, and 0 once exp(-x * x) underflows (|z| near 37.68).  On
    floats it evaluates the same operations in the same order, so it returns
    scipy's values bit for bit without importing scipy;
    ``tests/test_core.py::test_two_sided_p_equals_norm_sf_bit_for_bit`` holds
    it to that on every branch edge and a dense grid.
    """
    x = abs(float(z)) * _SQRTH
    # ndtr(-|z|) is 0.5 + 0.5 * erf(-x) = 0.5 - 0.5 * erf(x) below sqrt(1/2), else 0.5 * erfc(x)
    return 2.0 * (0.5 - 0.5 * _erf(x) if x < _SQRTH else 0.5 * _erfc(x))


# Cephes ndtri, the code behind scipy.special.ndtri (and scipy.stats.norm.ppf):
# a rational approximation in y - 1/2 for exp(-2) < y < 1 - exp(-2), and in
# 1 / x, x = sqrt(-2 log y), on the tails, one below x = 8 and one above.
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
             1.39312609387279679503e1, -1.23916583867381258016e0)
_NDTRI_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
             -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
             4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
             1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_NDTRI_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
             1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
             3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_NDTRI_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
             2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
             2.89247864745380683936e-6, 6.79019408009981274425e-9)
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_SQRT_2PI = 2.50662827463100050242


def _ndtri(y: float) -> float:
    """The standard normal quantile Phi^-1(y): -inf at 0, inf at 1, NaN off [0, 1].

    A port of Cephes' ``ndtri`` in its branch order, bit-identical to
    ``scipy.special.ndtri``, as ``_two_sided_p`` is to its ``ndtr``;
    ``tests/test_power.py`` holds the quantiles to that.
    """
    y = float(y)
    if y == 0.0:
        return -math.inf
    if y == 1.0:
        return math.inf
    if not 0.0 < y < 1.0:
        return math.nan
    upper = y > 1.0 - _EXP_M2
    if upper:
        y = 1.0 - y
    if y > _EXP_M2:
        y -= 0.5
        y2 = y * y
        return (y + y * (y2 * _polevl(y2, _NDTRI_P0) / _polevl(y2, _NDTRI_Q0))) * _SQRT_2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    p, q = (_NDTRI_P1, _NDTRI_Q1) if x < 8.0 else (_NDTRI_P2, _NDTRI_Q2)
    x = x0 - z * _polevl(z, p) / _polevl(z, q)
    return x if upper else -x


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
    # BGRAT: I_x(a, 1/2) = G(a) sum_n d_n K_n, K_0 = erfc(sqrt(z)), d_0 = 1;
    # math.erfc, not the Cephes port: no bit identity is owed here, and it
    # costs 0.13 us a call against 1.7 us
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
        orders = {name: np.argsort(getattr(self, name)) for name in ("e_death", "e_hosp")}
        _read_only(*orders.values())
        return orders


def tie_groups(key: np.ndarray, order: np.ndarray | None = None,
               breaks: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
    """The rows in sorted order, and the runs of equal ``key`` in that order.

    ``order`` lists the row ids in sorted order, by default ``argsort(key)``.
    A caller that sorts by a coarser label first (the FS test's strata) gives
    in ``breaks`` the sorted positions where each label's rows begin, so that
    no run crosses one.  Returns ``order`` and the sorted positions ``start``
    and ``stop`` that bound each run: run ``r`` is ``order[start[r]:stop[r]]``,
    its rows in no particular order, so the runs do not depend on how
    ``order`` ranks equal keys.
    """
    n = len(key)
    if order is None:
        order = np.argsort(key)
    k = key[order]
    new = np.empty(n, dtype=bool)
    new[:1] = True
    np.not_equal(k[1:], k[:-1], out=new[1:])
    if breaks is not None:
        new[breaks] = True
    start = np.flatnonzero(new)
    stop = np.empty_like(start)
    stop[:-1] = start[1:]
    stop[-1:] = n
    return order, start, stop


@dataclass(frozen=True)
class PairingResult:
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
    order = np.argsort(label, kind="stable")
    ends = np.cumsum(np.bincount(label, minlength=16)).tolist()  # stratum < 8
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

    pairs = np.column_stack([np.concatenate(treatments), np.concatenate(controls)])
    if not len(pairs):
        raise DegenerateResultError("no pairs formable: an arm is empty in every stratum")
    return PairingResult(pairs, unpaired_t, unpaired_c)
