"""Domain types, the array-native cohort, and pair formation shared by every analysis.

A cohort is one :class:`Cohort`: parallel arrays with one row per patient,
whose row index is the patient id.  It holds the design columns (arm,
covariates, stage) and the outcome columns of one family, validated once when
the cohort is built, and derives the stratum of every row.  Analyses read the
columns directly.  :class:`PatientRecord` is the row form, used only at the
edges: hand-built cohorts (``Cohort.from_records``) and CSV export (iterating
a cohort yields its rows).  A cohort is never modified after it is built, so
it can be shared freely between concurrently running replications as long as
each replication owns its own random generator.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np
from scipy.special import ndtr


class ConfigError(ValueError):
    """Invalid configuration (bad rates, mixture not summing to one, ...)."""


class DegenerateResultError(RuntimeError):
    """An analysis could not produce a test statistic (all ties, V=0, ...)."""


def _two_sided_p(z: float) -> float:
    """Two-sided normal p-value, 2 * P(Z > |z|).

    ``ndtr(-x)`` is what ``scipy.stats.norm.sf(x)`` evaluates, without the
    distribution wrapper's per-call argument handling.
    """
    return float(2.0 * ndtr(-abs(z)))


class Arm(enum.IntEnum):
    CONTROL = 0
    TREATMENT = 1


class WinStatus(enum.Enum):
    """Outcome of one pairwise comparison, seen from the treatment side."""

    WIN = 1
    TIE = 0
    LOSS = -1

    def mirrored(self) -> "WinStatus":
        """Status after swapping the two patients' roles."""
        return WinStatus(-self.value)


@dataclass(frozen=True)
class BinaryOutcome:
    """Death indicator and hospitalization indicator (1 = event occurred)."""

    y_death: int
    x_hosp: int

    def __post_init__(self):
        if self.y_death not in (0, 1) or self.x_hosp not in (0, 1):
            raise ValueError("binary outcome components must be 0/1")


@dataclass(frozen=True)
class SurvivalOutcome:
    """Time to death and time to hospitalization, both strictly positive."""

    e_death: float
    e_hosp: float

    def __post_init__(self):
        if not (self.e_death > 0 and self.e_hosp > 0):
            raise ValueError("survival times must be strictly positive")


@dataclass(frozen=True)
class ContinuousOutcome:
    """Strictly positive baseline level and times to improvement on three components."""

    y_base: float
    y: tuple[float, float, float]

    def __post_init__(self):
        if not self.y_base > 0:
            raise ValueError("y_base must be strictly positive")


Outcome = BinaryOutcome | SurvivalOutcome | ContinuousOutcome

# the cohort columns of each outcome family, named as the outcome's fields
_OUTCOME_COLUMNS = ("e_death", "e_hosp", "y_death", "x_hosp", "y_base", "y")
_FAMILY_COLUMNS = {
    SurvivalOutcome: ("e_death", "e_hosp"),
    BinaryOutcome: ("y_death", "x_hosp"),
    ContinuousOutcome: ("y_base", "y"),
}


def stratify(covariates: tuple[int, int]) -> int:
    """Map a (x_cov1, x_cov2) pattern to its stratum index.

    The encoding 2*x_cov1 + x_cov2 is fixed so that cohorts written to CSV
    by one process can be re-analyzed by another without renumbering.
    """
    x1, x2 = covariates
    if x1 not in (0, 1) or x2 not in (0, 1):
        raise ValueError(f"covariates must be 0/1, got {covariates!r}")
    return 2 * x1 + x2


@dataclass(frozen=True)
class PatientRecord:
    """One patient as a row object; stage 1 marks a stage-2 re-randomization."""

    arm: Arm
    covariates: tuple[int, int]
    outcome: Outcome
    stage: int = 0

    @property
    def stratum(self) -> int:
        """Covariate stratum, with stage as an extra layer (4 * stage + 2 * x1 + x2)."""
        return 4 * self.stage + stratify(self.covariates)


def _is_binary(col: np.ndarray) -> bool:
    return bool(((col == 0) | (col == 1)).all())


@dataclass(frozen=True, eq=False)
class Cohort:
    """A trial's patients as parallel columns; row ``i`` is patient ``i``.

    ``arm``, ``x1``, ``x2`` and ``stage`` are 0/1 integer arrays.  Exactly
    one family's outcome columns are set: ``e_death``/``e_hosp`` (strictly
    positive times), ``y_death``/``x_hosp`` (0/1 indicators), or ``y_base``
    (strictly positive, length n) with ``y`` (shape (n, 3)).  ``stratum`` is
    derived as 4 * stage + 2 * x1 + x2, so each stage is its own layer of
    covariate strata.
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
        if present not in _FAMILY_COLUMNS.values():
            raise ValueError(f"a cohort needs the outcome columns of one family, got {present}")
        for name in ("arm", "x1", "x2", "stage") + present:
            object.__setattr__(self, name, np.asarray(getattr(self, name)))
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

    @classmethod
    def from_records(cls, records) -> "Cohort":
        """Build a cohort from row objects, all of one outcome family, in id order."""
        records = list(records)
        if not records:
            raise ValueError("a cohort needs at least one patient")
        kind = type(records[0].outcome)
        if any(type(rec.outcome) is not kind for rec in records):
            raise ValueError("all records of a cohort must have one outcome family")
        outcomes = {
            name: np.array([getattr(rec.outcome, name) for rec in records])
            for name in _FAMILY_COLUMNS[kind]
        }
        return cls(
            arm=np.array([int(rec.arm) for rec in records]),
            x1=np.array([rec.covariates[0] for rec in records]),
            x2=np.array([rec.covariates[1] for rec in records]),
            stage=np.array([rec.stage for rec in records]),
            **outcomes,
        )

    def __len__(self) -> int:
        return len(self.arm)

    def __iter__(self) -> Iterator[PatientRecord]:
        """The rows as :class:`PatientRecord` objects, in id order."""
        if self.e_death is not None:
            outcomes = map(SurvivalOutcome, self.e_death.tolist(), self.e_hosp.tolist())
        elif self.y_death is not None:
            outcomes = map(BinaryOutcome, self.y_death.tolist(), self.x_hosp.tolist())
        else:
            outcomes = (ContinuousOutcome(b, tuple(y))
                        for b, y in zip(self.y_base.tolist(), self.y.tolist()))
        rows = zip(self.arm.tolist(), self.x1.tolist(), self.x2.tolist(),
                   self.stage.tolist(), outcomes)
        for arm, x1, x2, stage, outcome in rows:
            yield PatientRecord(Arm(arm), (x1, x2), outcome, stage)


def tie_groups(key: np.ndarray, groups: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
    """Rows sorted by (group, key), and the runs of equal (group, key) in that order.

    Returns ``order``, the row ids in sorted order, and the sorted positions
    ``start`` and ``stop`` that bound each run: run ``r`` is
    ``order[start[r]:stop[r]]``, its rows in no particular order.  Without
    ``groups`` all rows are one group.  Groups are sorted with a stable
    sort, which is a linear-time radix sort for 8- and 16-bit labels.
    """
    n = len(key)
    order = np.argsort(key)
    if groups is not None:
        order = order[np.argsort(groups[order], kind="stable")]
    k = key[order]
    new = np.empty(n, dtype=bool)
    new[:1] = True
    np.not_equal(k[1:], k[:-1], out=new[1:])
    if groups is not None:
        g = groups[order]
        new[1:] |= g[1:] != g[:-1]
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
    before controls.

    Raises ``DegenerateResultError`` when no stratum can contribute a pair.
    """
    pairs = []
    unpaired_t = unpaired_c = 0
    for key in np.unique(cohort.stratum):
        rows = np.flatnonzero(cohort.stratum == key)
        is_t = cohort.arm[rows] == Arm.TREATMENT
        treatments, controls = rows[is_t], rows[~is_t]
        treatments = treatments[rng.permutation(len(treatments))]
        controls = controls[rng.permutation(len(controls))]
        m = min(len(treatments), len(controls))
        pairs.append(np.column_stack([treatments[:m], controls[:m]]))
        unpaired_t += len(treatments) - m
        unpaired_c += len(controls) - m

    pairs = np.concatenate(pairs)
    if not len(pairs):
        raise DegenerateResultError("no pairs formable: an arm is empty in every stratum")
    return PairingResult(pairs, unpaired_t, unpaired_c)
