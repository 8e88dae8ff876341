"""Domain types, the array-native cohort, and pair formation shared by every analysis.

A cohort is one :class:`Cohort`: parallel arrays with one row per patient,
whose row index is the patient id.  It holds the design columns (arm,
covariates, stage) and the outcome columns of one family, validated once when
the cohort is built, and derives the stratum of every row.  There is no
per-patient object: analyses and CSV export read the columns, and a cohort is
built by hand from columns too.  A cohort is never modified after it is
built, so it can be shared freely between concurrently running replications
as long as each replication owns its own random generator.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

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


# the outcome columns of each family: survival, binary, continuous
_FAMILY_COLUMNS = (("e_death", "e_hosp"), ("y_death", "x_hosp"), ("y_base", "y"))
_OUTCOME_COLUMNS = sum(_FAMILY_COLUMNS, ())


class ArmStratum(NamedTuple):
    """One row's arm and stratum, as :meth:`Cohort.__iter__` yields them."""

    arm: int
    stratum: int


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
    covariate strata; the encoding is fixed, so a cohort written to CSV by
    one process is re-analyzed by another without renumbering.
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

    def __len__(self) -> int:
        return len(self.arm)

    def __iter__(self) -> Iterator[ArmStratum]:
        """Each row's (arm, stratum), in id order.

        Only the benchmark tracer (``perfbench/spans.py``) reads the rows, to
        size the strata of an FS call; this goes once the tracer reads the
        columns instead (ROADMAP item 1).
        """
        return map(ArmStratum, self.arm.tolist(), self.stratum.tolist())


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
