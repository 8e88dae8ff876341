"""Seeded synthetic-cohort generators for the three outcome families.

All generators are pure functions of (config, generator): the same seed and
config give bit-identical cohorts.  Replications that must run concurrently
should derive child seeds from a master ``numpy.random.SeedSequence``.

A trial's cohort comes from ``harness.trial_cohort``, which calls these
generators for ``cfg.design``; ``harness.run_trial`` runs the analyses on it.

RNG contract of a continuous trial (``harness._continuous_trial_cohort``).
The trial seed spawns seven streams, in this order: patients, lead-in, stage-1
assignment, stage-1 outcomes, stage-2 assignment, stage-2 outcomes and
analysis.  The SED lead-in uses only the patients and lead-in streams.  For
each batch of n enrollees it draws, in this order:

1. from the patients stream, the x1 and x2 bits in one ``integers(0, 2, 2n)``
   call (x1 the first n);
2. from the patients stream, one ``integers(0, 2, 2k)`` call per redraw
   round for the k rows whose baseline is not yet positive;
3. from the patients stream, n class uniforms (``random(n)``);
4. from the lead-in stream, one (n, 3) ``normal`` draw of placebo noise.

CR draws its single batch of patients the same way (steps 1-3).  Each stage
draws its assignment and outcomes from its own two streams.  Any change to
the order, number or shape of these draws moves every pinned SED and CR
number, so it is a deliberate re-pin: the acceptance suite is re-run and the
new numbers are reported.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .core import Cohort, ConfigError


def _positive_uniform(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform(0,1) draws with the endpoints redrawn, keeping -log(u) finite."""
    u = rng.uniform(0.0, 1.0, n)
    bad = (u <= 0.0) | (u >= 1.0)
    while np.any(bad):
        u[bad] = rng.uniform(0.0, 1.0, int(bad.sum()))
        bad = (u <= 0.0) | (u >= 1.0)
    return u


def _assign_arms(rng: np.random.Generator, n: int, allocation: float) -> np.ndarray:
    """Fixed-allocation randomization: floor(n * allocation) treatment slots."""
    n_treat = int(n * allocation)
    arm = np.zeros(n, dtype=int)
    arm[rng.permutation(n)[:n_treat]] = 1
    return arm


# ---------------------------------------------------------------------------
# survival family


@dataclass(frozen=True)
class SurvivalGenConfig:
    """Two event times per patient from a unit-exponential baseline hazard.

    Hospitalization uses the linear predictor beta_t * arm + covariates;
    death uses (beta_t + beta_in) * arm + beta_dhratio * w + covariates,
    where w is a standardized Uniform(0,1) draw describing each patient's
    death/hospitalization risk linkage.  With H0(t) = t the event time is
    -log(u) * exp(-X beta), so beta coefficients are log hazard ratios.
    """

    beta_t: float = 0.0
    beta_in: float = 0.0
    beta_dhratio: float = 0.0
    beta_cov1: float = -0.5
    beta_cov2: float = 0.5
    n: int = 100
    allocation: float = 0.5

    def __post_init__(self):
        betas = (self.beta_t, self.beta_in, self.beta_dhratio, self.beta_cov1, self.beta_cov2)
        if not all(math.isfinite(b) for b in betas):
            raise ConfigError(f"survival coefficients must be finite, got {betas}")
        if self.n < 2:
            raise ConfigError("cohort size must be at least 2")
        if not (0.0 < self.allocation < 1.0):
            raise ConfigError("allocation must lie in (0, 1)")
        if int(self.n * self.allocation) == 0:
            raise ConfigError(f"allocation {self.allocation} leaves the treatment arm of "
                              f"{self.n} patients empty")


def gen_survival_cohort(cfg: SurvivalGenConfig, rng: np.random.Generator) -> Cohort:
    n = cfg.n
    x1 = rng.integers(0, 2, n)
    x2 = rng.integers(0, 2, n)
    w = (rng.uniform(0.0, 1.0, n) - 0.5) * math.sqrt(12.0)  # mean 0, variance 1
    arm = _assign_arms(rng, n, cfg.allocation)

    lp_hosp = cfg.beta_t * arm + cfg.beta_cov1 * x1 + cfg.beta_cov2 * x2
    lp_death = (
        (cfg.beta_t + cfg.beta_in) * arm
        + cfg.beta_dhratio * w
        + cfg.beta_cov1 * x1
        + cfg.beta_cov2 * x2
    )
    e_hosp = -np.log(_positive_uniform(rng, n)) * np.exp(-lp_hosp)
    e_death = -np.log(_positive_uniform(rng, n)) * np.exp(-lp_death)

    return Cohort(arm, x1, x2, np.zeros(n, dtype=int), e_death=e_death, e_hosp=e_hosp)


# ---------------------------------------------------------------------------
# binary family


@dataclass(frozen=True)
class BinaryGenConfig:
    """Independent Bernoulli death/hospitalization indicators per arm."""

    p_t: float
    q_t: float
    p_c: float
    q_c: float
    n1: int
    n0: int

    def __post_init__(self):
        for v in (self.p_t, self.q_t, self.p_c, self.q_c):
            if not (0.0 <= v <= 1.0):
                raise ConfigError(f"rate out of range: {v}")
        if self.n1 < 1 or self.n0 < 1:
            raise ConfigError("arm sizes must be positive")


def gen_binary_cohort(cfg: BinaryGenConfig, rng: np.random.Generator) -> Cohort:
    """Treatment patients first, then controls; no covariates (one stratum)."""
    y_t = rng.binomial(1, cfg.p_t, cfg.n1)
    x_t = rng.binomial(1, cfg.q_t, cfg.n1)
    y_c = rng.binomial(1, cfg.p_c, cfg.n0)
    x_c = rng.binomial(1, cfg.q_c, cfg.n0)
    n = cfg.n1 + cfg.n0
    zeros = np.zeros(n, dtype=int)
    arm = np.r_[np.ones(cfg.n1, dtype=int), np.zeros(cfg.n0, dtype=int)]
    return Cohort(arm, zeros, zeros, zeros, y_death=np.r_[y_t, y_c], x_hosp=np.r_[x_t, x_c])


# ---------------------------------------------------------------------------
# continuous family with responder subpopulations


class Subpop(enum.IntEnum):
    """Responder class: placebo response x drug response."""

    BOTH = 1        # responds to placebo and to drug
    PLACEBO_ONLY = 2
    DRUG_ONLY = 3   # the target class an enriched design tries to isolate
    NEITHER = 4


_SUBPOP_CODES = np.array([int(s) for s in Subpop])


@dataclass(frozen=True)
class SubpopMix:
    p1: float
    p2: float
    p3: float
    p4: float

    def __post_init__(self):
        probs = (self.p1, self.p2, self.p3, self.p4)
        if any(p < 0 for p in probs):
            raise ConfigError("mixture probabilities must be nonnegative")
        if abs(sum(probs) - 1.0) > 1e-12:
            raise ConfigError("mixture probabilities must sum to 1")

    def as_array(self) -> np.ndarray:
        return np.array([self.p1, self.p2, self.p3, self.p4])

    @cached_property
    def cdf(self) -> np.ndarray:
        """Cumulative class probabilities scaled to end at exactly 1 (read-only)."""
        cdf = np.cumsum(self.as_array())
        cdf /= cdf[-1]
        cdf.flags.writeable = False
        return cdf


@dataclass(frozen=True)
class ContinuousGenConfig:
    """Times to improvement on three components, against a covariate baseline.

    Response model: any administration elicits the placebo-level shift
    beta_p; for target-class patients (drug responders who are not placebo
    responders) a drug administration replaces that shift with the drug
    effects (beta_t1, beta_t1 + beta_in2, beta_t1 + beta_in3).  Under equal
    placebo and drug effects the two administrations are therefore
    indistinguishable for every patient, which is what makes the null
    scenarios exact.  Patients whose response to drug would be masked by
    their own placebo response (classes 1 and 2) show the placebo-level
    shift on drug as well.  ``mix`` gives the responder-class probabilities.
    """

    beta_p: tuple[float, float, float] = (-1.5, -1.5, -1.5)
    beta_t1: float = -1.5
    beta_in2: float = 0.0
    beta_in3: float = 0.0
    beta_cov1: float = 5.0
    beta_cov2: float = 5.0
    noise_sd: float = 1.0
    n: int = 100
    mix: SubpopMix = field(kw_only=True)

    def __post_init__(self):
        if self.n < 2:
            raise ConfigError("cohort size must be at least 2")
        if not (self.noise_sd > 0 and math.isfinite(self.noise_sd)):
            raise ConfigError("noise must have positive finite variance")
        b1, b2 = self.beta_cov1, self.beta_cov2
        if not (math.isfinite(b1) and math.isfinite(b2)):
            raise ConfigError("covariate coefficients must be finite")
        # the patient draw redraws covariates until the baseline is positive
        if not (b1 > 0 or b2 > 0 or b1 + b2 > 0):
            raise ConfigError("no covariate pattern gives a positive baseline "
                              "(need beta_cov1, beta_cov2 or their sum above 0)")

    @property
    def beta_t(self) -> tuple[float, float, float]:
        return (self.beta_t1, self.beta_t1 + self.beta_in2, self.beta_t1 + self.beta_in3)


@dataclass(frozen=True)
class ContinuousFrame:
    """Per-patient state that persists across repeated outcome draws."""

    x1: np.ndarray
    x2: np.ndarray
    y_base: np.ndarray
    subpop: np.ndarray  # values from Subpop

    def take(self, rows) -> ContinuousFrame:
        """The patients at ``rows``: an index array, a boolean mask or a slice."""
        return ContinuousFrame(**{f.name: getattr(self, f.name)[rows] for f in fields(self)})

    @staticmethod
    def concat(frames: list[ContinuousFrame]) -> ContinuousFrame:
        """The patients of ``frames``, in order."""
        return ContinuousFrame(**{
            f.name: np.concatenate([getattr(frame, f.name) for frame in frames])
            for f in fields(ContinuousFrame)
        })


def draw_continuous_patients(
    cfg: ContinuousGenConfig, rng: np.random.Generator, n: int | None = None
) -> ContinuousFrame:
    """Draw covariates, baselines, and responder classes for n patients.

    Covariates are redrawn until the baseline beta_cov1*x1 + beta_cov2*x2
    is strictly positive: each round draws the x1 bits then the x2 bits of
    the rows still bad, in row order, in one ``integers(0, 2, 2k)`` call.
    """
    n = cfg.n if n is None else n
    b1, b2 = float(cfg.beta_cov1), float(cfg.beta_cov2)
    # each row is carried as its covariate pattern code 2 * x1 + x2; the
    # baselines b1 * x1 + b2 * x2 of the codes, exact where they are positive
    baseline = np.array([0.0, b2, b1, b1 + b2])
    redraw = ~(baseline > 0)
    bits = rng.integers(0, 2, 2 * n)
    code = 2 * bits[:n] + bits[n:]
    bad = np.flatnonzero(redraw[code])
    while len(bad):
        k = len(bad)
        bits = rng.integers(0, 2, 2 * k)
        redrawn = 2 * bits[:k] + bits[k:]
        code[bad] = redrawn
        bad = bad[redraw[redrawn]]
    subpop = _SUBPOP_CODES[cfg.mix.cdf.searchsorted(rng.random(n), side="right")]
    return ContinuousFrame(x1=code >> 1, x2=code & 1, y_base=baseline[code], subpop=subpop)


def draw_continuous_response(
    cfg: ContinuousGenConfig,
    frame: ContinuousFrame,
    on_drug: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """One fresh (n, 3) outcome draw for the given administration vector.

    Noise is independent across patients, components, and repeated draws;
    responder class is the only patient property carried between draws.
    """
    on_drug = np.asarray(on_drug, dtype=bool)
    eps = rng.normal(0.0, cfg.noise_sd, size=(len(frame.y_base), 3))
    target = on_drug & (frame.subpop == int(Subpop.DRUG_ONLY))
    effect = np.where(target[:, None], np.asarray(cfg.beta_t, dtype=float),
                      np.asarray(cfg.beta_p, dtype=float))
    return frame.y_base[:, None] + effect + eps


def continuous_cohort(stages: list[tuple[ContinuousFrame, np.ndarray, np.ndarray]]) -> Cohort:
    """One cohort from design stages given as (patients, arms, (n, 3) outcomes), stage k the k-th."""
    frames, arms, ys = zip(*stages)
    return Cohort(
        np.concatenate(arms),
        np.concatenate([f.x1 for f in frames]),
        np.concatenate([f.x2 for f in frames]),
        np.concatenate([np.full(len(a), k) for k, a in enumerate(arms)]),
        y_base=np.concatenate([f.y_base for f in frames]),
        y=np.concatenate(ys),
    )


# ---------------------------------------------------------------------------
# CSV export


def cohort_to_csv(cohort: Cohort, path: str) -> None:
    """One row per patient: id, arm, covariates, stratum, outcome columns."""
    if cohort.y_death is not None:
        extra = ["y_death", "x_hosp"]
        outcomes = [cohort.y_death.tolist(), cohort.x_hosp.tolist()]
    elif cohort.e_death is not None:
        extra = ["e_death", "e_hosp"]
        outcomes = [map(repr, cohort.e_death.tolist()), map(repr, cohort.e_hosp.tolist())]
    else:
        extra = ["y_base", "y1", "y2", "y3"]
        outcomes = [map(repr, col.tolist()) for col in (cohort.y_base, *cohort.y.T)]
    design = [cohort.arm.astype(int).tolist(), cohort.x1.tolist(), cohort.x2.tolist(),
              cohort.stratum.tolist()]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "arm", "x_cov1", "x_cov2", "stratum"] + extra)
        writer.writerows(zip(range(len(cohort)), *design, *outcomes))
