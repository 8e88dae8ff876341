"""Seeded synthetic-cohort generators for the three outcome families.

All generators are pure functions of (config, generator): the same seed and
config give bit-identical cohorts.  Replications that must run concurrently
should derive child seeds from a master ``numpy.random.SeedSequence``.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import BinaryOutcome, Cohort, ConfigError, SurvivalOutcome


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
        if self.n < 2:
            raise ConfigError("cohort size must be at least 2")
        if not (0.0 < self.allocation < 1.0):
            raise ConfigError("allocation must lie in (0, 1)")


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
    shift on drug as well.
    """

    beta_p: tuple[float, float, float] = (-1.5, -1.5, -1.5)
    beta_t1: float = -1.5
    beta_in2: float = 0.0
    beta_in3: float = 0.0
    beta_cov1: float = 5.0
    beta_cov2: float = 5.0
    noise_sd: float = 1.0
    n: int = 100

    def __post_init__(self):
        if self.n < 2:
            raise ConfigError("cohort size must be at least 2")
        if not (self.noise_sd > 0 and math.isfinite(self.noise_sd)):
            raise ConfigError("noise must have positive finite variance")

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


def draw_continuous_patients(
    cfg: ContinuousGenConfig, mix: SubpopMix, rng: np.random.Generator, n: int | None = None
) -> ContinuousFrame:
    """Draw covariates, baselines, and responder classes for n patients.

    Covariates are redrawn until the baseline beta_cov1*x1 + beta_cov2*x2
    is strictly positive.
    """
    n = cfg.n if n is None else n
    x1 = rng.integers(0, 2, n)
    x2 = rng.integers(0, 2, n)
    y_base = cfg.beta_cov1 * x1 + cfg.beta_cov2 * x2
    bad = ~(y_base > 0)
    while np.any(bad):
        k = int(bad.sum())
        x1[bad] = rng.integers(0, 2, k)
        x2[bad] = rng.integers(0, 2, k)
        y_base = cfg.beta_cov1 * x1 + cfg.beta_cov2 * x2
        bad = ~(y_base > 0)
    subpop = rng.choice(
        np.array([int(s) for s in Subpop]), size=n, p=mix.as_array()
    )
    return ContinuousFrame(x1=x1, x2=x2, y_base=y_base.astype(float), subpop=subpop)


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
    n = len(frame.y_base)
    eps = rng.normal(0.0, cfg.noise_sd, size=(n, 3))
    effect = np.tile(np.asarray(cfg.beta_p, dtype=float), (n, 1))
    target = on_drug & (frame.subpop == int(Subpop.DRUG_ONLY))
    effect[target] = np.asarray(cfg.beta_t, dtype=float)
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


def gen_continuous_cohort(
    cfg: ContinuousGenConfig,
    mix: SubpopMix,
    rng: np.random.Generator,
    allocation: float = 0.5,
) -> tuple[Cohort, np.ndarray]:
    """Single-stage randomized cohort and each patient's responder class (Subpop values)."""
    frame = draw_continuous_patients(cfg, mix, rng)
    arm = _assign_arms(rng, cfg.n, allocation)
    y = draw_continuous_response(cfg, frame, arm == 1, rng)
    return continuous_cohort([(frame, arm, y)]), frame.subpop


# ---------------------------------------------------------------------------
# CSV export


def cohort_to_csv(cohort: Cohort, path: str) -> None:
    """One row per patient: id, arm, covariates, stratum, outcome columns."""
    rows = list(cohort)
    first = rows[0].outcome
    if isinstance(first, BinaryOutcome):
        extra = ["y_death", "x_hosp"]
        row = lambda o: [o.y_death, o.x_hosp]
    elif isinstance(first, SurvivalOutcome):
        extra = ["e_death", "e_hosp"]
        row = lambda o: [repr(o.e_death), repr(o.e_hosp)]
    else:
        extra = ["y_base", "y1", "y2", "y3"]
        row = lambda o: [repr(o.y_base)] + [repr(v) for v in o.y]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "arm", "x_cov1", "x_cov2", "stratum"] + extra)
        for pid, rec in enumerate(rows):
            writer.writerow(
                [pid, int(rec.arm), rec.covariates[0], rec.covariates[1], rec.stratum]
                + row(rec.outcome)
            )
