"""Seeded synthetic-cohort generators for the three outcome families.

All generators are pure functions of (config, generator, size), a binary
config holding its own arm sizes: the same seed, config and size give
bit-identical cohorts.  Every seed they are given comes from
``harness._streams``: replicate i's is the master seed's i-th child.

A trial's cohort comes from ``harness.trial_cohort``, which calls these
generators for ``cfg.design``; ``harness.run_trial`` runs the analyses on it.

RNG contract of a continuous trial (``harness._continuous_trial_cohort``).
The streams are the trial seed's first seven children (``harness._streams``,
what ``spawn(7)`` gives on a fresh seed), in this order: patients, lead-in,
stage-1 assignment, stage-1 outcomes, stage-2 assignment, stage-2 outcomes
and analysis.  The SED lead-in uses only the patients and lead-in streams.  For
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

from .core import _FAMILY_COLUMNS, Cohort, ConfigError


def _positive_uniform(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform(0,1) draws with the endpoints redrawn, keeping -log(u) finite."""
    u = rng.uniform(0.0, 1.0, n)
    bad = (u <= 0.0) | (u >= 1.0)
    while np.any(bad):
        u[bad] = rng.uniform(0.0, 1.0, int(bad.sum()))
        bad = (u <= 0.0) | (u >= 1.0)
    return u


def arm_sizes(n: int, allocation: float) -> tuple[int, int]:
    """The (treated, control) sizes of fixed allocation: floor(n * allocation) treated."""
    n_treat = int(n * allocation)
    return n_treat, n - n_treat


def _assign_arms(rng: np.random.Generator, n: int, allocation: float) -> np.ndarray:
    """Fixed-allocation randomization into the arms of ``arm_sizes``."""
    n_treat, _ = arm_sizes(n, allocation)
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
    allocation: float = 0.5

    def __post_init__(self):
        betas = (self.beta_t, self.beta_in, self.beta_dhratio, self.beta_cov1, self.beta_cov2)
        if not all(math.isfinite(b) for b in betas):
            raise ConfigError(f"survival coefficients must be finite, got {betas}")
        # an event time is -log(u) * exp(-lp) with -log(u) in [1.1e-16, 36.8], so it
        # stays in (0, inf) while |lp| < 700; |lp| is largest at arm, x1, x2 in {0, 1}
        # and |w| = sqrt(3)
        covs = [self.beta_cov1 * x1 + self.beta_cov2 * x2 for x1 in (0, 1) for x2 in (0, 1)]
        reach = max(max(abs(self.beta_t * arm + c),
                        abs((self.beta_t + self.beta_in) * arm + c) + math.sqrt(3.0) * abs(self.beta_dhratio))
                    for arm in (0, 1) for c in covs)
        if not reach < 700:
            raise ConfigError(f"survival linear predictors must stay below 700 in absolute value, "
                              f"and {betas} reach {reach:.6g}")
        if not (0.0 < self.allocation < 1.0):
            raise ConfigError("allocation must lie in (0, 1)")


def gen_survival_cohort(cfg: SurvivalGenConfig, rng: np.random.Generator, n: int) -> Cohort:
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
        # NaN passes both p < 0 and the sum check
        if not all(math.isfinite(p) and p >= 0 for p in probs):
            raise ConfigError(f"mixture probabilities must be finite and nonnegative, got {probs}")
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


# A bound on |z| for numpy's ziggurat normal: ``Generator.normal(0, sd)``
# returns sd * z.  A draw from a layer lies below the ziggurat's edge r.  A
# tail draw is r + xx, accepted when yy + yy > xx * xx, where yy = -log1p(-u)
# and u is a 53-bit double below 1; so yy <= 53 ln 2, xx < sqrt(106 ln 2) ~=
# 8.5717, and with r = 3.6541528853610088 every draw has |z| < 12.2259.
_MAX_ABS_NORMAL = 12.23


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
    mix: SubpopMix = field(kw_only=True)

    def __post_init__(self):
        effects = (*self.beta_p, self.beta_t1, self.beta_in2, self.beta_in3)
        if not all(math.isfinite(b) for b in effects):
            raise ConfigError(f"response effects must be finite, got {effects}")
        if not (self.noise_sd > 0 and math.isfinite(self.noise_sd)):
            raise ConfigError("noise must have positive finite variance")
        b1, b2 = self.beta_cov1, self.beta_cov2
        if not (math.isfinite(b1) and math.isfinite(b2)):
            raise ConfigError("covariate coefficients must be finite")
        # the patient draw redraws covariates until the baseline is positive
        if not max(self.baselines) > 0:
            raise ConfigError("no covariate pattern gives a positive baseline "
                              "(need beta_cov1, beta_cov2 or their sum above 0)")
        # Every outcome, a baseline plus a shift plus noise, must be finite, and
        # so must its ratio to its baseline, which the cutoffs are applied to.
        # 1 + 2**-50 covers the rounding of the outcome's two additions and of
        # this bound; dividing by at most 1 keeps the bound on the outcome itself.
        shifts = (*self.beta_p, *self.beta_t)
        max_abs_y = (max(map(abs, self.baselines)) + max(map(abs, shifts))
                     + _MAX_ABS_NORMAL * self.noise_sd) * (1 + 2**-50)
        min_base = min(b for b in self.baselines if b > 0)
        if not math.isfinite(max_abs_y / min(min_base, 1.0)):
            raise ConfigError(f"outcomes, a baseline of {self.baselines} plus one of {shifts} "
                              f"plus noise up to {_MAX_ABS_NORMAL} * noise_sd "
                              f"({self.noise_sd}), and their ratios to the smallest positive "
                              f"baseline ({min_base}) must be finite")

    @property
    def beta_t(self) -> tuple[float, float, float]:
        return (self.beta_t1, self.beta_t1 + self.beta_in2, self.beta_t1 + self.beta_in3)

    @property
    def baselines(self) -> tuple[float, float, float, float]:
        """beta_cov1 * x1 + beta_cov2 * x2 of the covariate pattern 2 * x1 + x2."""
        b1, b2 = float(self.beta_cov1), float(self.beta_cov2)
        return (0.0, b2, b1, b1 + b2)


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
    cfg: ContinuousGenConfig, rng: np.random.Generator, n: int
) -> ContinuousFrame:
    """Draw covariates, baselines, and responder classes for n patients.

    Covariates are redrawn until the baseline beta_cov1*x1 + beta_cov2*x2
    is strictly positive: each round draws the x1 bits then the x2 bits of
    the rows still bad, in row order, in one ``integers(0, 2, 2k)`` call.
    """
    # each row is carried as its covariate pattern code 2 * x1 + x2, and its
    # baseline is that code's, exact where it is positive
    baseline = np.array(cfg.baselines)
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
    """One row per patient: id, arm, covariates, stratum, the family's outcome columns."""
    outcomes = {}  # header -> column, with y split into y1..y3
    for name in next(names for names in _FAMILY_COLUMNS if getattr(cohort, names[0]) is not None):
        col = getattr(cohort, name)
        outcomes.update({name: col} if col.ndim == 1 else
                        {f"{name}{k + 1}": c for k, c in enumerate(col.T)})
    design = [cohort.arm.astype(int).tolist(), cohort.x1.tolist(), cohort.x2.tolist(),
              cohort.stratum.tolist()]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "arm", "x_cov1", "x_cov2", "stratum", *outcomes])
        writer.writerows(zip(range(len(cohort)), *design, *(c.tolist() for c in outcomes.values())))
