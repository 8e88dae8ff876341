"""The trial runner (parallel, CR and SED designs), the Monte Carlo engine, and configs.

A trial is ``trial_cohort``, which draws the cohort of ``cfg.design`` from
the ``datagen`` generators, then ``_run_analyses`` on that cohort:
``run_trial`` is the two in turn, and ``wrtrials gen`` writes the first.
Replications are independent: each owns a private generator derived from the
master seed through ``SeedSequence.spawn``, so results are identical whether
reps run on one worker or many.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, field, fields, asdict, is_dataclass
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .core import Cohort, ConfigError, DegenerateResultError, form_matched_pairs
from .classic_tests import cox_fit, obrien_first_event, obrien_test, contingency_or_test
from .datagen import (
    BinaryGenConfig,
    ContinuousGenConfig,
    ContinuousFrame,
    SurvivalGenConfig,
    continuous_cohort,
    draw_continuous_patients,
    draw_continuous_response,
    gen_binary_cohort,
    gen_survival_cohort,
    _assign_arms,
)
from .wr_tests import (
    BinaryRule,
    ContinuousRule,
    SurvivalRule,
    fs_unmatched_test,
    improvement_indicators,
    matched_wr_test,
)

ANALYSES = ("MatchedWR", "StratUnmatchedWR", "UnstratUnmatchedWR", "Cox", "Obrien", "Contingency")

_FAMILY_ANALYSES = {
    "survival": {"MatchedWR", "StratUnmatchedWR", "UnstratUnmatchedWR", "Cox", "Obrien"},
    "binary": {"MatchedWR", "StratUnmatchedWR", "UnstratUnmatchedWR"},
    "continuous": {"MatchedWR", "StratUnmatchedWR", "UnstratUnmatchedWR", "Obrien", "Contingency"},
}

_FAMILY_GENERATORS = {
    "survival": SurvivalGenConfig,
    "binary": BinaryGenConfig,
    "continuous": ContinuousGenConfig,
}

_FAMILY_DESIGNS = {
    "survival": {"parallel"},
    "binary": {"parallel"},
    "continuous": {"parallel", "cr", "sed"},
}


@dataclass(frozen=True)
class Cutoffs:
    """Improvement (c_t) and lead-in (c_s0, c_s1) cutoffs; +-inf are sentinels, NaN is refused."""

    c_t: float = 0.8
    c_s0: float = 0.8
    c_s1: float = 0.9

    def __post_init__(self):
        if any(math.isnan(c) for c in (self.c_t, self.c_s0, self.c_s1)):
            raise ConfigError(f"cutoffs must not be NaN, got {self}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Full generative + design + analysis specification for one study."""

    design: str
    outcome_family: str
    generator: object
    analyses: tuple[str, ...]
    n_total: int
    cutoffs: Cutoffs = field(default_factory=Cutoffs)
    alpha: float = 0.05
    reps: int = 2000
    master_seed: int = 20240501
    win_priority: str = "death"

    def __post_init__(self):
        if self.outcome_family not in _FAMILY_ANALYSES:
            raise ConfigError(f"unknown outcome family {self.outcome_family!r}")
        gen_type = _FAMILY_GENERATORS[self.outcome_family]
        if not isinstance(self.generator, gen_type):
            raise ConfigError(f"a {self.outcome_family} scenario needs a {gen_type.__name__}")
        if self.design not in _FAMILY_DESIGNS[self.outcome_family]:
            raise ConfigError(
                f"design {self.design!r} is not available for the {self.outcome_family} family"
            )
        allowed = _FAMILY_ANALYSES[self.outcome_family]
        for a in self.analyses:
            if a not in ANALYSES:
                raise ConfigError(f"unknown analysis {a!r}")
            if a not in allowed:
                raise ConfigError(f"analysis {a!r} is incompatible with {self.outcome_family}")
        if not self.analyses:
            raise ConfigError("at least one analysis is required")
        if self.n_total < 4:
            raise ConfigError("n_total must be at least 4")
        if not (0.0 < self.alpha <= 1.0):
            raise ConfigError("alpha must lie in (0, 1]")
        if self.reps < 1:
            raise ConfigError("reps must be positive")
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be non-negative, got {self.master_seed}")
        if self.win_priority not in ("death", "hosp"):
            raise ConfigError("win_priority must be 'death' or 'hosp'")
        if self.outcome_family == "binary":
            if self.generator.n1 + self.generator.n0 != self.n_total:
                raise ConfigError("binary arm sizes must sum to n_total")
        elif self.generator.n != self.n_total:
            raise ConfigError("generator cohort size must equal n_total")


@dataclass(frozen=True)
class TrialRecord:
    """One analysis outcome inside one simulated trial."""

    analysis: str
    estimate: float
    ci_low: float
    ci_high: float
    z: float
    p_value: float
    degenerate: bool = False
    note: str = ""


@dataclass(frozen=True)
class McSummary:
    rejection_rate: float
    mean_estimate: float
    mean_ci: tuple[float, float]
    reps_used: int
    degenerate_count: int

    def to_dict(self) -> dict:
        return asdict(self)


def _as_seedseq(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


# ---------------------------------------------------------------------------
# analysis dispatch


def _wr_record(analysis: str, result) -> TrialRecord:
    return TrialRecord(
        analysis=analysis,
        estimate=result.r_w,
        ci_low=result.ci_low,
        ci_high=result.ci_high,
        z=result.z,
        p_value=result.p_value,
        note=f"dropped_strata={result.dropped_strata}" if result.dropped_strata else "",
    )


def _degenerate(analysis: str, err: Exception) -> TrialRecord:
    nan = float("nan")
    return TrialRecord(analysis, nan, nan, nan, nan, nan, degenerate=True, note=str(err))


def _run_analyses(cfg: ScenarioConfig, cohort: Cohort, rng: np.random.Generator):
    family = cfg.outcome_family
    if family == "survival":
        rule = SurvivalRule(cfg.win_priority)
    elif family == "binary":
        rule = BinaryRule()
    else:
        rule = ContinuousRule(cfg.cutoffs.c_t)

    records = {}
    for analysis in cfg.analyses:
        try:
            if analysis == "MatchedWR":
                pairing = form_matched_pairs(cohort, rng)
                res = matched_wr_test(cohort, pairing.pairs, rule)
                records[analysis] = _wr_record(analysis, res)
            elif analysis == "StratUnmatchedWR":
                res = fs_unmatched_test(cohort, rule, stratified=True)
                records[analysis] = _wr_record(analysis, res)
            elif analysis == "UnstratUnmatchedWR":
                res = fs_unmatched_test(cohort, rule, stratified=False)
                records[analysis] = _wr_record(analysis, res)
            elif analysis == "Cox":
                res = cox_fit(cohort)
                if res.separation or not res.converged:
                    records[analysis] = _degenerate(analysis, RuntimeError("separation or non-convergence"))
                else:
                    records[analysis] = TrialRecord(
                        analysis, res.hr, res.ci_low, res.ci_high, res.z, res.p_value
                    )
            elif analysis == "Obrien":
                if family == "survival":
                    res = obrien_first_event(cohort)
                else:
                    res = obrien_test(-cohort.y, cohort.arm)
                records[analysis] = TrialRecord(
                    analysis, float("nan"), float("nan"), float("nan"),
                    res.f_stat, res.p_value,
                )
            elif analysis == "Contingency":
                # first-stage comparisons only, one record per patient: the
                # plain 2x2 Wald test has no stratum structure, and pooling
                # records across stages either duplicates patients or
                # confounds arm with stage composition
                first = cohort.stage == 0
                ind = improvement_indicators(cohort, cfg.cutoffs.c_t)
                improved = (ind[:, 0] | ind[:, 1] | ind[:, 2])[first]
                arms = cohort.arm[first]
                res = contingency_or_test(improved[arms == 1], improved[arms == 0])
                records[analysis] = TrialRecord(
                    analysis, res.or_hat, float("nan"), float("nan"), res.z, res.p_value,
                    note="haldane" if res.corrected else "",
                )
        except DegenerateResultError as err:
            records[analysis] = _degenerate(analysis, err)
    return records


# ---------------------------------------------------------------------------
# the trial runner


_LEADIN_MAX_BATCHES = 400


def _nonresponder_mask(y: np.ndarray, y_base: np.ndarray, cutoff: float) -> np.ndarray:
    """True where every component ratio exceeds the cutoff."""
    r = y / y_base[:, None] > cutoff
    return r[:, 0] & r[:, 1] & r[:, 2]


def _leadin_frame(
    gen: ContinuousGenConfig,
    c_s0: float,
    n: int,
    patients_rng: np.random.Generator,
    leadin_rng: np.random.Generator,
) -> ContinuousFrame:
    """The first n observed placebo nonresponders of the lead-in, in enrollment order.

    Enrollees come in batches of n, each with one placebo outcome draw, for
    at most ``_LEADIN_MAX_BATCHES`` batches.  The draws follow the RNG
    contract in the ``datagen`` module docstring.
    """
    beta_p = np.asarray(gen.beta_p, dtype=float)
    kept: list[ContinuousFrame] = []
    kept_count = 0
    for _ in range(_LEADIN_MAX_BATCHES):
        batch = draw_continuous_patients(gen, patients_rng, n)
        # the placebo outcome: every enrollee shows the placebo-level shift
        y_lead = batch.y_base[:, None] + beta_p + leadin_rng.normal(0.0, gen.noise_sd, size=(n, 3))
        keep = np.flatnonzero(_nonresponder_mask(y_lead, batch.y_base, c_s0))[: n - kept_count]
        kept.append(batch.take(keep))
        kept_count += len(keep)
        if kept_count == n:
            return ContinuousFrame.concat(kept)
    raise DegenerateResultError(
        f"lead-in produced too few placebo nonresponders for stage 1: {kept_count} of {n} "
        f"after _LEADIN_MAX_BATCHES={_LEADIN_MAX_BATCHES} batches"
    )


def _continuous_trial_cohort(
    cfg: ScenarioConfig, seed, sed: bool
) -> tuple[Cohort, np.random.Generator]:
    gen = cfg.generator
    (
        patients_seed,
        leadin_seed,
        s1_assign_seed,
        s1_outcome_seed,
        s2_assign_seed,
        s2_outcome_seed,
        analysis_seed,
    ) = _as_seedseq(seed).spawn(7)

    patients_rng = np.random.default_rng(patients_seed)
    n = cfg.n_total

    if sed:
        frame = _leadin_frame(gen, cfg.cutoffs.c_s0, n, patients_rng,
                              np.random.default_rng(leadin_seed))
    else:
        frame = draw_continuous_patients(gen, patients_rng, n)

    s1_arm = _assign_arms(np.random.default_rng(s1_assign_seed), n, 0.5)
    y1 = draw_continuous_response(
        gen, frame, s1_arm == 1, np.random.default_rng(s1_outcome_seed)
    )
    stages = [(frame, s1_arm, y1)]

    if sed:
        drug_idx = np.where(s1_arm == 1)[0]
        responders = drug_idx[
            ~_nonresponder_mask(y1[drug_idx], frame.y_base[drug_idx], cfg.cutoffs.c_s1)
        ]
        if len(responders) >= 2:
            sub = frame.take(responders)
            s2_arm = _assign_arms(np.random.default_rng(s2_assign_seed), len(responders), 0.5)
            y2 = draw_continuous_response(
                gen, sub, s2_arm == 1, np.random.default_rng(s2_outcome_seed)
            )
            stages.append((sub, s2_arm, y2))
        # fewer than two responders: the stage-2 stratum is dropped entirely

    return continuous_cohort(stages), np.random.default_rng(analysis_seed)


def trial_cohort(cfg: ScenarioConfig, seed) -> tuple[Cohort, np.random.Generator]:
    """The cohort one trial of ``cfg.design`` analyses, and the generator its analyses draw from.

    ``parallel`` is one randomized stage of ``n_total`` patients; on the
    continuous family it is complete randomization, the same as ``cr``.
    ``sed`` is the two-stage enriched design with a placebo lead-in:

    1. Patients are enrolled into a placebo lead-in until ``n_total``
       observed placebo nonresponders (every component ratio above c_s0)
       are available; observed responders are excluded.
    2. Stage 1 randomizes the kept patients 1:1 drug/placebo.
    3. Stage-1 drug patients who respond (not every component ratio above
       c_s1) are re-randomized 1:1 in stage 2 with fresh outcome draws.
    4. All stage-1 and stage-2 comparisons are analyzed jointly with stage
       as an extra stratum layer.

    With c_s0 = -inf and c_s1 = -inf the lead-in keeps everyone and stage 2
    is empty, so the analysis coincides with ``cr`` on the same seed: that
    degeneracy is the regression anchor for the seeding scheme.
    """
    if cfg.outcome_family == "continuous":
        return _continuous_trial_cohort(cfg, seed, sed=cfg.design == "sed")
    gen_seed, analysis_seed = _as_seedseq(seed).spawn(2)
    rng = np.random.default_rng(gen_seed)
    if cfg.outcome_family == "survival":
        cohort = gen_survival_cohort(cfg.generator, rng)
    else:
        cohort = gen_binary_cohort(cfg.generator, rng)
    return cohort, np.random.default_rng(analysis_seed)


def run_trial(cfg: ScenarioConfig, seed) -> dict[str, TrialRecord]:
    """One simulated trial: each analysis's record on the cohort of ``trial_cohort``."""
    return _run_analyses(cfg, *trial_cohort(cfg, seed))


# ---------------------------------------------------------------------------
# Monte Carlo engine


def _rep_worker(args):
    cfg, seedseq = args
    try:
        return run_trial(cfg, seedseq)
    except DegenerateResultError as err:
        return {a: _degenerate(a, err) for a in cfg.analyses}


def monte_carlo(cfg: ScenarioConfig, n_jobs: int = 1) -> dict[str, McSummary]:
    """Run ``cfg.reps`` independent trials and aggregate per analysis.

    Rejection rates count p < alpha among non-degenerate replicates; mean
    estimates and CI endpoints average the replicates where they are
    finite.  The summary is a pure function of the config (including
    master_seed) regardless of ``n_jobs``.
    """
    seeds = np.random.SeedSequence(cfg.master_seed).spawn(cfg.reps)
    args = [(cfg, s) for s in seeds]
    if n_jobs > 1:
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            all_records = list(pool.map(_rep_worker, args, chunksize=max(1, cfg.reps // (4 * n_jobs))))
    else:
        all_records = [_rep_worker(a) for a in args]

    out = {}
    for analysis in cfg.analyses:
        recs = [r[analysis] for r in all_records]
        used = [r for r in recs if not r.degenerate]
        n_deg = len(recs) - len(used)
        if not used:
            raise DegenerateResultError(f"every replicate was degenerate for {analysis}")
        rejections = sum(1 for r in used if r.p_value < cfg.alpha)
        estimates = [r.estimate for r in used if math.isfinite(r.estimate)]
        ci_l = [r.ci_low for r in used if math.isfinite(r.ci_low)]
        ci_h = [r.ci_high for r in used if math.isfinite(r.ci_high)]
        out[analysis] = McSummary(
            rejection_rate=rejections / len(used),
            mean_estimate=float(np.mean(estimates)) if estimates else float("nan"),
            mean_ci=(
                float(np.mean(ci_l)) if ci_l else float("nan"),
                float(np.mean(ci_h)) if ci_h else float("nan"),
            ),
            reps_used=len(used),
            degenerate_count=n_deg,
        )
    return out


# ---------------------------------------------------------------------------
# JSON configuration


_INF_SENTINELS = {"inf": math.inf, "+inf": math.inf, "-inf": -math.inf}

_JSON_KINDS = {str: (str, "a JSON string"), int: (int, "a JSON integer"),
               float: ((int, float), "a JSON number")}


def _value(hint, v, key: str, sentinels: bool):
    """The JSON value ``v`` of the field ``key`` annotated ``hint``; a ConfigError names the key."""
    if hint is object:  # the generator, read once the family is known
        return v
    if is_dataclass(hint):
        return hint(**_kwargs(hint, v, key, {}))
    if get_origin(hint) is tuple:
        args = get_args(hint)
        size = None if args[-1] is ... else len(args)
        if not isinstance(v, list) or size not in (None, len(v)):
            of = f" of {size}" if size else ""
            raise ConfigError(f"{key} must be a JSON array{of}, got {v!r}")
        return tuple(_value(args[0], x, f"{key}[{i}]", sentinels) for i, x in enumerate(v))
    if sentinels and isinstance(v, str) and v in _INF_SENTINELS:
        return _INF_SENTINELS[v]
    types, kind = _JSON_KINDS[hint]
    if not isinstance(v, types) or isinstance(v, bool):
        raise ConfigError(f"{key} must be {kind}, got {v!r}")
    if hint is float:
        try:
            return float(v)
        except OverflowError:  # an integer beyond the float range
            raise ConfigError(f"{key} is too large for a float") from None
    return v


def _kwargs(cls, d, path: str, derived: dict) -> dict:
    """Keyword arguments of dataclass ``cls`` read from the JSON object ``d`` at ``path``.

    A field without a default is required unless ``derived`` gives it.
    """
    context = path or "scenario"
    if not isinstance(d, dict):
        raise ConfigError(f"{context} must be a JSON object, got {d!r}")
    known = {f.name: f for f in fields(cls)}
    unknown = set(d) - set(known)
    if unknown:
        raise ConfigError(f"unknown {context} keys: {sorted(unknown)}")
    missing = {name for name, f in known.items()
               if f.default is MISSING and f.default_factory is MISSING} - set(d) - set(derived)
    if missing:
        raise ConfigError(f"missing {context} keys: {sorted(missing)}")
    hints = get_type_hints(cls)
    return {**derived, **{k: _value(hints[k], v, f"{path}.{k}" if path else k, cls is Cutoffs)
                          for k, v in d.items()}}


def scenario_from_dict(d: dict) -> ScenarioConfig:
    """Build a ScenarioConfig from a plain dict (e.g. a parsed JSON file).

    Keys mirror the fields of ``ScenarioConfig``, of the family's generator
    config, of ``Cutoffs`` and of ``SubpopMix``; numbers must be JSON numbers
    (integers where the field is an ``int``).  The generator's cohort size
    (``n``, or ``n1``/``n0`` for binary) defaults to what ``n_total`` implies.
    Cutoffs accept the strings "inf" and "-inf" as sentinels.
    """
    kw = _kwargs(ScenarioConfig, d, "", {})
    family, n = kw["outcome_family"], kw["n_total"]
    if family not in _FAMILY_GENERATORS:
        raise ConfigError(f"unknown outcome family {family!r}")
    gen_type = _FAMILY_GENERATORS[family]
    sizes = {"n1": n // 2, "n0": n - n // 2} if gen_type is BinaryGenConfig else {"n": n}
    kw["generator"] = gen_type(**_kwargs(gen_type, kw["generator"], "generator", sizes))
    return ScenarioConfig(**kw)
