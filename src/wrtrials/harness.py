"""The trial runner (parallel, CR and SED designs), the Monte Carlo engine, and configs.

Replications are independent: each owns a private generator derived from the
master seed through ``SeedSequence.spawn``, so results are identical whether
reps run on one worker or many.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, asdict

import numpy as np

from .core import Cohort, ConfigError, DegenerateResultError, form_matched_pairs
from .classic_tests import cox_fit, obrien_first_event, obrien_test, contingency_or_test
from .datagen import (
    BinaryGenConfig,
    ContinuousGenConfig,
    ContinuousFrame,
    SubpopMix,
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
    c_t: float = 0.8
    c_s0: float = 0.8
    c_s1: float = 0.9


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
    mix: SubpopMix | None = None

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
        if self.win_priority not in ("death", "hosp"):
            raise ConfigError("win_priority must be 'death' or 'hosp'")
        if self.outcome_family == "continuous" and self.mix is None:
            raise ConfigError("continuous scenarios need a subpopulation mix")
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
    mix: SubpopMix,
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
        batch = draw_continuous_patients(gen, mix, patients_rng, n)
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


def _run_continuous_trial(cfg: ScenarioConfig, seed, sed: bool) -> dict[str, TrialRecord]:
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
        frame = _leadin_frame(gen, cfg.mix, cfg.cutoffs.c_s0, n, patients_rng,
                              np.random.default_rng(leadin_seed))
    else:
        frame = draw_continuous_patients(gen, cfg.mix, patients_rng, n)

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

    cohort = continuous_cohort(stages)
    return _run_analyses(cfg, cohort, np.random.default_rng(analysis_seed))


def run_trial(cfg: ScenarioConfig, seed) -> dict[str, TrialRecord]:
    """One simulated trial of ``cfg.design``: each analysis's record.

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
        return _run_continuous_trial(cfg, seed, sed=cfg.design == "sed")
    gen_seed, analysis_seed = _as_seedseq(seed).spawn(2)
    rng = np.random.default_rng(gen_seed)
    if cfg.outcome_family == "survival":
        cohort = gen_survival_cohort(cfg.generator, rng)
    else:
        cohort = gen_binary_cohort(cfg.generator, rng)
    return _run_analyses(cfg, cohort, np.random.default_rng(analysis_seed))


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


def _take(d: dict, context: str, required: tuple[str, ...], optional: tuple[str, ...] = ()):
    unknown = set(d) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"unknown {context} keys: {sorted(unknown)}")
    missing = set(required) - set(d)
    if missing:
        raise ConfigError(f"missing {context} keys: {sorted(missing)}")


def _parse_cutoff(v) -> float:
    if isinstance(v, str):
        if v in ("inf", "+inf"):
            return math.inf
        if v == "-inf":
            return -math.inf
        raise ConfigError(f"bad cutoff value {v!r}")
    return float(v)


def scenario_from_dict(d: dict) -> ScenarioConfig:
    """Build a ScenarioConfig from a plain dict (e.g. a parsed JSON file).

    Field names mirror the dataclass exactly; unknown keys are rejected.
    Cutoffs accept the strings "inf" and "-inf" as sentinels.
    """
    if not isinstance(d, dict):
        raise ConfigError("scenario config must be a JSON object")
    _take(
        d,
        "scenario",
        ("design", "outcome_family", "generator", "analyses", "n_total", "reps", "master_seed"),
        ("cutoffs", "alpha", "win_priority"),
    )
    family = d["outcome_family"]
    gen_dict = dict(d["generator"]) if isinstance(d["generator"], dict) else None
    if gen_dict is None:
        raise ConfigError("generator must be a JSON object")
    mix = None
    n_total = int(d["n_total"])
    if family == "survival":
        _take(
            gen_dict, "generator",
            (),
            ("beta_t", "beta_in", "beta_dhratio", "beta_cov1", "beta_cov2", "allocation"),
        )
        generator = SurvivalGenConfig(n=n_total, **gen_dict)
    elif family == "binary":
        _take(gen_dict, "generator", ("p_t", "q_t", "p_c", "q_c"), ("n1", "n0"))
        n1 = int(gen_dict.pop("n1", n_total // 2))
        n0 = int(gen_dict.pop("n0", n_total - n_total // 2))
        generator = BinaryGenConfig(n1=n1, n0=n0, **gen_dict)
    elif family == "continuous":
        _take(
            gen_dict, "generator",
            ("mix",),
            ("beta_p", "beta_t1", "beta_in2", "beta_in3", "beta_cov1", "beta_cov2", "noise_sd"),
        )
        mix_dict = gen_dict.pop("mix")
        _take(mix_dict, "mix", ("p1", "p2", "p3", "p4"))
        mix = SubpopMix(**{k: float(v) for k, v in mix_dict.items()})
        if "beta_p" in gen_dict:
            bp = gen_dict["beta_p"]
            if isinstance(bp, (int, float)):
                bp = (bp, bp, bp)
            gen_dict["beta_p"] = tuple(float(v) for v in bp)
        generator = ContinuousGenConfig(n=n_total, **gen_dict)
    else:
        raise ConfigError(f"unknown outcome family {family!r}")

    cut_dict = dict(d.get("cutoffs", {}))
    _take(cut_dict, "cutoffs", (), ("c_t", "c_s0", "c_s1"))
    defaults = Cutoffs()
    cutoffs = Cutoffs(
        c_t=_parse_cutoff(cut_dict.get("c_t", defaults.c_t)),
        c_s0=_parse_cutoff(cut_dict.get("c_s0", defaults.c_s0)),
        c_s1=_parse_cutoff(cut_dict.get("c_s1", defaults.c_s1)),
    )
    return ScenarioConfig(
        design=d["design"],
        outcome_family=family,
        generator=generator,
        analyses=tuple(d["analyses"]),
        n_total=n_total,
        cutoffs=cutoffs,
        alpha=float(d.get("alpha", 0.05)),
        reps=int(d["reps"]),
        master_seed=int(d["master_seed"]),
        win_priority=d.get("win_priority", "death"),
        mix=mix,
    )
