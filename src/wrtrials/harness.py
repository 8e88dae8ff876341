"""The trial runner (parallel, CR and SED designs), the Monte Carlo engine, and configs.

A trial is ``trial_cohort``, which draws the cohort of ``cfg.design`` from
the ``datagen`` generators, then ``_run_analyses`` on that cohort:
``run_trial`` is the two in turn, and ``wrtrials gen`` writes the first.
``_FAMILIES`` holds, per outcome family, its generator config, designs,
analyses, the rule that scores its pairs, the draw of a trial's cohort, its
arm sizes, its O'Brien endpoint, a binary generator's default arms, and the
win priorities its rule reads, and whether it reads the cutoffs.
Replications are independent: replicate i's seed is the master seed's i-th
child (``_streams``), and each trial draws its own streams from that seed the
same way, so results are identical whether reps run on one worker or many.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, field, fields, asdict, is_dataclass
from typing import Callable, NamedTuple, get_args, get_origin, get_type_hints

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
    arm_sizes,
)
from .wr_tests import (
    BinaryRule,
    ContinuousRule,
    SurvivalRule,
    fs_unmatched_test,
    improvement_indicators,
    matched_wr_test,
)

WIN_RATIO = ("MatchedWR", "StratUnmatchedWR", "UnstratUnmatchedWR")
ANALYSES = WIN_RATIO + ("Cox", "Obrien", "Contingency")


class _Family(NamedTuple):
    """What one outcome family allows, how a trial draws it, and how it is scored.

    Its callables look up this module's functions when called, so a replaced one runs.
    """

    generator: type
    designs: tuple[str, ...]
    analyses: tuple[str, ...]
    rule: Callable[[ScenarioConfig], object]
    cohort: Callable[[ScenarioConfig, object], tuple[Cohort, np.random.Generator]]  # (cfg, seed)
    arms: Callable[[ScenarioConfig], tuple[int, int]]  # a trial's (treated, control) sizes
    obrien: Callable[[Cohort], object] | None = None  # the O'Brien test of a cohort
    sizes: Callable[[int], dict] = lambda n: {}  # the generator's size fields that n_total implies
    priorities: tuple[str, ...] = ("death",)  # the win_priority values its rule reads
    reads_cutoffs: bool = False  # whether its rule or designs read cfg.cutoffs


_FAMILIES = {
    "survival": _Family(SurvivalGenConfig, ("parallel",), WIN_RATIO + ("Cox", "Obrien"),
                        lambda cfg: SurvivalRule(cfg.win_priority),
                        lambda cfg, seed: _one_stream_cohort(cfg, seed, gen_survival_cohort, cfg.n_total),
                        lambda cfg: arm_sizes(cfg.n_total, cfg.generator.allocation),
                        lambda cohort: obrien_first_event(cohort), priorities=("death", "hosp")),
    "binary": _Family(BinaryGenConfig, ("parallel",), WIN_RATIO, lambda cfg: BinaryRule(),
                      lambda cfg, seed: _one_stream_cohort(cfg, seed, gen_binary_cohort),
                      lambda cfg: (cfg.generator.n1, cfg.generator.n0),
                      sizes=lambda n: dict(zip(("n1", "n0"), arm_sizes(n, 0.5)))),
    "continuous": _Family(ContinuousGenConfig, ("parallel", "cr", "sed"),
                          WIN_RATIO + ("Obrien", "Contingency"),
                          lambda cfg: ContinuousRule(cfg.cutoffs.c_t),
                          lambda cfg, seed: _continuous_trial_cohort(cfg, seed),
                          lambda cfg: arm_sizes(cfg.n_total, 0.5),
                          lambda cohort: obrien_test(-cohort.y, cohort.arm),  # shorter is better
                          reads_cutoffs=True),
}


def _family(name: str) -> _Family:
    if name not in _FAMILIES:
        raise ConfigError(f"unknown outcome family {name!r}")
    return _FAMILIES[name]


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

    @staticmethod
    def _check_n_total(n_total: int) -> None:
        # arm_sizes floors n_total * allocation in float64, which is exact in n_total up to 2**53
        if not 4 <= n_total <= 2**53:
            raise ConfigError("n_total must lie in [4, 2**53]")

    def __post_init__(self):
        spec = _family(self.outcome_family)
        if not isinstance(self.generator, spec.generator):
            raise ConfigError(f"a {self.outcome_family} scenario needs a {spec.generator.__name__}")
        if self.design not in spec.designs:
            raise ConfigError(
                f"design {self.design!r} is not available for the {self.outcome_family} family"
            )
        for a in self.analyses:
            if a not in ANALYSES:
                raise ConfigError(f"unknown analysis {a!r}")
            if a not in spec.analyses:
                raise ConfigError(f"analysis {a!r} is incompatible with {self.outcome_family}")
            if self.analyses.count(a) > 1:
                raise ConfigError(f"analysis {a!r} is listed more than once")
        if not self.analyses:
            raise ConfigError("at least one analysis is required")
        self._check_n_total(self.n_total)
        if not (0.0 < self.alpha <= 1.0):
            raise ConfigError("alpha must lie in (0, 1]")
        if self.reps < 1:
            raise ConfigError("reps must be positive")
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be non-negative, got {self.master_seed}")
        if self.win_priority not in spec.priorities:
            raise ConfigError(f"win_priority of the {self.outcome_family} family must be one of "
                              f"{spec.priorities}, got {self.win_priority!r}")
        if not spec.reads_cutoffs and self.cutoffs != Cutoffs():
            raise ConfigError(f"the {self.outcome_family} family reads no cutoffs, "
                              f"got {self.cutoffs}")
        treated, control = spec.arms(self)
        if treated + control != self.n_total:
            raise ConfigError(f"generator arm sizes {treated} + {control} must sum to n_total={self.n_total}")
        if treated == 0:
            raise ConfigError(f"{self.generator} leaves the treatment arm of {self.n_total} patients empty")
        if "Obrien" in self.analyses and min(treated, control) < 2:
            raise ConfigError(f"Obrien needs two patients per arm, and {treated} "
                              f"of {self.n_total} are treated")


@dataclass(frozen=True)
class TrialRecord:
    """One analysis outcome inside one simulated trial; its analysis is its key in ``run_trial``."""

    estimate: float = math.nan
    ci_low: float = math.nan
    ci_high: float = math.nan
    z: float = math.nan
    p_value: float = math.nan
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


def _uint32_words(x) -> list[int]:
    """The 32-bit words ``SeedSequence`` mixes for the entropy or spawn key ``x``.

    An int is its little-endian words (0 is one word), a uint32 array its
    elements, and a sequence the words of its items in turn.
    """
    if isinstance(x, np.ndarray) and x.dtype == np.uint32:
        return x.tolist()
    if isinstance(x, (int, np.integer)):
        x = int(x)
        words = [x & 0xFFFFFFFF]
        while x := x >> 32:
            words.append(x & 0xFFFFFFFF)
        return words
    return [w for item in x for w in _uint32_words(item)]


def _streams(seed, n: int) -> list[np.random.SeedSequence]:
    """The first n children of ``seed`` (a SeedSequence or its entropy), whatever it has spawned.

    They equal the children ``SeedSequence.spawn`` gives on a fresh seed, in
    every state they generate and in their own children, but leave ``seed`` as
    it was, so the same seed gives the same trial on every call.  A child's
    pool is a mix of the seed's entropy words, zero-padded to the pool size,
    then its spawn key's words; child i is built from those words and i's as
    its entropy, which skips numpy's word-by-word coercion of a spawn key.
    Its ``entropy`` and ``spawn_key`` therefore differ from a spawned child's.
    """
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    words = _uint32_words(seed.entropy)
    words += [0] * (seed.pool_size - len(words)) + _uint32_words(seed.spawn_key)
    # a child index below 2**32 is one word; a larger one fails to convert
    return [np.random.SeedSequence(np.array(words + [i], dtype=np.uint32), pool_size=seed.pool_size)
            for i in range(n)]


# ---------------------------------------------------------------------------
# analysis dispatch


def _wr_record(result) -> TrialRecord:
    return TrialRecord(
        estimate=result.r_w,
        ci_low=result.ci_low,
        ci_high=result.ci_high,
        z=result.z,
        p_value=result.p_value,
        note=f"dropped_strata={result.dropped_strata}" if result.dropped_strata else "",
    )


def _analysis_record(analysis: str, cfg: ScenarioConfig, cohort: Cohort, rule,
                     rng: np.random.Generator) -> TrialRecord:
    """The record of one analysis of ``cohort``; a degenerate fit raises DegenerateResultError."""
    if analysis == "MatchedWR":
        pairing = form_matched_pairs(cohort, rng)
        return _wr_record(matched_wr_test(cohort, pairing.pairs, rule))
    if analysis in ("StratUnmatchedWR", "UnstratUnmatchedWR"):
        res = fs_unmatched_test(cohort, rule, stratified=analysis == "StratUnmatchedWR")
        return _wr_record(res)
    if analysis == "Cox":
        res = cox_fit(cohort)
        return TrialRecord(res.hr, res.ci_low, res.ci_high, res.z, res.p_value)
    if analysis == "Obrien":
        res = _FAMILIES[cfg.outcome_family].obrien(cohort)
        return TrialRecord(z=res.f_stat, p_value=res.p_value)
    # Contingency: first-stage comparisons only, one record per patient: the
    # plain 2x2 Wald test has no stratum structure, and pooling records across
    # stages either duplicates patients or confounds arm with stage composition
    first = cohort.stage == 0
    ind = improvement_indicators(cohort, cfg.cutoffs.c_t)
    improved = (ind[:, 0] | ind[:, 1] | ind[:, 2])[first]
    arms = cohort.arm[first]
    res = contingency_or_test(improved[arms == 1], improved[arms == 0])
    return TrialRecord(res.or_hat, z=res.z, p_value=res.p_value,
                       note="haldane" if res.corrected else "")


def _run_analyses(cfg: ScenarioConfig, cohort: Cohort, rng: np.random.Generator):
    rule = _FAMILIES[cfg.outcome_family].rule(cfg)
    records = {}
    for analysis in cfg.analyses:
        try:
            records[analysis] = _analysis_record(analysis, cfg, cohort, rule, rng)
        except DegenerateResultError as err:
            records[analysis] = TrialRecord(degenerate=True, note=str(err))
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


def _one_stream_cohort(cfg: ScenarioConfig, seed, draw, *size) -> tuple[Cohort, np.random.Generator]:
    """``draw(cfg.generator, rng, *size)`` on the first of two streams; the second is the analyses'."""
    gen_seed, analysis_seed = _streams(seed, 2)
    return draw(cfg.generator, np.random.default_rng(gen_seed), *size), np.random.default_rng(analysis_seed)


def _stage(gen: ContinuousGenConfig, frame: ContinuousFrame, assign_seed, outcome_seed):
    """One stage as (patients, arms, outcomes): 1:1 arms from one stream, outcomes from the other."""
    arm = _assign_arms(np.random.default_rng(assign_seed), len(frame.y_base), 0.5)
    return frame, arm, draw_continuous_response(gen, frame, arm == 1, np.random.default_rng(outcome_seed))


def _continuous_trial_cohort(cfg: ScenarioConfig, seed) -> tuple[Cohort, np.random.Generator]:
    gen = cfg.generator
    # each stage's (assignment, outcome) seeds, stage 1's then stage 2's
    patients_seed, leadin_seed, *stage_seeds, analysis_seed = _streams(seed, 7)

    patients_rng = np.random.default_rng(patients_seed)
    n = cfg.n_total

    if cfg.design == "sed":
        frame = _leadin_frame(gen, cfg.cutoffs.c_s0, n, patients_rng,
                              np.random.default_rng(leadin_seed))
    else:
        frame = draw_continuous_patients(gen, patients_rng, n)

    stages = [_stage(gen, frame, *stage_seeds[:2])]

    if cfg.design == "sed":
        _, s1_arm, y1 = stages[0]
        drug_idx = np.where(s1_arm == 1)[0]
        responders = drug_idx[
            ~_nonresponder_mask(y1[drug_idx], frame.y_base[drug_idx], cfg.cutoffs.c_s1)
        ]
        if len(responders) >= 2:
            stages.append(_stage(gen, frame.take(responders), *stage_seeds[2:]))
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

    ``seed`` (a SeedSequence or an int) is read, not spawned from, so the
    same seed gives the same cohort and the same analysis stream on every call.
    """
    return _FAMILIES[cfg.outcome_family].cohort(cfg, seed)


def run_trial(cfg: ScenarioConfig, seed) -> dict[str, TrialRecord]:
    """One simulated trial: each analysis's record on the cohort of ``trial_cohort``.

    An SED lead-in that reaches ``_LEADIN_MAX_BATCHES`` leaves no cohort: every
    analysis then gets a degenerate record whose note gives the nonresponders found.
    """
    try:
        cohort, rng = trial_cohort(cfg, seed)
    except DegenerateResultError as err:
        return dict.fromkeys(cfg.analyses, TrialRecord(degenerate=True, note=str(err)))
    return _run_analyses(cfg, cohort, rng)


# ---------------------------------------------------------------------------
# Monte Carlo engine


def _finite_mean(values) -> float:
    """The mean of the finite values, NaN if there are none."""
    finite = [v for v in values if math.isfinite(v)]
    return float(np.mean(finite)) if finite else math.nan


def monte_carlo(cfg: ScenarioConfig, n_jobs: int = 1) -> dict[str, McSummary]:
    """Run ``cfg.reps`` independent trials and aggregate per analysis.

    Every non-degenerate replicate counts in ``reps_used`` and the rejection
    rate (the share with p < alpha).  ``mean_estimate`` and each end of
    ``mean_ci`` average the replicates where that value is finite, NaN if
    none is.  The summary is a pure function of the config (including
    master_seed) regardless of ``n_jobs``.  At most one worker process runs
    per CPU and per replicate; ``n_jobs`` below 1 is a ``ConfigError``.
    """
    if n_jobs < 1:
        raise ConfigError(f"n_jobs must be at least 1, got {n_jobs}")
    seeds = _streams(cfg.master_seed, cfg.reps)
    workers = min(n_jobs, cfg.reps, os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            all_records = list(pool.map(run_trial, [cfg] * cfg.reps, seeds,
                                        chunksize=max(1, cfg.reps // (4 * workers))))
    else:
        all_records = [run_trial(cfg, s) for s in seeds]

    out = {}
    for analysis in cfg.analyses:
        used = [r[analysis] for r in all_records if not r[analysis].degenerate]
        if not used:
            raise DegenerateResultError(f"every replicate was degenerate for {analysis}")
        rejections = sum(1 for r in used if r.p_value < cfg.alpha)
        out[analysis] = McSummary(
            rejection_rate=rejections / len(used),
            mean_estimate=_finite_mean(r.estimate for r in used),
            mean_ci=(_finite_mean(r.ci_low for r in used), _finite_mean(r.ci_high for r in used)),
            reps_used=len(used),
            degenerate_count=len(all_records) - len(used),
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
    (integers where the field is an ``int``).  ``n_total`` is the cohort size;
    only a binary generator states its arms, and its ``n1``/``n0`` default to
    an even split of ``n_total``.  Cutoffs accept the strings "inf" and "-inf"
    as sentinels.
    """
    kw = _kwargs(ScenarioConfig, d, "", {})
    spec = _family(kw["outcome_family"])
    ScenarioConfig._check_n_total(kw["n_total"])  # before the binary default split reads it
    sizes = spec.sizes(kw["n_total"])
    kw["generator"] = spec.generator(**_kwargs(spec.generator, kw["generator"], "generator", sizes))
    return ScenarioConfig(**kw)
