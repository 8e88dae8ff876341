"""The trial runner (parallel, CR and SED designs), the Monte Carlo engine, and configs.

A trial is ``trial_cohort``, which draws the cohort of ``cfg.design`` from
the ``datagen`` generators, then ``_run_analyses`` on that cohort:
``run_trial`` is the two in turn, and ``wrtrials gen`` writes the first.
``_FAMILIES`` holds, per outcome family, its generator config, designs,
analyses, the rule that scores its pairs, the draw of a trial's cohort, its
arm sizes, its O'Brien endpoint, a binary generator's default arms, and the
win priorities its rule reads, whether it reads the cutoffs, and how many
streams a trial draws.
Replications are independent: replicate i's streams are the children of the
master seed's i-th child that ``SeedSequence.spawn`` gives, so results are
identical whether reps run on one worker or many, and ``run_trial(cfg, i)``
is replicate i of ``monte_carlo(cfg)``.  ``_replicate_states`` computes
their PCG64 states, equal to the spawned children's, for one replicate or a
whole run at once, and ``_rng`` seeds a stream's generator from its row.
"""

from __future__ import annotations

import functools
import math
import operator
import os
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
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
    _RawWords,
    _assign_arms,
    _doubles,
    _pattern_codes,
    _patients,
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
    cohort: Callable[[ScenarioConfig, np.ndarray], tuple[Cohort, np.random.Generator]]  # (cfg, states)
    arms: Callable[[ScenarioConfig], tuple[int, int]]  # a trial's (treated, control) sizes
    obrien: Callable[[Cohort], object] | None = None  # the O'Brien test of a cohort
    sizes: Callable[[int], dict] = lambda n: {}  # the generator's size fields that n_total implies
    priorities: tuple[str, ...] = ("death",)  # the win_priority values its rule reads
    reads_cutoffs: bool = False  # whether its rule or designs read cfg.cutoffs
    streams: int = 2  # the streams a trial draws: the rows of its states


_FAMILIES = {
    "survival": _Family(SurvivalGenConfig, ("parallel",), WIN_RATIO + ("Cox", "Obrien"),
                        lambda cfg: SurvivalRule(cfg.win_priority),
                        lambda cfg, states: _one_stream_cohort(cfg, states, gen_survival_cohort, cfg.n_total),
                        lambda cfg: arm_sizes(cfg.n_total, cfg.generator.allocation),
                        lambda cohort: obrien_first_event(cohort), priorities=("death", "hosp")),
    "binary": _Family(BinaryGenConfig, ("parallel",), WIN_RATIO, lambda cfg: BinaryRule(),
                      lambda cfg, states: _one_stream_cohort(cfg, states, gen_binary_cohort),
                      lambda cfg: (cfg.generator.n1, cfg.generator.n0),
                      sizes=lambda n: dict(zip(("n1", "n0"), arm_sizes(n, 0.5)))),
    "continuous": _Family(ContinuousGenConfig, ("parallel", "cr", "sed"),
                          WIN_RATIO + ("Obrien", "Contingency"),
                          lambda cfg: ContinuousRule(cfg.cutoffs.c_t),
                          lambda cfg, states: _continuous_trial_cohort(cfg, states),
                          lambda cfg: arm_sizes(cfg.n_total, 0.5),
                          lambda cohort: obrien_test(-cohort.y, cohort.arm),  # shorter is better
                          reads_cutoffs=True, streams=7),
}


def _integer(name: str, value) -> int:
    """``value`` as a Python int; a bool, a float or another non-integer is a ConfigError."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return operator.index(value)
    raise ConfigError(f"{name} must be an integer, got {value!r}")


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
        for name in ("n_total", "reps", "master_seed"):  # np.int64 lacks int.bit_length
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
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


class TrialRecord(NamedTuple):
    """One analysis outcome inside one simulated trial; its analysis is its key in ``run_trial``."""

    estimate: float = math.nan
    ci_low: float = math.nan
    ci_high: float = math.nan
    z: float = math.nan
    p_value: float = math.nan
    degenerate: bool = False
    note: str = ""


class McSummary(NamedTuple):
    rejection_rate: float
    mean_estimate: float
    mean_ci: tuple[float, float]
    reps_used: int
    degenerate_count: int

    def to_dict(self) -> dict:
        return self._asdict()


# numpy's SeedSequence hash (bit_generator.pyx, after O'Neill's seed_seq)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # the multipliers of mix_entropy's hashes
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # and of generate_state's
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _multipliers(init: int, mult: int):
    """The (xor, multiplier) pairs of successive hashes: init * mult**n and its successor."""
    while True:
        nxt = init * mult & _MASK32
        yield init, nxt
        init = nxt


def _hashmix(value, xor, mult):
    """One word's hash; ``value`` is a Python int or a uint64 array of 32-bit values."""
    value = (value ^ xor) * mult & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    result = (_MIX_L * x - _MIX_R * y) & _MASK32
    return result ^ result >> 16


def _replicate_states(cfg: ScenarioConfig, index) -> np.ndarray:
    """The PCG64 seeds of the streams of replicate ``index`` of ``monte_carlo(cfg)``.

    An int ``index`` gives one (streams, 4) row, and an array of them a row
    each.  Stream j of replicate i is the j-th child that ``SeedSequence.spawn``
    gives from the i-th child of the master seed (pool size 4), and its row is
    the child's ``generate_state(4, np.uint64)``, from which ``default_rng``
    seeds PCG64.  The master seed's words are hashed once in Python ints; the
    replicate index, which must lie below 2**32 to be one word of a spawn key,
    and then the stream index are mixed into every pool as one broadcast array
    operation.
    """
    seed = cfg.master_seed
    words = [seed >> 32 * i & _MASK32 for i in range(max(4, -(-seed.bit_length() // 32)))]
    hashes = _multipliers(_INIT_A, _MULT_A)
    pool = [_hashmix(w, *next(hashes)) for w in words[:4]]
    for src in range(4):  # every word into every other, reading the pool as it changes
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], *next(hashes)))
    for w in words[4:]:
        pool = [_mix(p, _hashmix(w, *next(hashes))) for p in pool]
    pool = np.array(pool, dtype=np.uint64)
    streams = np.arange(_FAMILIES[cfg.outcome_family].streams, dtype=np.uint64)[:, None]
    for word in (np.asarray(index, dtype=np.uint64)[..., None, None], streams):
        xor, mult = np.array([next(hashes) for _ in range(4)], dtype=np.uint64).T
        pool = _mix(pool, _hashmix(word, xor, mult))
    # generate_state's eight 32-bit words cycle through the pool; pairs are little-endian uint64s
    hashes = _multipliers(_INIT_B, _MULT_B)
    xor, mult = np.array([next(hashes) for _ in range(8)], dtype=np.uint64).T
    state = _hashmix(pool.take([0, 1, 2, 3] * 2, axis=-1), xor, mult)
    return state[..., 0::2] | state[..., 1::2] << 32  # C-contiguous, as PCG64 reads it


@functools.cache
def _seed_words() -> type:
    """An ``ISeedSequence`` that hands PCG64 its given state words.

    Built on first use: importing ``numpy.random`` adds about 6 MiB to a
    process, and ``import wrtrials`` does not load it.
    """
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words  # PCG64 asks for 4 uint64 words and reads them in place

    return SeedWords


def _rng(state: np.ndarray) -> np.random.Generator:
    """The generator of one stream, from its row of states: ``default_rng`` of its SeedSequence."""
    return np.random.Generator(np.random.PCG64(_seed_words()(state)))


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
_LEADIN_READ_AHEAD = 4  # raw words the lead-in reads ahead per enrollee of a batch


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
    at most ``_LEADIN_MAX_BATCHES`` batches.  The draws and their order are
    those of the RNG contract in the ``datagen`` module docstring, a batch's
    patients those ``draw_continuous_patients`` gives.  The patients stream,
    a PCG64, is read as one run of raw words (``datagen._RawWords``),
    ``_LEADIN_READ_AHEAD * n`` at a time, and the words read but not used are
    given back on return or at the cap.  A batch is carried as its pattern
    codes; only its kept rows' codes and class-uniform words are kept, and the
    frame is built once from them, a class uniform being (word >> 11) * 2**-53.
    """
    baseline = np.array(gen.baselines)
    redraw = ~(baseline > 0)
    beta_p = np.asarray(gen.beta_p, dtype=float)
    codes, class_words = [], []  # per batch, its kept rows'
    kept_count = 0
    with _RawWords(patients_rng, ahead=_LEADIN_READ_AHEAD * n) as words:
        for _ in range(_LEADIN_MAX_BATCHES):
            code = _pattern_codes(redraw, words.coin_bits, n)
            batch_words = words.take(n)
            y_base = baseline[code]
            # the placebo outcome: every enrollee shows the placebo-level shift
            y_lead = y_base[:, None] + beta_p + leadin_rng.normal(0.0, gen.noise_sd, size=(n, 3))
            keep = _nonresponder_mask(y_lead, y_base, c_s0).nonzero()[0][: n - kept_count]
            codes.append(code[keep])
            class_words.append(batch_words[keep])
            kept_count += len(keep)
            if kept_count == n:
                return _patients(gen, np.concatenate(codes), _doubles(np.concatenate(class_words)))
    raise DegenerateResultError(
        f"lead-in produced too few placebo nonresponders for stage 1: {kept_count} of {n} "
        f"after _LEADIN_MAX_BATCHES={_LEADIN_MAX_BATCHES} batches"
    )


def _one_stream_cohort(cfg: ScenarioConfig, states, draw, *size) -> tuple[Cohort, np.random.Generator]:
    """``draw(cfg.generator, rng, *size)`` on the first of two streams; the second is the analyses'."""
    return draw(cfg.generator, _rng(states[0]), *size), _rng(states[1])


def _stage(gen: ContinuousGenConfig, frame: ContinuousFrame, assign_state, outcome_state):
    """One stage as (patients, arms, outcomes): 1:1 arms from one stream, outcomes from the other."""
    arm = _assign_arms(_rng(assign_state), len(frame.y_base), 0.5)
    return frame, arm, draw_continuous_response(gen, frame, arm == 1, _rng(outcome_state))


def _continuous_trial_cohort(cfg: ScenarioConfig, states) -> tuple[Cohort, np.random.Generator]:
    gen = cfg.generator
    # each stage's (assignment, outcome) states, stage 1's then stage 2's
    patients_state, leadin_state, *stage_states, analysis_state = states

    patients_rng = _rng(patients_state)
    n = cfg.n_total

    if cfg.design == "sed":
        frame = _leadin_frame(gen, cfg.cutoffs.c_s0, n, patients_rng, _rng(leadin_state))
    else:
        frame = draw_continuous_patients(gen, patients_rng, n)

    stages = [_stage(gen, frame, *stage_states[:2])]

    if cfg.design == "sed":
        _, s1_arm, y1 = stages[0]
        drug_idx = (s1_arm == 1).nonzero()[0]
        responders = drug_idx[
            ~_nonresponder_mask(y1[drug_idx], frame.y_base[drug_idx], cfg.cutoffs.c_s1)
        ]
        if len(responders) >= 2:
            stages.append(_stage(gen, frame.take(responders), *stage_states[2:]))
        # fewer than two responders: the stage-2 stratum is dropped entirely

    return continuous_cohort(stages), _rng(analysis_state)


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

    ``seed`` is a replicate index i, which gives replicate i of
    ``monte_carlo(cfg)``, or that replicate's row of ``_replicate_states``.
    An index is an integer in [0, 2**32): a negative or larger one is a
    ValueError, a float a TypeError.
    """
    spec = _FAMILIES[cfg.outcome_family]
    if not isinstance(seed, np.ndarray):
        index = operator.index(seed)
        if not 0 <= index < 2**32:  # a spawn key's word: numpy mixes a larger index as two
            raise ValueError(f"a replicate index must be non-negative and below 2**32, got {index}")
        return spec.cohort(cfg, _replicate_states(cfg, index))
    # PCG64 reads each row's four words in place, unchecked
    if seed.shape != (spec.streams, 4) or seed.dtype != np.uint64 or not seed.flags.c_contiguous:
        raise ValueError(f"a {cfg.outcome_family} trial's states are a C-contiguous uint64 array "
                         f"of shape ({spec.streams}, 4), got {seed.dtype} {seed.shape}")
    return spec.cohort(cfg, seed)


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
    return float(np.array(finite).mean()) if finite else math.nan


def monte_carlo(cfg: ScenarioConfig, n_jobs: int = 1) -> dict[str, McSummary]:
    """Run ``cfg.reps`` independent trials and aggregate per analysis.

    Every non-degenerate replicate counts in ``reps_used`` and the rejection
    rate (the share with p < alpha).  ``mean_estimate`` and each end of
    ``mean_ci`` average the replicates where that value is finite, NaN if
    none is.  The summary is a pure function of the config (including
    master_seed) regardless of ``n_jobs``.  At most one worker process runs
    per CPU and per replicate; ``n_jobs`` below 1 or not an integer is a
    ``ConfigError``.
    """
    if _integer("n_jobs", n_jobs) < 1:
        raise ConfigError(f"n_jobs must be at least 1, got {n_jobs}")
    seeds = _replicate_states(cfg, np.arange(cfg.reps, dtype=np.uint64))
    workers = min(n_jobs, cfg.reps, os.cpu_count() or 1)
    if workers > 1:
        # imported here: concurrent.futures loads multiprocessing and logging (~10 ms),
        # which a serial run never uses
        from concurrent.futures import ProcessPoolExecutor

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
