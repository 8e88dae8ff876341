"""In-memory span tracing of wrtrials' public functions, for the traced run.

A wrapper replaces each function at the binding its caller resolves at call
time.  ``harness`` imports the generators, analyses and comparators by name,
so they are wrapped as ``harness`` attributes; ``cox_ph`` looks up
``cox_loglik`` and ``obrien_first_event`` looks up ``obrien_test`` as
``classic_tests`` globals; ``reproduce_table`` resolves
``presets.monte_carlo``.  Counting that costs more than a few dictionary
updates runs in its own ``trace.bookkeeping`` span, so that it is charged to
no layer.
"""

from __future__ import annotations

import pickle
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np
from wrtrials import classic_tests, harness, presets

_MODULES = {"harness": harness, "presets": presets, "classic_tests": classic_tests}

ROOT_SPAN = "bench.round"
BOOKKEEPING = "trace.bookkeeping"

# span name -> per-layer metric that reports its self time per replicate
SELF_TIME_METRICS = {
    ROOT_SPAN: "bench.self_ms",
    BOOKKEEPING: "trace.bookkeeping_ms",
    "presets.reproduce_table": "presets.reproduce_table.self_ms",
    "harness.monte_carlo": "harness.monte_carlo.aggregate_ms",
    "harness.run_trial": "harness.self_ms",
    "datagen.gen_survival_cohort": "datagen.gen_survival_cohort.ms",
    "datagen.gen_binary_cohort": "datagen.gen_binary_cohort.ms",
    "datagen.draw_continuous_patients": "datagen.draw_continuous_patients.ms",
    "datagen.draw_continuous_response": "datagen.draw_continuous_response.ms",
    "core.form_matched_pairs": "core.form_matched_pairs.ms",
    "wr_tests.matched_wr_test": "wr_tests.matched_wr_test.ms",
    "wr_tests.fs_unmatched_test.strat": "wr_tests.fs_unmatched_test.strat.ms",
    "wr_tests.fs_unmatched_test.unstrat": "wr_tests.fs_unmatched_test.unstrat.ms",
    "classic_tests.cox_fit": "classic_tests.cox_fit.ms",
    "classic_tests.obrien_test": "classic_tests.obrien_test.ms",
    "classic_tests.contingency_or_test": "classic_tests.contingency_or_test.ms",
}


class Tracer:
    """Spans as [name, start, end, parent index or -1], plus named counts."""

    def __init__(self, measure_memory: bool = False):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.fired: set[str] = set()
        self.measure_memory = measure_memory
        self.fs_peak_bytes = 0
        self._cfg = None

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        self.spans[idx][1] = perf_counter()
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    # -- wrappers ----------------------------------------------------------

    def _spanned(self, key, fn, name, after=None):
        def wrapper(*args, **kwargs):
            self.fired.add(key)
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                idx = self.open(BOOKKEEPING)
                after(args, result)
                self.close(idx)
            return result

        return wrapper

    def _counted(self, key, fn):
        def wrapper(*args, **kwargs):
            self.fired.add(key)
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _run_trial(self, key, fn):
        def wrapper(cfg, seed):
            self.fired.add(key)
            self._cfg = cfg
            self.counts["trials"] += 1
            if cfg.design == "sed":
                self.counts["sed_trials"] += 1
            idx = self.open("harness.run_trial")
            try:
                result = fn(cfg, seed)
            finally:
                self.close(idx)
            if cfg.design == "sed":
                self.counts["sed_kept"] += cfg.n_total
            return result

        return wrapper

    def _fs_unmatched_test(self, key, fn):
        def wrapper(cohort, rule, stratified=True):
            self.fired.add(key)
            idx = self.open("wr_tests.fs_unmatched_test." + ("strat" if stratified else "unstrat"))
            if self.measure_memory:
                tracemalloc.start()
            try:
                result = fn(cohort, rule, stratified=stratified)
            finally:
                if self.measure_memory:
                    self.fs_peak_bytes = max(self.fs_peak_bytes, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                self.close(idx)
            idx = self.open(BOOKKEEPING)
            sizes, arms = Counter(), defaultdict(set)
            for rec in cohort:
                k = rec.stratum if stratified else 0
                sizes[k] += 1
                arms[k].add(rec.arm)
            # the strata the test scores: two or more patients, both arms
            self.counts["fs_calls"] += 1
            self.counts["fs_score_bytes"] += 8 * sum(
                n * n for k, n in sizes.items() if n >= 2 and len(arms[k]) == 2
            )
            self.close(idx)
            return result

        return wrapper

    def _after_monte_carlo(self, args, result):
        cfg = args[0]
        task = (cfg, np.random.SeedSequence(cfg.master_seed).spawn(1)[0])
        self.counts["mc_calls"] += 1
        self.counts["task_bytes"] += len(pickle.dumps(task))
        self.counts["trial_records"] += cfg.reps * len(cfg.analyses)
        self.counts["degenerate_records"] += sum(s.degenerate_count for s in result.values())

    def _after_draw_patients(self, args, frame):
        if self._cfg is not None and self._cfg.design == "sed":
            self.counts["leadin_batches"] += 1
            self.counts["leadin_drawn"] += len(frame.y_base)

    def _after_pairs(self, args, pairing):
        self.counts["pairs"] += len(pairing.pairs)
        self.counts["paired_cohort"] += len(args[0])

    def _after_matched(self, args, result):
        self.counts["matched_calls"] += 1
        self.counts["matched_score_bytes"] += 8 * len(args[1]) ** 2

    def _after_cox(self, args, result):
        self.counts["cox_fits"] += 1
        self.counts["cox_iterations"] += result.iterations

    def _wrapper_for(self, key: str, fn):
        s = self._spanned
        return {
            "presets.reproduce_table": lambda: s(key, fn, "presets.reproduce_table"),
            "presets.monte_carlo": lambda: s(key, fn, "harness.monte_carlo", self._after_monte_carlo),
            "harness.monte_carlo": lambda: s(key, fn, "harness.monte_carlo", self._after_monte_carlo),
            "harness.run_trial": lambda: self._run_trial(key, fn),
            "harness.gen_survival_cohort": lambda: s(key, fn, "datagen.gen_survival_cohort"),
            "harness.gen_binary_cohort": lambda: s(key, fn, "datagen.gen_binary_cohort"),
            "harness.draw_continuous_patients": lambda: s(
                key, fn, "datagen.draw_continuous_patients", self._after_draw_patients),
            "harness.draw_continuous_response": lambda: s(key, fn, "datagen.draw_continuous_response"),
            "harness.form_matched_pairs": lambda: s(key, fn, "core.form_matched_pairs", self._after_pairs),
            "harness.matched_wr_test": lambda: s(key, fn, "wr_tests.matched_wr_test", self._after_matched),
            "harness.fs_unmatched_test": lambda: self._fs_unmatched_test(key, fn),
            "harness.improvement_indicators": lambda: self._counted(key, fn),
            "harness.cox_fit": lambda: s(key, fn, "classic_tests.cox_fit", self._after_cox),
            "classic_tests.cox_loglik": lambda: self._counted(key, fn),
            "harness.obrien_first_event": lambda: s(key, fn, "classic_tests.obrien_test"),
            "classic_tests.obrien_test": lambda: s(key, fn, "classic_tests.obrien_test"),
            "harness.contingency_or_test": lambda: s(key, fn, "classic_tests.contingency_or_test"),
        }[key]()

    @contextmanager
    def installed(self, keys):
        """Wrap each ``module.attribute`` in ``keys``; restore them on exit."""
        saved = []
        try:
            for key in sorted(keys):
                module_name, attr = key.split(".")
                module = _MODULES[module_name]
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrapper_for(key, fn))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)


def span_problems(spans: list[list]) -> list[str]:
    """Spans that do not nest: each must end after it starts and lie inside its parent.

    Spans that nest have non-negative self times that add up to their
    roots' wall time.
    """
    problems = []
    for i, (name, start, end, parent) in enumerate(spans):
        if end < start:
            problems.append(f"span {i} ({name}) ends before it starts")
        elif parent >= 0 and not spans[parent][1] <= start <= end <= spans[parent][2]:
            problems.append(f"span {i} ({name}) lies outside its parent ({spans[parent][0]})")
    return problems


def self_times(spans: list[list]) -> dict[str, float]:
    """Self seconds per span name: a span's duration minus its children's."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, parent) in enumerate(spans):
        out[name] += (end - start) - child[i]
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(counted: Tracer, timed: Tracer, wall: float, traced_rate: float,
                  untraced_rate: float) -> dict:
    """Per-layer metric values.

    Times come from ``timed`` (the timed traced rounds, which took ``wall``
    seconds by their own timers); counts come from ``counted`` (the
    pinned-seed rounds, a fixed amount of work, so every count repeats
    exactly for the same code).
    """
    selfs = self_times(timed.spans)
    unknown = set(selfs) - set(SELF_TIME_METRICS)
    if unknown:
        raise RuntimeError(f"spans without a metric: {sorted(unknown)}")
    trial_ms = [1e3 * (end - start) for name, start, end, _ in timed.spans if name == "harness.run_trial"]
    reps = len(trial_ms)
    m = {metric: 1e3 * selfs.get(name, 0.0) / reps for name, metric in SELF_TIME_METRICS.items()}
    m["trace.wall_ms"] = 1e3 * wall / reps
    m["trace.reps"] = reps
    m["harness.run_trial.p50_ms"] = float(np.percentile(trial_ms, 50))
    m["harness.run_trial.p99_ms"] = float(np.percentile(trial_ms, 99))
    m["trace.overhead"] = traced_rate / untraced_rate

    c = counted.counts
    m["harness.run_trial.calls"] = c["trials"]
    m["datagen.leadin.trials"] = c["sed_trials"]
    m["datagen.leadin_batches_per_trial"] = _ratio(c["leadin_batches"], c["sed_trials"])
    m["datagen.leadin.patients_drawn"] = c["leadin_drawn"]
    m["datagen.leadin_yield"] = _ratio(c["sed_kept"], c["leadin_drawn"])
    m["core.form_matched_pairs.patients"] = c["paired_cohort"]
    m["core.pair_yield"] = _ratio(2 * c["pairs"], c["paired_cohort"])
    m["wr_tests.improvement_indicators.calls_per_trial"] = _ratio(
        c["harness.improvement_indicators"], c["trials"])
    m["classic_tests.cox_fit.calls"] = c["cox_fits"]
    m["classic_tests.cox_fit.iterations"] = _ratio(c["cox_iterations"], c["cox_fits"])
    m["classic_tests.cox_loglik.calls_per_fit"] = _ratio(c["classic_tests.cox_loglik"], c["cox_fits"])
    m["wr_tests.fs_unmatched_test.calls"] = c["fs_calls"]
    m["wr_tests.fs_score_bytes"] = _ratio(c["fs_score_bytes"], c["fs_calls"])
    m["wr_tests.matched_wr_test.calls"] = c["matched_calls"]
    m["wr_tests.matched_score_bytes"] = _ratio(c["matched_score_bytes"], c["matched_calls"])
    m["wr_tests.fs_unmatched_test.peak_mb"] = counted.fs_peak_bytes / 2**20
    m["harness.monte_carlo.calls"] = c["mc_calls"]
    m["harness.task_bytes"] = _ratio(c["task_bytes"], c["mc_calls"])
    m["harness.trial_records"] = c["trial_records"]
    m["harness.degenerate_records"] = c["degenerate_records"]
    return m
