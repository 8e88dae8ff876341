"""Benchmark scenario presets and the table-reproduction machinery.

Tables t3..t14 bundle reference operating characteristics (estimates, Type I
error rates, powers) for fixed generative settings.  One ``_TABLES`` entry
specifies each table: its scenarios, reference cells, per-cell tolerances and
the cells that are informational only, and its structural checks (orderings,
thresholds, design gaps).  ``reproduce_table`` reruns the grid and
reports simulated minus reference per cell.  Known systematic deviations of
this implementation from the reference values are listed in the README.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Collection, Mapping
from dataclasses import dataclass, field
from typing import NamedTuple

from .core import ConfigError
from .datagen import ContinuousGenConfig, SubpopMix, SurvivalGenConfig
from .harness import WIN_RATIO, ScenarioConfig, monte_carlo

LOG06 = math.log(0.6)
LOG018 = math.log(0.18)

SURV_ANALYSES = ("Cox", *WIN_RATIO, "Obrien")
SED_ANALYSES = ("Contingency", *WIN_RATIO)

ROW_LABELS = {
    "Cox": "Cox regression",
    "MatchedWR": "Stratified matched WR",
    "StratUnmatchedWR": "Stratified unmatched WR",
    "UnstratUnmatchedWR": "Unstratified unmatched WR",
    "Obrien": "Rank-sum-type test",
    "Contingency": "Contingency table",
}


class CellReport(NamedTuple):
    row: str
    design: str
    n: int
    simulated: float
    reference: float
    tol: float
    required: bool

    @property
    def delta(self) -> float:
        return self.simulated - self.reference

    @property
    def ok(self) -> bool:
        return abs(self.delta) <= self.tol + 1e-12


class CheckReport(NamedTuple):
    label: str
    ok: bool
    detail: str
    required: bool = True


@dataclass
class TableReport:
    table_id: str
    title: str
    cells: list[CellReport] = field(default_factory=list)
    checks: list[CheckReport] = field(default_factory=list)

    @property
    def required_pass(self) -> bool:
        return all(c.ok for c in self.cells if c.required) and all(
            c.ok for c in self.checks if c.required
        )

    def lines(self) -> list[str]:
        out = [f"table {self.table_id}: {self.title}"]
        header = f"{'row':<28} {'design':<9} {'N':>4} {'sim':>7} {'ref':>6} {'delta':>7} {'tol':>5}  verdict"
        out.append(header)
        for c in self.cells:
            verdict = "ok" if c.ok else "DEVIATES"
            tag = "" if c.required else " (info)"
            out.append(
                f"{ROW_LABELS.get(c.row, c.row):<28} {c.design:<9} {c.n:>4} "
                f"{c.simulated:7.3f} {c.reference:6.3f} {c.delta:+7.3f} {c.tol:5.2f}  {verdict}{tag}"
            )
        for ch in self.checks:
            verdict = "pass" if ch.ok else "FAIL"
            tag = "" if ch.required else " (info)"
            out.append(f"check: {ch.label}: {verdict}{tag}  [{ch.detail}]")
        out.append(
            f"table {self.table_id} verdict: "
            + ("PASS" if self.required_pass else "FAIL")
            + " (required checks)"
        )
        return out

    def to_csv_rows(self) -> list[list]:
        rows = [["table", "row", "design", "n", "simulated", "reference", "delta", "tol", "ok", "required"]]
        for c in self.cells:
            rows.append(
                [self.table_id, c.row, c.design, c.n, f"{c.simulated:.4f}",
                 f"{c.reference:.4f}", f"{c.delta:+.4f}", c.tol, c.ok, c.required]
            )
        return rows


# ---------------------------------------------------------------------------
# scenario builders


def _table_seed(base: int, table_no: int, design_no: int, n: int) -> int:
    return base * 1_000_003 + table_no * 10_007 + design_no * 1_009 + n


def survival_scenario(
    beta_t: float = 0.0,
    beta_in: float = 0.0,
    n: int = 100,
    **kw,
) -> ScenarioConfig:
    """``kw`` (``reps``, ``master_seed``, ``win_priority``, ...) goes to ``ScenarioConfig``."""
    return ScenarioConfig(
        design="parallel",
        outcome_family="survival",
        generator=SurvivalGenConfig(beta_t=beta_t, beta_in=beta_in),
        analyses=SURV_ANALYSES,
        n_total=n,
        **kw,
    )


_SED_MIX_MAIN = SubpopMix(0.05, 0.05, 0.8, 0.1)
_SED_MIX_SHIFTED = SubpopMix(0.6, 0.05, 0.3, 0.05)


def sed_scenario(
    design: str,
    beta_t1: float,
    beta_in23: float,
    mix: SubpopMix,
    n: int,
    **kw,
) -> ScenarioConfig:
    """``kw`` (``reps``, ``master_seed``, ...) goes to ``ScenarioConfig``."""
    return ScenarioConfig(
        design=design,
        outcome_family="continuous",
        generator=ContinuousGenConfig(beta_t1=beta_t1, beta_in2=beta_in23, beta_in3=beta_in23,
                                      mix=mix),
        analyses=SED_ANALYSES,
        n_total=n,
        **kw,
    )


# ---------------------------------------------------------------------------
# structural checks, on the summaries of a table keyed by (design, N)


def _power_ordering(summaries, n: int, chain, strict, required: bool = True) -> CheckReport:
    """Power at N=n falls along ``chain``: strictly where ``strict`` says, else weakly."""
    power = {a: summaries[("parallel", n)][a].rejection_rate for a in chain}
    ok = all(power[a] > power[b] if s else power[a] >= power[b]
             for a, b, s in zip(chain, chain[1:], strict))
    detail = " ".join(f"{a}={p:.3f}" for a, p in power.items())
    return CheckReport(f"power ordering at N={n}", ok, detail, required)


def _power_bound(label: str, summaries, n: int, rows, bound: float, above: bool,
                 required: bool = True) -> CheckReport:
    """Power at N=n is at least (``above``) or at most ``bound`` for every analysis in ``rows``."""
    power = {a: summaries[("parallel", n)][a].rejection_rate for a in rows}
    ok = all(p >= bound if above else p <= bound for p in power.values())
    detail = " ".join(f"{a}={p:.3f}" for a, p in power.items())
    return CheckReport(label, ok, detail, required)


def _estimate_near(label: str, summaries, n: int, row: str, target: float, tol: float) -> CheckReport:
    mean = summaries[("parallel", n)][row].mean_estimate
    return CheckReport(label, abs(mean - target) <= tol, f"mean={mean:.3f}")


_GAPS = tuple((a, n) for a in ("StratUnmatchedWR", "UnstratUnmatchedWR") for n in (100, 200))


def _sed_gaps(summaries, info=()) -> list[CheckReport]:
    """SED's power exceeds CR's by 0.05 or more at each ``_GAPS`` cell; enforced unless in ``info``."""
    checks = []
    for analysis, n in _GAPS:
        sed = summaries[("sed", n)][analysis].rejection_rate
        cr = summaries[("cr", n)][analysis].rejection_rate
        gap = sed - cr
        checks.append(CheckReport(f"SED gains over CR: {analysis} at N={n} (gap >= 0.05)", gap >= 0.05,
                                  f"sed={sed:.3f} cr={cr:.3f} gap={gap:+.3f}", (analysis, n) not in info))
    return checks


# ---------------------------------------------------------------------------
# table specs


@dataclass(frozen=True)
class _Table:
    """What one benchmark table simulates, and the reference and checks it is held to."""

    title: str
    designs: tuple[str, ...]
    ns: tuple[int, ...]
    scenario: Callable[..., ScenarioConfig]  # (design, n=, reps=, master_seed=)
    value: str  # the McSummary field each cell compares
    reference: dict[str, dict[str, tuple[float, ...]]]  # row -> design -> per N
    # a cell is matched by its row, its N or its (row, N)
    tol_at: Mapping = field(default_factory=dict)  # match -> tolerance; 0.05 where none
    info: Collection = ()  # matches reported but not enforced
    checks: Callable[[Mapping], list[CheckReport]] = lambda summaries: []  # of summaries by (design, N)


_SURV_NS = (60, 100, 200)
_SED_NS = (100, 200, 500)

_TABLES = {
    "t3": _Table(
        "no-effect survival setting: treatment-effect estimates", ("parallel",), _SURV_NS,
        lambda _, **kw: survival_scenario(0.0, 0.0, **kw), "mean_estimate",
        {
            "Cox": {"parallel": (1.05, 1.02, 1.02)},
            "MatchedWR": {"parallel": (1.01, 1.01, 1.00)},
            "StratUnmatchedWR": {"parallel": (1.05, 1.03, 1.00)},
            "UnstratUnmatchedWR": {"parallel": (1.04, 1.03, 1.01)},
        },
        info={("Cox", 60), ("MatchedWR", 60), ("MatchedWR", 100),
              ("StratUnmatchedWR", 60), ("UnstratUnmatchedWR", 60)},
    ),
    "t4": _Table(
        "no-effect survival setting: Type I error", ("parallel",), _SURV_NS,
        lambda _, **kw: survival_scenario(0.0, 0.0, **kw), "rejection_rate",
        {
            "Cox": {"parallel": (0.05, 0.05, 0.05)},
            "MatchedWR": {"parallel": (0.06, 0.06, 0.06)},
            "StratUnmatchedWR": {"parallel": (0.04, 0.05, 0.05)},
            "UnstratUnmatchedWR": {"parallel": (0.04, 0.05, 0.05)},
            "Obrien": {"parallel": (0.05, 0.05, 0.05)},
        },
        tol_at=dict.fromkeys(_SURV_NS, 0.02),
    ),
    "t5": _Table(
        "equal effects on both components: estimates", ("parallel",), _SURV_NS,
        lambda _, **kw: survival_scenario(LOG06, 0.0, **kw), "mean_estimate",
        {
            "Cox": {"parallel": (0.62, 0.61, 0.60)},
            "MatchedWR": {"parallel": (1.51, 1.49, 1.49)},
            "StratUnmatchedWR": {"parallel": (1.59, 1.55, 1.52)},
            "UnstratUnmatchedWR": {"parallel": (1.55, 1.51, 1.49)},
        },
        tol_at=dict.fromkeys(WIN_RATIO, 0.15), info=WIN_RATIO,
    ),
    "t6": _Table(
        "equal effects on both components: power", ("parallel",), _SURV_NS,
        lambda _, **kw: survival_scenario(LOG06, 0.0, **kw), "rejection_rate",
        {
            "Cox": {"parallel": (0.44, 0.66, 0.92)},
            "MatchedWR": {"parallel": (0.17, 0.26, 0.47)},
            "StratUnmatchedWR": {"parallel": (0.19, 0.36, 0.65)},
            "UnstratUnmatchedWR": {"parallel": (0.21, 0.35, 0.61)},
            "Obrien": {"parallel": (0.32, 0.51, 0.82)},
        },
        info={*WIN_RATIO, ("Cox", 60)},
        checks=lambda s: [_power_ordering(
            s, 200, ["Cox", "Obrien", "StratUnmatchedWR", "UnstratUnmatchedWR", "MatchedWR"],
            [True, True, False, True])],
    ),
    "t7": _Table(
        "effect on death only: estimates", ("parallel",), _SURV_NS,
        lambda _, **kw: survival_scenario(0.0, LOG018, **kw), "mean_estimate",
        {
            "Cox": {"parallel": (0.61, 0.59, 0.60)},
            "MatchedWR": {"parallel": (3.02, 3.06, 2.98)},
            "StratUnmatchedWR": {"parallel": (3.29, 3.24, 3.05)},
            "UnstratUnmatchedWR": {"parallel": (3.14, 3.09, 2.96)},
        },
        tol_at=dict.fromkeys(WIN_RATIO, 0.30), info={("MatchedWR", 60), ("MatchedWR", 100)},
    ),
    "t8": _Table(
        "effect on death only: power", ("parallel",), _SURV_NS,
        lambda _, **kw: survival_scenario(0.0, LOG018, **kw), "rejection_rate",
        {
            "Cox": {"parallel": (0.51, 0.65, 0.81)},
            "MatchedWR": {"parallel": (0.78, 0.94, 0.99)},
            "StratUnmatchedWR": {"parallel": (0.90, 0.99, 1.00)},
            "UnstratUnmatchedWR": {"parallel": (0.89, 0.99, 1.00)},
            "Obrien": {"parallel": (0.50, 0.74, 0.93)},
        },
        info={"Obrien", ("Cox", 100), ("Cox", 200)},
        checks=lambda s: [
            _power_ordering(s, 100, ["StratUnmatchedWR", "UnstratUnmatchedWR", "MatchedWR", "Obrien", "Cox"],
                            [False, True, True, True], required=False),
            _estimate_near("matched WR estimate near 3.0 at N=200", s, 200, "MatchedWR", 3.0, 0.30),
        ],
    ),
    "t9": _Table(
        "effect on death only, priorities swapped: estimates", ("parallel",), _SURV_NS,
        lambda _, **kw: survival_scenario(0.0, LOG018, win_priority="hosp", **kw), "mean_estimate",
        {
            "Cox": {"parallel": (0.60, 0.59, 0.60)},
            "MatchedWR": {"parallel": (1.12, 1.17, 1.12)},
            "StratUnmatchedWR": {"parallel": (1.19, 1.19, 1.15)},
            "UnstratUnmatchedWR": {"parallel": (1.18, 1.17, 1.14)},
        },
        tol_at=dict.fromkeys(WIN_RATIO, 0.15), info=WIN_RATIO,
    ),
    "t10": _Table(
        "effect on death only, priorities swapped: power", ("parallel",), _SURV_NS,
        lambda _, **kw: survival_scenario(0.0, LOG018, win_priority="hosp", **kw), "rejection_rate",
        {
            "Cox": {"parallel": (0.50, 0.66, 0.82)},
            "MatchedWR": {"parallel": (0.07, 0.07, 0.10)},
            "StratUnmatchedWR": {"parallel": (0.06, 0.09, 0.12)},
            "UnstratUnmatchedWR": {"parallel": (0.09, 0.07, 0.11)},
            "Obrien": {"parallel": (0.51, 0.72, 0.91)},
        },
        info={"Cox", "Obrien", *((row, 200) for row in WIN_RATIO)},
        checks=lambda s: [
            _power_bound("win-ratio methods defused at N=100 (power <= 0.15)",
                         s, 100, WIN_RATIO, 0.15, above=False),
            _power_bound("rank-sum-type test retains power at N=100 (>= 0.65)",
                         s, 100, ("Obrien",), 0.65, above=True, required=False),
            _power_bound("Cox retains power at N=100 (>= 0.60)", s, 100, ("Cox",), 0.60, above=True),
        ],
    ),
    "t11": _Table(
        "enriched vs complete randomization: Type I error", ("cr", "sed"), _SED_NS,
        lambda design, **kw: sed_scenario(design, -1.5, 0.0, _SED_MIX_MAIN, **kw), "rejection_rate",
        {
            "Contingency": {"cr": (0.05, 0.05, 0.05), "sed": (0.05, 0.05, 0.05)},
            "MatchedWR": {"cr": (0.08, 0.07, 0.06), "sed": (0.13, 0.07, 0.06)},
            "StratUnmatchedWR": {"cr": (0.05, 0.06, 0.05), "sed": (0.05, 0.04, 0.05)},
            "UnstratUnmatchedWR": {"cr": (0.05, 0.06, 0.05), "sed": (0.05, 0.04, 0.05)},
        },
        tol_at={500: 0.03}, info=(100, 200),
    ),
    "t12": _Table(
        "enriched vs complete randomization: power, scenario 1", ("cr", "sed"), _SED_NS,
        lambda design, **kw: sed_scenario(design, -2.0, 0.0, _SED_MIX_MAIN, **kw), "rejection_rate",
        {
            "Contingency": {"sed": (0.30, 0.58, 0.92), "cr": (0.30, 0.45, 0.90)},
            "MatchedWR": {"sed": (0.48, 0.77, 0.99), "cr": (0.46, 0.69, 0.99)},
            "StratUnmatchedWR": {"sed": (0.49, 0.81, 0.99), "cr": (0.47, 0.74, 0.99)},
            "UnstratUnmatchedWR": {"sed": (0.33, 0.59, 0.92), "cr": (0.32, 0.51, 0.93)},
        },
        info=SED_ANALYSES, checks=lambda s: _sed_gaps(s, info=_GAPS),
    ),
    "t13": _Table(
        "enriched vs complete randomization: power, scenario 2", ("cr", "sed"), _SED_NS,
        lambda design, **kw: sed_scenario(design, -2.0, 0.5, _SED_MIX_MAIN, **kw), "rejection_rate",
        {
            "Contingency": {"sed": (0.09, 0.16, 0.27), "cr": (0.07, 0.13, 0.20)},
            "MatchedWR": {"sed": (0.15, 0.23, 0.40), "cr": (0.14, 0.20, 0.31)},
            "StratUnmatchedWR": {"sed": (0.23, 0.27, 0.41), "cr": (0.11, 0.17, 0.32)},
            "UnstratUnmatchedWR": {"sed": (0.22, 0.24, 0.32), "cr": (0.07, 0.14, 0.22)},
        },
        info=SED_ANALYSES, checks=_sed_gaps,
    ),
    "t14": _Table(
        "enriched vs complete randomization: power, scenario 3", ("cr", "sed"), _SED_NS,
        lambda design, **kw: sed_scenario(design, -2.0, 0.0, _SED_MIX_SHIFTED, **kw), "rejection_rate",
        {
            "Contingency": {"sed": (0.07, 0.10, 0.20), "cr": (0.06, 0.10, 0.17)},
            "MatchedWR": {"sed": (0.12, 0.13, 0.23), "cr": (0.07, 0.11, 0.23)},
            "StratUnmatchedWR": {"sed": (0.23, 0.25, 0.33), "cr": (0.07, 0.15, 0.26)},
            "UnstratUnmatchedWR": {"sed": (0.20, 0.24, 0.29), "cr": (0.06, 0.10, 0.19)},
        },
        info=SED_ANALYSES,
        # the stratified gap at N=100 sits at 0.05 (README)
        checks=lambda s: _sed_gaps(s, info={("StratUnmatchedWR", 100)}),
    ),
}

TABLE_IDS = tuple(_TABLES)


def reproduce_table(
    table_id: str,
    reps: int = 2000,
    seed: int = 20240501,
    n_jobs: int = 1,
) -> TableReport:
    """Re-simulate one benchmark table and compare cell by cell.

    Each (design, N) cell runs on its own master seed,
    ``_table_seed(seed, table, design, N)``, which no other cell of the table
    changes: a table spec cut to fewer N gives the full table's numbers at the
    N it keeps.  A negative ``seed`` is refused before any cell runs.
    """
    if table_id not in TABLE_IDS:
        raise ConfigError(f"unknown table id {table_id!r}; valid: {', '.join(TABLE_IDS)}")
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    spec = _TABLES[table_id]
    table_no = int(table_id[1:])
    summaries = {}
    for d, design in enumerate(spec.designs):
        for n in spec.ns:
            cfg = spec.scenario(design, n=n, reps=reps, master_seed=_table_seed(seed, table_no, d, n))
            summaries[(design, n)] = monte_carlo(cfg, n_jobs=n_jobs)
    report = TableReport(table_id, spec.title, checks=spec.checks(summaries))
    for row, by_design in spec.reference.items():
        for design, targets in by_design.items():
            for n, target in zip(spec.ns, targets):
                keys = (row, n, (row, n))
                tol = next((spec.tol_at[k] for k in keys if k in spec.tol_at), 0.05)
                required = not any(k in spec.info for k in keys)
                simulated = getattr(summaries[(design, n)][row], spec.value)
                report.cells.append(CellReport(row, design, n, simulated, target, tol, required))
    return report
