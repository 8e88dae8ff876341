"""Win-ratio analyses of composite endpoints and trial-design simulation."""

from .core import (
    Arm,
    Cohort,
    ConfigError,
    DegenerateResultError,
    PairingResult,
    form_matched_pairs,
)
from .datagen import (
    BinaryGenConfig,
    ContinuousGenConfig,
    Subpop,
    SubpopMix,
    SurvivalGenConfig,
    cohort_to_csv,
    gen_binary_cohort,
    gen_survival_cohort,
)
from .wr_tests import (
    BinaryRule,
    ContinuousRule,
    SurvivalRule,
    WrResult,
    fs_unmatched_test,
    improvement_indicators,
    matched_wr_test,
)
from .classic_tests import (
    CoxResult,
    ObrienResult,
    OrResult,
    contingency_or_test,
    cox_fit,
    obrien_test,
)
from .power import (
    ThetaBinary,
    WinProbs,
    matched_sample_size,
    matched_win_probs,
    unmatched_g,
    unmatched_sample_size,
    unmatched_variance,
)
from .harness import (
    McSummary,
    ScenarioConfig,
    monte_carlo,
    run_trial,
    trial_cohort,
    scenario_from_dict,
)
from .presets import TABLE_IDS, reproduce_table

__version__ = "0.1.0"
