"""binsa: global sensitivity analysis with the simple binning estimator.

Generate or ingest (inputs, output) datasets, estimate first-order,
second-order and combined sensitivity indices by conditional-variance
binning, validate against a pick-freeze Sobol' oracle, and decompose the
output distribution into color-coded scenarios.
"""

from .benchmarks import (
    MODEL_NAMES,
    Model,
    default_specs,
    evaluate,
    get_model,
    ishigami_analytic_indices,
    toy_default_specs,
)
from .binning import (
    BinningConfig,
    analyze,
    bin_count_first,
    bin_count_second_per_dim,
    conservation_check,
)
from .core import (
    Dataset,
    InputSpec,
    MarginalDistribution,
    SensitivityReport,
    pearson,
    spearman,
    stable_mean,
    stable_sum,
    stable_variance,
)
from .io import (
    StudyConfig,
    UserInputError,
    load_config,
    load_states_file,
    read_dataset_csv,
    report_tables_csv,
    report_to_dict,
    scenario_table_csv,
    write_dataset_csv,
)
from .oracle import OracleReport, estimate_sobol
from .sampling import (
    DependencePlan,
    SamplingPlan,
    apply_dependence,
    full_factorial,
    random_points,
    sample_inputs,
    sobol_points,
    transform_marginals,
)
from .simdec import (
    Decomposition,
    Scenario,
    State,
    StateDefinition,
    assign_colors,
    decompose,
    default_states,
    select_inputs,
)
from .svg import bar_chart, stacked_histogram

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core
    "MarginalDistribution",
    "InputSpec",
    "Dataset",
    "SensitivityReport",
    "stable_sum",
    "stable_mean",
    "stable_variance",
    "pearson",
    "spearman",
    # sampling
    "SamplingPlan",
    "DependencePlan",
    "sobol_points",
    "random_points",
    "full_factorial",
    "transform_marginals",
    "apply_dependence",
    "sample_inputs",
    # benchmarks
    "Model",
    "MODEL_NAMES",
    "get_model",
    "evaluate",
    "ishigami_analytic_indices",
    "toy_default_specs",
    "default_specs",
    # binning
    "BinningConfig",
    "bin_count_first",
    "bin_count_second_per_dim",
    "analyze",
    "conservation_check",
    # oracle
    "OracleReport",
    "estimate_sobol",
    # simdec
    "State",
    "StateDefinition",
    "Scenario",
    "Decomposition",
    "select_inputs",
    "default_states",
    "decompose",
    "assign_colors",
    # svg
    "bar_chart",
    "stacked_histogram",
    # io
    "UserInputError",
    "StudyConfig",
    "write_dataset_csv",
    "read_dataset_csv",
    "report_to_dict",
    "report_tables_csv",
    "scenario_table_csv",
    "load_config",
    "load_states_file",
]
