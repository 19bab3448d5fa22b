"""binsa: global sensitivity analysis with the simple binning estimator.

Generate or ingest (inputs, output) datasets, estimate first-order,
second-order and combined sensitivity indices by conditional-variance
binning, validate against a pick-freeze Sobol' oracle, and decompose the
output distribution into color-coded scenarios.

This module exports the API that the README documents; everything else is
imported from its own module (binsa.core, binsa.binning, binsa.io, ...).
"""

from . import svg  # noqa: F401  (loaded with the package, as every other layer is)
from .benchmarks import default_specs, evaluate, get_model
from .binning import BinningConfig, analyze, conservation_check
from .core import Dataset, InputSpec, MarginalDistribution
from .io import read_dataset_csv, write_dataset_csv
from .oracle import estimate_sobol
from .sampling import DependencePlan, SamplingPlan, sample_inputs
from .simdec import decompose, default_states, select_inputs

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "SamplingPlan",
    "DependencePlan",
    "sample_inputs",
    "get_model",
    "default_specs",
    "evaluate",
    "Dataset",
    "analyze",
    "conservation_check",
    "estimate_sobol",
    "select_inputs",
    "default_states",
    "decompose",
    "BinningConfig",
    "MarginalDistribution",
    "InputSpec",
    "read_dataset_csv",
    "write_dataset_csv",
]
