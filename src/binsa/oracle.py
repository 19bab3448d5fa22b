"""Pick-freeze Sobol' estimator used as a validation baseline.

Valid for independent inputs only; never run it on datasets with injected
dependence. First-order indices use the Jansen estimator, closed second-order
terms the cross-matrix product estimator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .benchmarks import evaluate
from .core import stable_mean, stable_variance
from .sampling import random_points, sobol_points, transform_marginals

__all__ = ["OracleReport", "estimate_sobol"]


@dataclass(frozen=True)
class OracleReport:
    names: tuple
    first_order: np.ndarray
    second_order: np.ndarray
    var_y: float
    n_evaluations: int


def estimate_sobol(model, specs, n, seed=0, sampler="QMC"):
    """Sobol' indices from a pick-freeze design with n(2k+2) model runs.

    Two base matrices A and B are drawn jointly (a 2k-dimensional design);
    the hybrids A_B^(i) and B_A^(i) swap column i between them.
    """
    k = len(specs)
    if n < 128:
        raise ValueError("pick-freeze base sample must be >= 128")
    if k < 2:
        raise ValueError("pick-freeze design requires >= 2 inputs")
    if sampler == "QMC":
        u = sobol_points(2 * k, n, scramble=True, seed=seed)
    elif sampler == "MC":
        u = random_points(2 * k, n, seed)
    else:
        raise ValueError("sampler must be 'MC' or 'QMC'")
    ua, ub = u[:, :k], u[:, k:]

    def run(unit):
        return evaluate(model, transform_marginals(unit, specs))

    f_a = run(ua)
    f_b = run(ub)
    f_ab = np.empty((k, n))
    f_ba = np.empty((k, n))
    for i in range(k):
        hybrid = ua.copy()
        hybrid[:, i] = ub[:, i]
        f_ab[i] = run(hybrid)
        hybrid = ub.copy()
        hybrid[:, i] = ua[:, i]
        f_ba[i] = run(hybrid)

    pooled = np.concatenate([f_a, f_b])
    var_y = stable_variance(pooled)
    if var_y <= 0.0:
        raise ValueError("insufficient sample")

    first = np.array(
        [(var_y - 0.5 * stable_mean((f_b - f_ab[i]) ** 2)) / var_y for i in range(k)]
    )

    f0_sq = stable_mean(f_a) * stable_mean(f_b)
    second = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            v_ij = stable_mean(f_ba[i] * f_ab[j]) - f0_sq
            second[i, j] = second[j, i] = v_ij / var_y - first[i] - first[j]

    return OracleReport(
        names=tuple(s.name for s in specs),
        first_order=first,
        second_order=second,
        var_y=var_y,
        n_evaluations=n * (2 * k + 2),
    )
