"""Input-matrix generation: random, scrambled Sobol' and full factorial designs,
marginal transforms, and pairwise dependence injection.

scipy is imported inside the functions that need it, so that `import binsa`
and the commands that only read a dataset do not pay for loading it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import InputSpec

__all__ = [
    "SamplingPlan",
    "DependencePlan",
    "sobol_points",
    "random_points",
    "full_factorial",
    "transform_marginals",
    "apply_dependence",
    "sample_inputs",
]

MAX_SOBOL_DIM = 64

# Normal quantiles at exactly 0 or 1 are clamped to +-8.2 standard deviations.
_NORMAL_CLAMP = 8.2


@dataclass(frozen=True)
class SamplingPlan:
    """How to draw the unit-hypercube design: MC, QMC or FFD."""

    method: str
    n: int
    seed: int = 0
    scramble: bool = True

    def __post_init__(self):
        if self.method not in ("MC", "QMC", "FFD"):
            raise ValueError(f"unknown sampling method {self.method!r}")
        if self.n < 2:
            raise ValueError("sample size must be >= 2")


@dataclass(frozen=True)
class DependencePlan:
    """Dependence between two inputs: gaussian copula or equal-portion coupling."""

    kind: str
    pair: tuple
    rho: float = 0.0
    fraction: float = 0.0
    sign: str = "positive"

    def __post_init__(self):
        a, b = self.pair
        if a == b:
            raise ValueError("dependence pair must name two distinct inputs")
        if self.kind == "copula":
            if not -1.0 <= self.rho <= 1.0:
                raise ValueError("copula parameter must lie in [-1, 1]")
        elif self.kind == "equal_portion":
            if not 0.0 <= self.fraction <= 1.0:
                raise ValueError("equal-portion fraction must lie in [0, 1]")
            if self.sign not in ("positive", "negative"):
                raise ValueError("equal-portion sign must be 'positive' or 'negative'")
        else:
            raise ValueError(f"unknown dependence kind {self.kind!r}")


def sobol_points(dim, n, scramble=False, seed=0):
    """First n points of a Sobol' sequence in [0, 1)^dim, starting at index 0.

    The unscrambled sequence starts at the origin; dropping that first point
    degrades the sequence, so it is always kept. Scrambling is seeded digital
    scrambling, deterministic per seed.
    """
    if not 1 <= dim <= MAX_SOBOL_DIM:
        raise ValueError(f"sobol dimension must be in [1, {MAX_SOBOL_DIM}]")
    if n < 1:
        raise ValueError("n must be >= 1")
    from scipy.stats import qmc

    engine = qmc.Sobol(d=dim, scramble=scramble, seed=seed)
    with warnings.catch_warnings():
        # non power-of-two draws are intentional (budget-matched designs)
        warnings.simplefilter("ignore", UserWarning)
        pts = engine.random(n)
    return np.clip(pts, 0.0, np.nextafter(1.0, 0.0))


def random_points(dim, n, seed=0):
    """n x dim i.i.d. uniforms from a seeded 64-bit PRNG."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    return rng.random((n, dim))


def full_factorial(dims, n_budget):
    """All L^dims cell-center combinations with L = floor(n_budget^(1/dims)).

    Points are placed at cell centers (2i+1)/(2L) in lexicographic order with
    the first axis varying slowest.
    """
    levels = int(n_budget ** (1.0 / dims))
    while (levels + 1) ** dims <= n_budget:
        levels += 1
    while levels > 1 and levels**dims > n_budget:
        levels -= 1
    if levels < 2:
        raise ValueError("FFD requires >= 2 levels")
    axis = (2 * np.arange(levels) + 1) / (2 * levels)
    grids = np.meshgrid(*([axis] * dims), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def _ppf(dist, u):
    if dist.kind == "uniform":
        return dist.lo + u * (dist.hi - dist.lo)
    if dist.kind == "normal":
        from scipy.special import ndtri

        with np.errstate(divide="ignore"):
            z = ndtri(u)
        z = np.clip(z, -_NORMAL_CLAMP, _NORMAL_CLAMP)
        return dist.mean + dist.sd * z
    # categorical: inverse CDF over the level probabilities, as level indices
    cum = np.cumsum(np.asarray(dist.probabilities, dtype=float))
    cum[-1] = 1.0
    return np.searchsorted(cum, u, side="right").astype(float)


def transform_marginals(points, specs):
    """Map unit-hypercube points through each input's marginal distribution."""
    points = np.asarray(points, dtype=float)
    if points.shape[1] != len(specs):
        raise ValueError("column count must equal the number of input specs")
    out = np.empty_like(points)
    for j, spec in enumerate(specs):
        out[:, j] = _ppf(spec.distribution, points[:, j])
    return out


def apply_dependence(matrix, specs, plan, seed=0):
    """Inject dependence between two uniform columns of an input matrix.

    Copula: column b is regenerated from a gaussian copula conditioned on
    column a, preserving column a bitwise and column b in distribution.
    Equal portion: on a seeded random subset of the given fraction, column b
    is set to column a (positive) or to its reflection lo_b + hi_b - a
    (negative).
    """
    a_idx, b_idx = plan.pair
    dist_a = specs[a_idx].distribution
    dist_b = specs[b_idx].distribution
    if dist_a.kind != "uniform" or dist_b.kind != "uniform":
        raise ValueError("dependence supported for uniform marginals only")
    out = np.array(matrix, dtype=float)
    a = out[:, a_idx]
    n = a.shape[0]
    rng = np.random.default_rng(seed)
    if plan.kind == "copula":
        from scipy.special import ndtr, ndtri

        ua = (a - dist_a.lo) / (dist_a.hi - dist_a.lo)
        za = ndtri(np.clip(ua, 1e-16, 1.0 - 1e-16))
        eps = rng.standard_normal(n)
        zb = plan.rho * za + math.sqrt(1.0 - plan.rho**2) * eps
        ub = ndtr(zb)
        out[:, b_idx] = dist_b.lo + ub * (dist_b.hi - dist_b.lo)
    else:
        n_set = int(round(plan.fraction * n))
        idx = rng.choice(n, size=n_set, replace=False)
        if plan.sign == "positive":
            out[idx, b_idx] = a[idx]
        else:
            out[idx, b_idx] = (dist_b.lo + dist_b.hi) - a[idx]
    return out


def sample_inputs(plan, specs, dependence=(), seed=None):
    """Generate a full input matrix: design points, marginals, dependence.

    The realized row count equals plan.n for MC/QMC and L^K <= plan.n for FFD.
    """
    seed = plan.seed if seed is None else seed
    dim = len(specs)
    if plan.method == "MC":
        pts = random_points(dim, plan.n, seed)
    elif plan.method == "QMC":
        pts = sobol_points(dim, plan.n, scramble=plan.scramble, seed=seed)
    else:
        pts = full_factorial(dim, plan.n)
    matrix = transform_marginals(pts, specs)
    for k, dep in enumerate(dependence):
        matrix = apply_dependence(matrix, specs, dep, seed=seed + 1000003 * (k + 1))
    return matrix
