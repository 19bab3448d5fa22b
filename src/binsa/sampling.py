"""Input-matrix generation: random, scrambled Sobol' and full factorial designs,
marginal transforms, and pairwise dependence injection.

Everything here is numpy: Sobol' points are bitwise those of scipy's
qmc.Sobol, and the normal quantile and CDF (normal marginals, the gaussian
copula) are ports of the Cephes routines, bitwise scipy.special.ndtri and
ndtr. No scipy module is loaded.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._normal import ndtr, ndtri
from .core import InputSpec

__all__ = [
    "SamplingPlan",
    "DependencePlan",
    "sobol_points",
    "random_points",
    "full_factorial",
    "transform_marginals",
    "apply_dependence",
    "dependence_seed",
    "sample_inputs",
]

MAX_SOBOL_DIM = 64

# Bits per Sobol' coordinate: at most 2**_SOBOL_BITS distinct points.
_SOBOL_BITS = 30
MAX_SOBOL_POINTS = 2**_SOBOL_BITS

# Joe & Kuo, "Constructing Sobol sequences with better two-dimensional
# projections", SIAM J. Sci. Comput. 30 (2008), direction numbers
# new-joe-kuo-6.21201, first MAX_SOBOL_DIM dimensions: per dimension, the
# primitive polynomial of degree s as an integer (leading and constant terms
# included) and its initial direction numbers m_1..m_s. The first dimension
# has every direction number 1 (the van der Corput sequence).
_JOE_KUO = (
    (1, ()),
    (3, (1,)),
    (7, (1, 3)),
    (11, (1, 3, 1)),
    (13, (1, 1, 1)),
    (19, (1, 1, 3, 3)),
    (25, (1, 3, 5, 13)),
    (37, (1, 1, 5, 5, 17)),
    (41, (1, 1, 5, 5, 5)),
    (47, (1, 1, 7, 11, 19)),
    (55, (1, 1, 5, 1, 1)),
    (59, (1, 1, 1, 3, 11)),
    (61, (1, 3, 5, 5, 31)),
    (67, (1, 3, 3, 9, 7, 49)),
    (91, (1, 1, 1, 15, 21, 21)),
    (97, (1, 3, 1, 13, 27, 49)),
    (103, (1, 1, 1, 15, 7, 5)),
    (109, (1, 3, 1, 15, 13, 25)),
    (115, (1, 1, 5, 5, 19, 61)),
    (131, (1, 3, 7, 11, 23, 15, 103)),
    (137, (1, 3, 7, 13, 13, 15, 69)),
    (143, (1, 1, 3, 13, 7, 35, 63)),
    (145, (1, 3, 5, 9, 1, 25, 53)),
    (157, (1, 3, 1, 13, 9, 35, 107)),
    (167, (1, 3, 1, 5, 27, 61, 31)),
    (171, (1, 1, 5, 11, 19, 41, 61)),
    (185, (1, 3, 5, 3, 3, 13, 69)),
    (191, (1, 1, 7, 13, 1, 19, 1)),
    (193, (1, 3, 7, 5, 13, 19, 59)),
    (203, (1, 1, 3, 9, 25, 29, 41)),
    (211, (1, 3, 5, 13, 23, 1, 55)),
    (213, (1, 3, 7, 3, 13, 59, 17)),
    (229, (1, 3, 1, 3, 5, 53, 69)),
    (239, (1, 1, 5, 5, 23, 33, 13)),
    (241, (1, 1, 7, 7, 1, 61, 123)),
    (247, (1, 1, 7, 9, 13, 61, 49)),
    (253, (1, 3, 3, 5, 3, 55, 33)),
    (285, (1, 3, 1, 15, 31, 13, 49, 245)),
    (299, (1, 3, 5, 15, 31, 59, 63, 97)),
    (301, (1, 3, 1, 11, 11, 11, 77, 249)),
    (333, (1, 3, 1, 11, 27, 43, 71, 9)),
    (351, (1, 1, 7, 15, 21, 11, 81, 45)),
    (355, (1, 3, 7, 3, 25, 31, 65, 79)),
    (357, (1, 3, 1, 1, 19, 11, 3, 205)),
    (361, (1, 1, 5, 9, 19, 21, 29, 157)),
    (369, (1, 3, 7, 11, 1, 33, 89, 185)),
    (391, (1, 3, 3, 3, 15, 9, 79, 71)),
    (397, (1, 3, 7, 11, 15, 39, 119, 27)),
    (425, (1, 1, 3, 1, 11, 31, 97, 225)),
    (451, (1, 1, 1, 3, 23, 43, 57, 177)),
    (463, (1, 3, 7, 7, 17, 17, 37, 71)),
    (487, (1, 3, 1, 5, 27, 63, 123, 213)),
    (501, (1, 1, 3, 5, 11, 43, 53, 133)),
    (529, (1, 3, 5, 5, 29, 17, 47, 173, 479)),
    (539, (1, 3, 3, 11, 3, 1, 109, 9, 69)),
    (545, (1, 1, 1, 5, 17, 39, 23, 5, 343)),
    (557, (1, 3, 1, 5, 25, 15, 31, 103, 499)),
    (563, (1, 1, 1, 11, 11, 17, 63, 105, 183)),
    (601, (1, 1, 5, 11, 9, 29, 97, 231, 363)),
    (607, (1, 1, 5, 15, 19, 45, 41, 7, 383)),
    (617, (1, 3, 7, 7, 31, 19, 83, 137, 221)),
    (623, (1, 1, 1, 3, 23, 15, 111, 223, 83)),
    (631, (1, 1, 5, 13, 31, 15, 55, 25, 161)),
    (637, (1, 1, 3, 13, 25, 47, 39, 87, 257)),
)

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


@functools.cache
def _sobol_directions():
    """MAX_SOBOL_DIM x _SOBOL_BITS direction numbers, column b already
    shifted left by _SOBOL_BITS - 1 - b. Beyond the initial m_1..m_s they
    follow the recurrence of Bratley & Fox (ACM TOMS 14, 1988):
    m_j = m_{j-s} ^ XOR over k = 1..s of a_k (m_{j-k} << k), where a_k is bit
    s - k of the polynomial (a_s = 1)."""
    rows = [[1] * _SOBOL_BITS]
    for poly, initial in _JOE_KUO[1:]:
        s = poly.bit_length() - 1
        row = list(initial)
        for j in range(s, _SOBOL_BITS):
            m = row[j - s]
            for k in range(1, s + 1):
                if (poly >> (s - k)) & 1:
                    m ^= row[j - k] << k
            row.append(m)
        rows.append(row)
    shifts = _SOBOL_BITS - 1 - np.arange(_SOBOL_BITS, dtype=np.uint32)
    v = np.array(rows, dtype=np.uint32) << shifts
    v.flags.writeable = False
    return v


def _lms_shift(v, seed):
    """Matousek's linear matrix scramble plus a digital shift of the
    direction numbers v (dim x _SOBOL_BITS), drawn from default_rng(seed).

    The draws, their uint32 dtype and their order (shift bits, then the
    lower-triangular matrices) are those of scipy's qmc.Sobol, so a seed
    gives the same points there and here.
    """
    dim, bits = v.shape
    rng = np.random.default_rng(seed)
    shift_bits = rng.integers(2, size=(dim, bits), dtype=np.uint32)
    shift = (shift_bits << np.arange(bits, dtype=np.uint32)).sum(axis=1, dtype=np.uint32)
    ltm = np.tril(rng.integers(2, size=(dim, bits, bits), dtype=np.uint32))
    ltm[:, np.arange(bits), np.arange(bits)] = 1
    # Bit p from the top of a scrambled number is the parity of (row p of
    # ltm) AND (the original's bits from the top): pack each row into a
    # mask, AND it with every direction number, and fold the parity down.
    top = bits - 1 - np.arange(bits, dtype=np.uint32)
    masks = (ltm << top).sum(axis=2, dtype=np.uint32)
    x = v[:, :, None] & masks[:, None, :]
    for half in (16, 8, 4, 2, 1):
        x ^= x >> np.uint32(half)
    return ((x & 1) << top).sum(axis=2, dtype=np.uint32), shift


def sobol_points(dim, n, scramble=False, seed=0):
    """First n points of a Sobol' sequence in [0, 1)^dim, starting at index 0.

    The unscrambled sequence starts at the origin; dropping that first point
    degrades the sequence, so it is always kept. Scrambling is LMS plus a
    digital shift, deterministic per seed. The points are bitwise those of
    scipy's qmc.Sobol(dim, scramble=scramble, seed=seed).random(n) at its
    default 30 bits, in the same Gray-code order.
    """
    if not 1 <= dim <= MAX_SOBOL_DIM:
        raise ValueError(f"sobol dimension must be in [1, {MAX_SOBOL_DIM}]")
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > MAX_SOBOL_POINTS:
        raise ValueError(f"at most 2**{_SOBOL_BITS} Sobol' points can be generated, got n={n}")
    v = _sobol_directions()[:dim]
    shift = 0
    if scramble:
        v, shift = _lms_shift(v, seed)
    # Point k is shift ^ XOR of v[:, b] over the set bits b of gray(k); the
    # reflected Gray code makes points [s, 2s) those of [0, s) in reverse
    # order, each XORed with v[:, b] for s = 2**b.
    q = np.empty((n, dim), dtype=np.uint32)
    q[0] = shift
    s, b = 1, 0
    while s < n:
        c = min(s, n - s)
        np.bitwise_xor(q[s - c : s][::-1], v[:, b], out=q[s : s + c])
        s, b = 2 * s, b + 1
    return q * 2.0**-_SOBOL_BITS


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
        z = np.clip(ndtri(u), -_NORMAL_CLAMP, _NORMAL_CLAMP)
        return dist.mean + dist.sd * z
    # categorical: inverse CDF over the level probabilities, as level indices
    cum = np.cumsum(np.asarray(dist.probabilities, dtype=float))
    cum[-1] = 1.0
    return np.searchsorted(cum, u, side="right").astype(float)


def transform_marginals(points, specs):
    """Map unit-hypercube points through each input's marginal distribution.

    The result is column-major, the layout Dataset stores, so that a sampled
    matrix becomes a Dataset without a copy.
    """
    points = np.asarray(points, dtype=float)
    if points.shape[1] != len(specs):
        raise ValueError("column count must equal the number of input specs")
    out = np.empty(points.shape, order="F")
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


def dependence_seed(seed, k):
    """The seed with which sample_inputs applies its k-th dependence plan
    (from 0), for a design drawn with seed."""
    return seed + 1000003 * (k + 1)


def sample_inputs(plan, specs, dependence=()):
    """Generate a full input matrix: design points, marginals, dependence.

    The realized row count equals plan.n for MC/QMC and L^K <= plan.n for FFD.
    The matrix is column-major, as transform_marginals returns it.
    """
    seed, dim = plan.seed, len(specs)
    if plan.method == "MC":
        pts = random_points(dim, plan.n, seed)
    elif plan.method == "QMC":
        pts = sobol_points(dim, plan.n, scramble=plan.scramble, seed=seed)
    else:
        pts = full_factorial(dim, plan.n)
    matrix = transform_marginals(pts, specs)
    for k, dep in enumerate(dependence):
        matrix = apply_dependence(matrix, specs, dep, seed=dependence_seed(seed, k))
    return matrix
