"""Input-matrix generation: random, scrambled Sobol' and full factorial designs,
marginal transforms, pairwise dependence injection, and the sweep of one
pair's indices across a grid of dependence plans.

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

from ._normal import BLOCK_ROWS, _blocked, ndtr, ndtri
from .benchmarks import evaluate
from .binning import _in_order, _workers, analyze
from .core import Dataset, _centred, _correlation, _mid_ranks

__all__ = [
    "SamplingPlan",
    "DependencePlan",
    "sobol_points",
    "random_points",
    "full_factorial",
    "transform_marginals",
    "apply_dependence",
    "sample_inputs",
    "sweep_dependence",
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
    """First n points of a Sobol' sequence in [0, 1)^dim, starting at index 0,
    as a column-major n x dim matrix.

    The unscrambled sequence starts at the origin; dropping that first point
    degrades the sequence, so it is always kept. Scrambling is LMS plus a
    digital shift, deterministic per seed. The points are bitwise those of
    scipy's qmc.Sobol(dim, scramble=scramble, seed=seed).random(n) at its
    default 30 bits, in the same Gray-code order, written a block of
    BLOCK_ROWS points at a time.
    """
    if not 1 <= dim <= MAX_SOBOL_DIM:
        raise ValueError(f"sobol dimension must be in [1, {MAX_SOBOL_DIM}]")
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > MAX_SOBOL_POINTS:
        raise ValueError(f"at most 2**{_SOBOL_BITS} Sobol' points can be generated, got n={n}")
    out = np.empty((n, dim), order="F")
    v = _sobol_directions()[:dim]
    shift = 0
    if scramble:
        v, shift = _lms_shift(v, seed)
    # Point k is shift ^ XOR of v[:, b] over the set bits b of gray(k). The
    # reflected Gray code makes points [s, 2s) those of [0, s) in reverse
    # order, each XORed with v[:, b] for s = 2**b: so head, the first block,
    # doubles up from point 0. BLOCK_ROWS is a power of 2, so a block's
    # start k0 and an offset i < BLOCK_ROWS share no bit and gray(k0 + i) is
    # gray(k0) ^ gray(i): each block is head XORed with the v[:, b] of the
    # set bits of gray(k0).
    head = np.empty((min(n, BLOCK_ROWS), dim), dtype=np.uint32)
    head[0] = shift
    s, b = 1, 0
    while s < len(head):
        c = min(s, len(head) - s)
        np.bitwise_xor(head[s - c : s][::-1], v[:, b], out=head[s : s + c])
        s, b = 2 * s, b + 1
    q = np.empty_like(head)
    for start in range(0, n, BLOCK_ROWS):
        rows = min(BLOCK_ROWS, n - start)
        gray = start ^ (start >> 1)
        bits = [b for b in range(_SOBOL_BITS) if gray >> b & 1]
        np.bitwise_xor(head[:rows], np.bitwise_xor.reduce(v[:, bits], axis=1), out=q[:rows])
        np.multiply(q[:rows], 2.0**-_SOBOL_BITS, out=out[start : start + rows])
    return out


def random_points(dim, n, seed=0):
    """n x dim i.i.d. uniforms from a seeded 64-bit PRNG, as a column-major
    matrix. The generator's stream fills it row by row, a block of
    BLOCK_ROWS rows at a time, so the points are those of
    default_rng(seed).random((n, dim))."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    out = np.empty((n, dim), order="F")
    for start in range(0, n, BLOCK_ROWS):
        block = out[start : start + BLOCK_ROWS]
        block[...] = rng.random(block.shape)
    return out


def full_factorial(dims, n_budget):
    """All L^dims cell-center combinations with L = floor(n_budget^(1/dims)).

    Points are placed at cell centers (2i+1)/(2L) in lexicographic order with
    the first axis varying slowest, in a column-major matrix.
    """
    levels = int(n_budget ** (1.0 / dims))
    while (levels + 1) ** dims <= n_budget:
        levels += 1
    while levels > 1 and levels**dims > n_budget:
        levels -= 1
    if levels < 2:
        raise ValueError("FFD requires >= 2 levels")
    axis = (2 * np.arange(levels) + 1) / (2 * levels)
    out = np.empty((levels**dims, dims), order="F")
    for j in range(dims):
        # column j repeats each level levels**(dims - 1 - j) times, and that
        # run levels**j times
        out[:, j].reshape(levels**j, levels, -1)[...] = axis[:, None]
    return out


def _transform(matrix, specs):
    """Map each column of matrix, unit-hypercube points, through its input's
    marginal distribution in place."""
    for j, spec in enumerate(specs):
        dist, column = spec.distribution, matrix[:, j]
        if dist.kind == "uniform":
            column *= dist.hi - dist.lo
            column += dist.lo
        elif dist.kind == "normal":
            np.clip(ndtri(column, out=column), -_NORMAL_CLAMP, _NORMAL_CLAMP, out=column)
            column *= dist.sd
            column += dist.mean
        else:
            # categorical: inverse CDF over the level probabilities, as level
            # indices, a block of the column at a time as ndtri takes it
            cum = np.cumsum(np.asarray(dist.probabilities, dtype=float))
            cum[-1] = 1.0
            _blocked(lambda u: np.searchsorted(cum, u, side="right"), column, column)


def transform_marginals(points, specs):
    """Map unit-hypercube points through each input's marginal distribution.

    The result is a new array, column-major, the layout Dataset stores, so
    that a sampled matrix becomes a Dataset without a copy.
    """
    points = np.asarray(points, dtype=float)
    if points.shape[1] != len(specs):
        raise ValueError("column count must equal the number of input specs")
    out = np.array(points, order="F")
    _transform(out, specs)
    return out


def _copula_score(a, dist):
    """The normal score of the uniform column a, on which the gaussian
    copula conditions its partner column."""
    ua = (a - dist.lo) / (dist.hi - dist.lo)
    np.clip(ua, 1e-16, 1.0 - 1e-16, out=ua)
    return ndtri(ua, out=ua)


def apply_dependence(matrix, specs, plan, seed=0, score=None):
    """Inject dependence between two uniform columns of an input matrix.

    Copula: column b is regenerated from a gaussian copula conditioned on
    column a, preserving column a bitwise and column b in distribution.
    Equal portion: on a seeded random subset of the given fraction, column b
    is set to column a (positive) or to its reflection lo_b + hi_b - a
    (negative).

    score, where it is given, is _copula_score of the matrix's column a,
    which an equal-portion plan does not use: it depends on column a alone,
    so a caller that applies many plans to one matrix computes it once.
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
        if score is None:
            score = _copula_score(a, dist_a)
        # lo + ndtr(rho * score + sqrt(1 - rho**2) * eps) * (hi - lo), formed
        # in column b
        eps = rng.standard_normal(n)
        eps *= math.sqrt(1.0 - plan.rho**2)
        b = out[:, b_idx]
        np.multiply(score, plan.rho, out=b)
        b += eps
        ndtr(b, out=b)
        b *= dist_b.hi - dist_b.lo
        b += dist_b.lo
    else:
        n_set = int(round(plan.fraction * n))
        idx = rng.choice(n, size=n_set, replace=False)
        if plan.sign == "positive":
            out[idx, b_idx] = a[idx]
        else:
            out[idx, b_idx] = (dist_b.lo + dist_b.hi) - a[idx]
    return out


def _dependence_seed(seed, k):
    """The seed with which sample_inputs applies its k-th dependence plan
    (from 0), for a design drawn with seed."""
    return seed + 1000003 * (k + 1)


def sample_inputs(plan, specs, dependence=()):
    """Generate a full input matrix: design points, marginals, dependence.

    The realized row count equals plan.n for MC/QMC and L^K <= plan.n for FFD.
    The matrix is the sampler's own, column-major as transform_marginals
    returns it, and the marginals transform it in place.
    """
    seed, dim = plan.seed, len(specs)
    if plan.method == "QMC":
        matrix = sobol_points(dim, plan.n, plan.scramble, seed)
    elif plan.method == "MC":
        matrix = random_points(dim, plan.n, seed)
    else:
        matrix = full_factorial(dim, plan.n)
    _transform(matrix, specs)
    for k, dep in enumerate(dependence):
        matrix = apply_dependence(matrix, specs, dep, seed=_dependence_seed(seed, k))
    return matrix


def sweep_dependence(model, specs, plan, grid, binning=None):
    """Inputs 0 and 1 of model across a grid of dependence plans: a list of
    (kind, value, pearson, spearman, report), for kind "copula" and then
    "equal_portion", and for each value of grid in turn.

    value is a copula's rho, or an equal portion's fraction with the plan's
    sign. The design is drawn once, as sample_inputs(plan, specs) draws it,
    and each dependence plan perturbs it as sample_inputs(plan, specs,
    dependence=(that plan,)) would. pearson and spearman are those of the
    two columns, and report is analyze(..., binning) of the dataset, or None
    where the model's output is constant.

    Column 0 is the same under every plan. So what the plans and the two
    correlations need of it alone, its copula normal score and its centred
    values and mid-ranks, is computed once for the grid. Each value then
    computes only column 1, its ranks, the output and the report.

    Each value's two correlations and its report are the two items of one
    binning._in_order call, on _workers(2) workers. Where this process may
    use two or more CPUs, the correlations run on a thread started and
    joined within that value, beside the report in the calling thread;
    with one CPU no thread starts. The results are the same bits either
    way, and an error of the correlations surfaces before one of the report.
    """
    design = sample_inputs(plan, specs)
    a = design[:, 0]
    a_score = _copula_score(a, specs[0].distribution)
    a_centred = _centred(a)
    a_ranks = _centred(_mid_ranks(a))
    dep_seed = _dependence_seed(plan.seed, 0)

    def run(kind, value):
        # a function of its own, so that one value's matrix, output and
        # dataset are freed before the next value's are made
        if kind == "copula":
            dep = DependencePlan(kind=kind, pair=(0, 1), rho=value)
        else:
            dep = DependencePlan(kind=kind, pair=(0, 1), fraction=abs(value),
                                 sign="negative" if value < 0 else "positive")
        matrix = apply_dependence(design, specs, dep, dep_seed, a_score)

        def correlations():
            b = matrix[:, 1]
            return (_correlation(a_centred, _centred(b)),
                    _correlation(a_ranks, _centred(_mid_ranks(b))))

        def analysis():
            output = evaluate(model, matrix)
            if output.max() == output.min():
                return None
            return analyze(Dataset(inputs=matrix, output=output, specs=specs), binning)

        results = []
        _in_order(lambda part, _: part(), lambda _, made: results.append(made),
                  [correlations, analysis], [None] * _workers(2))
        (r_pearson, r_spearman), report = results
        return kind, value, r_pearson, r_spearman, report

    return [run(kind, value) for kind in ("copula", "equal_portion") for value in grid]
