import math
import warnings

import numpy as np
import pytest

from binsa import DependencePlan, InputSpec, MarginalDistribution
from binsa.sampling import apply_dependence, transform_marginals
from binsa._normal import ndtr, ndtri

special = pytest.importorskip("scipy.special")

EXP_M2 = 0.13533528323661269189

# the branch points of ndtri (0, 1, exp(-2), 1 - exp(-2), exp(-32)) and the
# floats next to them, the smallest subnormal, and values outside [0, 1]
NDTRI_EDGES = [
    0.0, -0.0, 1.0, 5e-324, 1e-300, 0.5, 1.5, -1e-300, np.inf, -np.inf, np.nan,
    *(np.nextafter(v, d) for v in (EXP_M2, 1.0 - EXP_M2, math.exp(-32.0)) for d in (0.0, 1.0)),
    EXP_M2, 1.0 - EXP_M2, math.exp(-32.0), np.nextafter(1.0, 0.0),
]
# the branch points of ndtr (|x| = 1, sqrt(2), 8 sqrt(2), sqrt(2 MAXLOG)) and
# far out
NDTR_EDGES = [
    0.0, -0.0, 1.0, -1.0, 8.0, -8.0, 38.5, -38.5, 40.0, -40.0, 1e300, -1e300,
    np.inf, -np.inf, np.nan, math.sqrt(2.0), -math.sqrt(2.0), np.nextafter(math.sqrt(2.0), 0.0),
    8.0 * math.sqrt(2.0), -8.0 * math.sqrt(2.0), 37.67, -37.67, 37.68, -37.68,
]


def assert_bitwise(ours, ref):
    # NaN is NaN whatever its sign bit; every other float must match exactly
    ours, ref = np.asarray(ours, dtype=float), np.asarray(ref, dtype=float)
    assert ours.shape == ref.shape
    same = (ours.view(np.int64) == ref.view(np.int64)) | (np.isnan(ours) & np.isnan(ref))
    bad = np.flatnonzero(~same.ravel())
    assert bad.size == 0, (bad.size, ours.ravel()[bad[:5]], ref.ravel()[bad[:5]])


def test_ndtri_equals_scipy_bitwise():
    rng = np.random.default_rng(20240601)
    u = np.concatenate([
        rng.random(800_000),
        # down the lower tail to 1e-300, and up the upper one to 1 - 1e-17
        10.0 ** rng.uniform(-300.0, 0.0, 100_000),
        1.0 - 10.0 ** rng.uniform(-17.0, 0.0, 100_000),
        NDTRI_EDGES,
    ])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ours = ndtri(u)
    assert_bitwise(ours, special.ndtri(u))


def test_ndtr_equals_scipy_bitwise():
    rng = np.random.default_rng(20240602)
    x = np.concatenate([
        rng.standard_normal(500_000), 12.0 * rng.standard_normal(500_000), NDTR_EDGES,
    ])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ours = ndtr(x)
    assert_bitwise(ours, special.ndtr(x))


def test_ndtri_and_ndtr_keep_shape_and_take_scalars():
    u = np.array([[0.1, 0.5], [0.9, 0.999]])
    assert_bitwise(ndtri(u), special.ndtri(u))
    assert_bitwise(ndtr(u), special.ndtr(u))
    assert ndtri(0.975).shape == () and float(ndtri(0.975)) == special.ndtri(0.975)
    assert ndtr(-1.5).shape == () and float(ndtr(-1.5)) == special.ndtr(-1.5)
    assert ndtri(np.empty(0)).shape == (0,) and ndtr(np.empty(0)).shape == (0,)


def test_normal_marginal_equals_the_scipy_formula_bitwise():
    rng = np.random.default_rng(7)
    # 0 is the quantile's -inf, clamped to -8.2 standard deviations
    points = np.concatenate([rng.random((50_000, 2)), [[0.0, 0.5]]])
    specs = [
        InputSpec("a", MarginalDistribution.normal(10.0, 2.0)),
        InputSpec("b", MarginalDistribution.normal(-3.0, 0.25)),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ours = transform_marginals(points, specs)
    for j, spec in enumerate(specs):
        with np.errstate(divide="ignore"):
            z = np.clip(special.ndtri(points[:, j]), -8.2, 8.2)
        dist = spec.distribution
        assert_bitwise(ours[:, j], dist.mean + dist.sd * z)


@pytest.mark.parametrize("rho", [-0.75, 0.0, 0.3, 1.0])
def test_copula_equals_the_scipy_formula_bitwise(rho):
    rng = np.random.default_rng(11)
    n = 50_000
    base = np.column_stack([2.0 + 3.0 * rng.random(n), rng.random(n)])
    specs = [
        InputSpec("a", MarginalDistribution.uniform(2.0, 5.0)),
        InputSpec("b", MarginalDistribution.uniform(-1.0, 1.0)),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ours = apply_dependence(base, specs, DependencePlan("copula", (0, 1), rho=rho), seed=4)
    za = special.ndtri(np.clip((base[:, 0] - 2.0) / 3.0, 1e-16, 1.0 - 1e-16))
    eps = np.random.default_rng(4).standard_normal(n)
    ub = special.ndtr(rho * za + math.sqrt(1.0 - rho**2) * eps)
    assert_bitwise(ours[:, 0], base[:, 0])
    assert_bitwise(ours[:, 1], -1.0 + ub * 2.0)
