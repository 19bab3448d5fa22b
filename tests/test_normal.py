import math
import tracemalloc
import warnings

import numpy as np
import pytest

from binsa import DependencePlan, InputSpec, MarginalDistribution, SamplingPlan, sample_inputs
from binsa.sampling import apply_dependence, transform_marginals
from binsa._normal import BLOCK_ROWS, ndtr, ndtri

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


B = BLOCK_ROWS
# lengths around one block, and one that ends 7 elements into a fourth
BLOCK_EDGE_SIZES = [B - 1, B, B + 1, 3 * B + 7]


def _with_edges_at_block_bounds(values, edges):
    """values with the edge values written over it so that they start and
    end every block of ndtri and ndtr, and the array itself."""
    values = values.copy()
    n = values.size
    block_ends = {s - len(edges) for s in range(B, n, B)}
    for start in sorted({0, n - len(edges)} | set(range(0, n, B)) | block_ends):
        piece = edges[: n - start]
        values[start : start + len(piece)] = piece
    return values


@pytest.mark.parametrize("n", BLOCK_EDGE_SIZES)
def test_ndtri_and_ndtr_equal_scipy_bitwise_across_block_edges(n):
    rng = np.random.default_rng(n)
    # both tails of ndtri's domain as well as its middle
    u = np.concatenate([rng.random(n - n // 4), 10.0 ** rng.uniform(-300, 0, n // 8)])
    u = np.concatenate([u, 1.0 - 10.0 ** rng.uniform(-17, 0, n - u.size)])
    u = _with_edges_at_block_bounds(rng.permutation(u), NDTRI_EDGES)
    x = _with_edges_at_block_bounds(12.0 * rng.standard_normal(n), NDTR_EDGES)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        quantiles, cdf = ndtri(u), ndtr(x)
    assert_bitwise(quantiles, special.ndtri(u))
    assert_bitwise(cdf, special.ndtr(x))
    # a 2-D input is evaluated as its flat elements, in blocks the same
    square = u[: (n // 2) * 2].reshape(-1, 2)
    assert_bitwise(ndtri(square), special.ndtri(square))


@pytest.mark.parametrize("n", BLOCK_EDGE_SIZES)
@pytest.mark.parametrize("order", ["F", "C"], ids=["contiguous", "strided"])
def test_ndtri_and_ndtr_in_place_equal_scipy_bitwise_across_block_edges(n, order):
    # out=x writes each block over the one it was computed from: column 1 of
    # an n x 3 matrix, contiguous in column-major order and strided (three
    # floats apart) in row-major order; columns 0 and 2 are not touched
    rng = np.random.default_rng(n + 1)
    u = _with_edges_at_block_bounds(rng.random(n), NDTRI_EDGES)
    x = _with_edges_at_block_bounds(12.0 * rng.standard_normal(n), NDTR_EDGES)
    for fn, values, ref in ((ndtri, u, special.ndtri), (ndtr, x, special.ndtr)):
        matrix = np.array(np.stack([rng.random(n), values, rng.random(n)], axis=1), order=order)
        before = matrix.copy()
        column = matrix[:, 1]
        assert column.strides == ((8,) if order == "F" else (24,))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fn(column, out=column) is column
        assert_bitwise(column, ref(values))
        assert_bitwise(matrix[:, ::2], before[:, ::2])


@pytest.mark.parametrize("n", BLOCK_EDGE_SIZES)
@pytest.mark.parametrize("method, scramble", [("QMC", True), ("QMC", False), ("MC", True)])
def test_sample_inputs_equals_the_whole_array_formulation(n, method, scramble):
    # the design drawn whole, and each column mapped through its marginal
    # with scipy's ndtri on the whole column at once; the unscrambled
    # sequence starts at the origin, whose normal quantile is clamped
    qmc = pytest.importorskip("scipy.stats.qmc")
    specs = [
        InputSpec("n1", MarginalDistribution.normal(10.0, 2.0)),
        InputSpec("u", MarginalDistribution.uniform(-1.0, 3.0)),
        InputSpec("c", MarginalDistribution.categorical(("a", "b", "c"), (0.2, 0.5, 0.3))),
        InputSpec("n2", MarginalDistribution.normal(-3.0, 0.25)),
    ]
    plan = SamplingPlan(method, n, seed=9, scramble=scramble)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ours = sample_inputs(plan, specs)
    if method == "QMC":
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # scipy asks for a power of 2
            points = qmc.Sobol(len(specs), scramble=scramble, seed=9).random(n)
    else:
        points = np.random.default_rng(9).random((n, len(specs)))
    assert ours.flags.f_contiguous
    for j, spec in enumerate(specs):
        d, u = spec.distribution, points[:, j]
        if d.kind == "normal":
            with np.errstate(divide="ignore"):
                want = d.mean + d.sd * np.clip(special.ndtri(u), -8.2, 8.2)
        elif d.kind == "uniform":
            want = d.lo + u * (d.hi - d.lo)
        else:
            want = np.searchsorted([0.2, 0.7, 1.0], u, side="right").astype(float)
        assert_bitwise(ours[:, j], want)
    # transform_marginals maps a copy and leaves its points as they were
    before = points.copy()
    assert_bitwise(transform_marginals(points, specs), ours)
    assert_bitwise(points, before)


def _peak(call):
    """tracemalloc's peak while call() runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "fn, draw",
    [(ndtri, lambda rng, n: rng.random(n)), (ndtr, lambda rng, n: 12.0 * rng.standard_normal(n))],
    ids=["ndtri", "ndtr"],
)
def test_ndtri_and_ndtr_working_set_does_not_grow_with_rows(fn, draw):
    # the temporaries are a block's, so 4x the values add less than a
    # quarter to the peak beyond the output; the values are random, so that
    # every block takes the same mix of branches
    rng = np.random.default_rng(5)
    small_x, large_x = draw(rng, 20_000), draw(rng, 80_000)
    small = _peak(lambda: fn(small_x)) - 8 * small_x.size
    large = _peak(lambda: fn(large_x)) - 8 * large_x.size
    assert abs(large - small) < small / 4, (small, large)


def test_sample_inputs_working_set_beyond_its_matrix_does_not_grow_with_rows():
    # the points and the marginals' temporaries are a block's, so 4x the
    # rows add less than a quarter to the peak beyond the matrix
    specs = [InputSpec(f"x{i}", MarginalDistribution.normal(i, 1.0 + i)) for i in range(6)]
    sample_inputs(SamplingPlan("QMC", 1000, seed=3), specs)  # build the cached tables
    small, large = [
        _peak(lambda: sample_inputs(SamplingPlan("QMC", n, seed=3), specs)) - 8 * 6 * n
        for n in (20_000, 80_000)
    ]
    assert abs(large - small) < small / 4, (small, large)
