import warnings

import numpy as np
import pytest
from scipy.stats import qmc

from binsa import (
    Dataset,
    DependencePlan,
    InputSpec,
    MarginalDistribution,
    SamplingPlan,
    sample_inputs,
)
from binsa.core import pearson
from binsa.sampling import (
    MAX_SOBOL_DIM,
    _lms_shift,
    _sobol_directions,
    apply_dependence,
    full_factorial,
    random_points,
    sobol_points,
    transform_marginals,
)


def test_sobol_unscrambled_starts_at_origin():
    pts = sobol_points(4, 8, scramble=False)
    assert np.all(pts[0] == 0.0)


def test_sobol_first_four_1d_points():
    pts = sobol_points(1, 4, scramble=False)[:, 0]
    assert pts.tolist() == [0.0, 0.5, 0.75, 0.25]


def test_sobol_scrambled_is_seed_deterministic():
    a = sobol_points(6, 1000, scramble=True, seed=42)
    b = sobol_points(6, 1000, scramble=True, seed=42)
    c = sobol_points(6, 1000, scramble=True, seed=43)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sobol_range_and_dim_limits():
    pts = sobol_points(64, 200, scramble=True, seed=0)
    assert pts.shape == (200, 64)
    assert np.all(pts >= 0.0) and np.all(pts < 1.0)
    with pytest.raises(ValueError):
        sobol_points(65, 10)
    with pytest.raises(ValueError):
        sobol_points(0, 10)


_SCRAMBLE_SEEDS = (0, 7, 2**40 + 3)


def test_sobol_points_equal_scipy_bitwise():
    # n = 1 is scipy's first-point path; 2**10 +- 1 end inside, at and just
    # past a Gray-code doubling; 1500 is the oracle's default budget
    ns = (1, 2, 3, 2**10 - 1, 2**10, 2**10 + 1, 1500)
    for dim in range(1, MAX_SOBOL_DIM + 1):
        # the unscrambled sequence ignores the seed, here and in scipy
        for scramble, seeds in ((False, (0,)), (True, _SCRAMBLE_SEEDS)):
            for seed in seeds:
                engine = qmc.Sobol(d=dim, scramble=scramble, seed=seed)
                for n in ns:
                    engine.reset()
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", UserWarning)  # n not a power of 2
                        expected = np.clip(engine.random(n), 0.0, np.nextafter(1.0, 0.0))
                    got = sobol_points(dim, n, scramble=scramble, seed=seed)
                    assert got.dtype == expected.dtype and got.shape == expected.shape
                    assert got.tobytes() == expected.tobytes(), (dim, scramble, seed, n)


def test_sobol_direction_numbers_equal_scipy_in_all_30_bits():
    # A prefix of n points uses only the first ceil(log2 n) direction numbers
    # of each dimension, so compare all 30 with the ones scipy's draw XORs in.
    for dim in range(1, MAX_SOBOL_DIM + 1):
        engine = qmc.Sobol(d=dim, scramble=False)
        assert np.array_equal(_sobol_directions()[:dim], engine._sv)
        for seed in _SCRAMBLE_SEEDS:
            engine = qmc.Sobol(d=dim, scramble=True, seed=seed)
            v, shift = _lms_shift(_sobol_directions()[:dim], seed)
            assert v.dtype == engine._sv.dtype and shift.dtype == engine._shift.dtype
            assert np.array_equal(v, engine._sv), (dim, seed)
            assert np.array_equal(shift, engine._shift), (dim, seed)


def test_sobol_points_beyond_2_pow_30_raise_before_allocating(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("allocated")

    monkeypatch.setattr(np, "empty", refuse)
    for scramble in (False, True):
        with pytest.raises(ValueError, match=r"at most 2\*\*30 Sobol' points"):
            sobol_points(2, 2**30 + 1, scramble=scramble)
    # 2**30 points are allowed, so that call gets as far as allocating
    with pytest.raises(AssertionError, match="allocated"):
        sobol_points(2, 2**30)


def test_sobol_dyadic_stratification():
    # a power-of-two prefix of the sequence puts exactly one point in each
    # dyadic interval of matching resolution
    pts = sobol_points(1, 16, scramble=False)[:, 0]
    counts = np.bincount((pts * 16).astype(int), minlength=16)
    assert np.all(counts == 1)


def test_sobol_lower_discrepancy_than_random():
    n, dim = 1024, 6
    d_qmc = qmc.discrepancy(sobol_points(dim, n, scramble=True, seed=0), method="CD")
    d_mc = qmc.discrepancy(random_points(dim, n, seed=0), method="CD")
    assert d_qmc < d_mc


def test_random_points_seeded():
    assert np.array_equal(random_points(3, 50, seed=5), random_points(3, 50, seed=5))
    assert not np.array_equal(random_points(3, 50, seed=5), random_points(3, 50, seed=6))


def test_full_factorial_levels_and_centers():
    pts = full_factorial(2, 9)
    assert pts.shape == (9, 2)
    # 3 levels per axis at cell centers 1/6, 3/6, 5/6
    assert sorted(set(pts[:, 0])) == pytest.approx([1 / 6, 0.5, 5 / 6])
    # first axis varies slowest
    assert np.all(pts[:3, 0] == pts[0, 0])


def test_full_factorial_budget_never_exceeded():
    for dims in (1, 2, 3, 6):
        for budget in (100, 1000):
            pts = full_factorial(dims, budget)
            assert pts.shape[0] <= budget
    assert full_factorial(2, 4).shape == (4, 2)
    with pytest.raises(ValueError):
        full_factorial(6, 10)  # floor(10^(1/6)) = 1 level


def test_transform_uniform_and_normal():
    u = np.array([[0.0, 0.5], [0.5, 0.9999999999999999], [1.0 - 1e-16, 0.5]])
    specs = (
        InputSpec("a", MarginalDistribution.uniform(-2, 4)),
        InputSpec("b", MarginalDistribution.normal(10, 2)),
    )
    x = transform_marginals(u, specs)
    assert x[0, 0] == -2.0 and x[1, 0] == 1.0
    assert x[0, 1] == 10.0
    assert np.all(np.isfinite(x))
    # extreme quantiles stay clamped
    assert abs(x[1, 1] - 10) <= 2 * 8.2 + 1e-9


def test_transform_categorical_respects_probabilities():
    spec = (InputSpec("c", MarginalDistribution.categorical(("lo", "hi"), (0.25, 0.75))),)
    u = np.linspace(0, 1, 10000, endpoint=False).reshape(-1, 1)
    x = transform_marginals(u, spec)[:, 0]
    assert set(np.unique(x)) == {0.0, 1.0}
    assert np.mean(x == 0.0) == pytest.approx(0.25, abs=1e-3)


def test_copula_preserves_conditioning_column_and_marginal():
    specs = (
        InputSpec("a", MarginalDistribution.uniform(0, 5)),
        InputSpec("b", MarginalDistribution.uniform(0, 5)),
    )
    base = transform_marginals(sobol_points(2, 4096, scramble=True, seed=1), specs)
    plan = DependencePlan(kind="copula", pair=(0, 1), rho=0.75)
    out = apply_dependence(base, specs, plan, seed=9)
    assert np.array_equal(out[:, 0], base[:, 0])
    # column b keeps a uniform marginal on [0, 5]
    assert out[:, 1].min() >= 0.0 and out[:, 1].max() <= 5.0
    hist, _ = np.histogram(out[:, 1], bins=10, range=(0, 5))
    assert hist.min() > 0.7 * 409.6 and hist.max() < 1.3 * 409.6
    # achieved rank correlation near (6/pi) asin(rho/2) = 0.733
    r = pearson(out[:, 0], out[:, 1])
    assert r == pytest.approx(0.733, abs=0.04)


def test_copula_sign_and_zero():
    specs = (
        InputSpec("a", MarginalDistribution.uniform(0, 1)),
        InputSpec("b", MarginalDistribution.uniform(0, 1)),
    )
    base = transform_marginals(sobol_points(2, 4096, scramble=True, seed=2), specs)
    neg = apply_dependence(base, specs, DependencePlan("copula", (0, 1), rho=-0.75), seed=3)
    zero = apply_dependence(base, specs, DependencePlan("copula", (0, 1), rho=0.0), seed=3)
    assert pearson(neg[:, 0], neg[:, 1]) == pytest.approx(-0.733, abs=0.04)
    assert abs(pearson(zero[:, 0], zero[:, 1])) < 0.05


def test_equal_portion_full_positive_duplicates_column():
    specs = (
        InputSpec("a", MarginalDistribution.uniform(0, 5)),
        InputSpec("b", MarginalDistribution.uniform(0, 5)),
    )
    base = transform_marginals(random_points(2, 1000, seed=4), specs)
    plan = DependencePlan("equal_portion", (0, 1), fraction=1.0, sign="positive")
    out = apply_dependence(base, specs, plan, seed=5)
    assert np.array_equal(out[:, 1], out[:, 0])


def test_equal_portion_negative_reflects():
    specs = (
        InputSpec("a", MarginalDistribution.uniform(0, 5)),
        InputSpec("b", MarginalDistribution.uniform(0, 5)),
    )
    base = transform_marginals(random_points(2, 1000, seed=4), specs)
    plan = DependencePlan("equal_portion", (0, 1), fraction=1.0, sign="negative")
    out = apply_dependence(base, specs, plan, seed=5)
    assert np.allclose(out[:, 1], 5.0 - out[:, 0])


def test_equal_portion_half_fraction_touches_half_rows():
    specs = (
        InputSpec("a", MarginalDistribution.uniform(0, 1)),
        InputSpec("b", MarginalDistribution.uniform(0, 1)),
    )
    base = transform_marginals(random_points(2, 2000, seed=6), specs)
    plan = DependencePlan("equal_portion", (0, 1), fraction=0.5, sign="positive")
    out = apply_dependence(base, specs, plan, seed=7)
    touched = np.sum(out[:, 1] == out[:, 0])
    assert touched == 1000


def test_dependence_requires_uniform_marginals():
    specs = (
        InputSpec("a", MarginalDistribution.normal(0, 1)),
        InputSpec("b", MarginalDistribution.uniform(0, 1)),
    )
    with pytest.raises(ValueError, match="uniform marginals"):
        apply_dependence(np.zeros((10, 2)), specs, DependencePlan("copula", (0, 1), rho=0.5))


def test_dependence_plan_validation():
    with pytest.raises(ValueError):
        DependencePlan("copula", (1, 1), rho=0.5)
    with pytest.raises(ValueError):
        DependencePlan("copula", (0, 1), rho=1.5)
    with pytest.raises(ValueError):
        DependencePlan("equal_portion", (0, 1), fraction=1.5)
    with pytest.raises(ValueError):
        DependencePlan("equal_portion", (0, 1), fraction=0.5, sign="up")


def test_sample_inputs_end_to_end():
    specs = (
        InputSpec("a", MarginalDistribution.uniform(0, 5)),
        InputSpec("b", MarginalDistribution.uniform(0, 5)),
    )
    for method in ("MC", "QMC"):
        m = sample_inputs(SamplingPlan(method=method, n=500, seed=1), specs)
        assert m.shape == (500, 2)
        assert m.min() >= 0.0 and m.max() <= 5.0
    ffd = sample_inputs(SamplingPlan(method="FFD", n=500, seed=1), specs)
    assert ffd.shape == (484, 2)  # 22^2 <= 500


@pytest.mark.parametrize("method", ["MC", "QMC", "FFD"])
def test_sample_inputs_is_column_major_and_a_dataset_keeps_it(method):
    specs = (
        InputSpec("a", MarginalDistribution.uniform(0, 5)),
        InputSpec("b", MarginalDistribution.uniform(0, 5)),
        InputSpec("c", MarginalDistribution.normal(0, 1)),
    )
    plan = SamplingPlan(method=method, n=600, seed=2)
    dep = (DependencePlan("copula", (0, 1), rho=0.5),)
    for matrix in (sample_inputs(plan, specs), sample_inputs(plan, specs, dependence=dep)):
        assert matrix.flags.f_contiguous
        ds = Dataset(inputs=matrix, output=matrix.sum(axis=1), specs=specs)
        assert np.shares_memory(ds.inputs, matrix)


def test_sampling_plan_validation():
    with pytest.raises(ValueError):
        SamplingPlan(method="LHS", n=100)
    with pytest.raises(ValueError):
        SamplingPlan(method="MC", n=1)
