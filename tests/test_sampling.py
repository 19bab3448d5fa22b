import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.stats import qmc

import binsa
from binsa import (
    BinningConfig,
    Dataset,
    DependencePlan,
    InputSpec,
    MarginalDistribution,
    SamplingPlan,
    analyze,
    default_specs,
    evaluate,
    get_model,
    sample_inputs,
)
from binsa._normal import BLOCK_ROWS
from binsa.core import pearson, spearman
from binsa.sampling import (
    MAX_SOBOL_DIM,
    _copula_score,
    _lms_shift,
    _sobol_directions,
    apply_dependence,
    full_factorial,
    random_points,
    sobol_points,
    sweep_dependence,
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


@pytest.mark.parametrize("order", ["F", "C"])
@pytest.mark.parametrize("plan", [
    DependencePlan("copula", (0, 2), rho=0.6),
    DependencePlan("copula", (2, 0), rho=-0.9),
    DependencePlan("equal_portion", (0, 2), fraction=0.4, sign="negative"),
], ids=["copula-0.6", "copula-minus-0.9", "equal-portion"])
def test_apply_dependence_given_the_score_is_the_same_bits(order, plan):
    # a caller that applies many plans to one matrix passes column a's
    # copula score; the copula is then formed in column b, which a row-major
    # matrix strides, across more than one block of the normal functions
    specs = (
        InputSpec("a", MarginalDistribution.uniform(2, 5)),
        InputSpec("n", MarginalDistribution.normal(0, 1)),
        InputSpec("b", MarginalDistribution.uniform(-1, 3)),
    )
    base = np.array(transform_marginals(random_points(3, 2 * BLOCK_ROWS + 5, seed=8), specs),
                    order=order)
    kept = base.copy()
    a = plan.pair[0]
    score = _copula_score(base[:, a], specs[a].distribution)
    got = apply_dependence(base, specs, plan, seed=4, score=score)
    want = apply_dependence(base, specs, plan, seed=4)
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(base, kept)


def test_sweep_dependence_calls_apply_dependence_with_the_score(monkeypatch):
    # one call per plan of the grid, each given column 0's copula score
    calls = []
    apply = binsa.sampling.apply_dependence

    def spy(matrix, specs, plan, seed=0, score=None):
        calls.append((plan.kind, plan.rho, plan.fraction, plan.sign, score))
        return apply(matrix, specs, plan, seed, score)

    monkeypatch.setattr(binsa.sampling, "apply_dependence", spy)
    model = get_model("two_factor_additive")
    specs = default_specs(model)
    plan = SamplingPlan("QMC", 2000, seed=4)
    sweep_dependence(model, specs, plan, (-0.5, 0.25))
    assert [call[:4] for call in calls] == [
        ("copula", -0.5, 0.0, "positive"), ("copula", 0.25, 0.0, "positive"),
        ("equal_portion", 0.0, 0.5, "negative"), ("equal_portion", 0.0, 0.25, "positive"),
    ]
    design = sample_inputs(plan, specs)
    score = _copula_score(design[:, 0], specs[0].distribution)
    assert all(call[4].tobytes() == score.tobytes() for call in calls)


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
    # the sampler itself writes the column-major matrix, with the points of
    # the row-major formulation, past a block of BLOCK_ROWS rows
    n = 2 * BLOCK_ROWS + 5
    if method == "QMC":
        got = sobol_points(3, n, scramble=True, seed=2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # n not a power of 2
            rows = qmc.Sobol(d=3, scramble=True, seed=2).random(n)
        expected = np.clip(rows, 0.0, np.nextafter(1.0, 0.0))
    elif method == "MC":
        got = random_points(3, n, seed=2)
        expected = np.random.default_rng(2).random((n, 3))
    else:
        got = full_factorial(3, n)
        axis = (2 * np.arange(32) + 1) / 64  # 32**3 <= n < 33**3
        grids = np.meshgrid(axis, axis, axis, indexing="ij")
        expected = np.stack([g.ravel() for g in grids], axis=1)
    assert got.flags.f_contiguous and expected.flags.c_contiguous
    assert got.tobytes() == expected.tobytes()


def test_full_factorial_allocates_only_its_matrix():
    full_factorial(3, 1000)  # what numpy loads on a first call
    tracemalloc.start()
    try:
        pts = full_factorial(3, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * pts.nbytes, (peak, pts.nbytes)


def test_sampling_plan_validation():
    with pytest.raises(ValueError):
        SamplingPlan(method="LHS", n=100)
    with pytest.raises(ValueError):
        SamplingPlan(method="MC", n=1)


def _bits(kind, value, r_pearson, r_spearman, report):
    """A sweep row with every float as its exact bits."""
    if report is not None:
        report = (report.first_order.tobytes(), report.second_order.tobytes(),
                  report.combined.tobytes(), report.var_y.hex(), report.n_bins_first,
                  report.n_bins_second_per_dim, report.warnings)
    return kind, value, r_pearson.hex(), r_spearman.hex(), report


@pytest.mark.parametrize("method, binning", [("QMC", None), ("MC", BinningConfig(12)),
                                             ("FFD", None)])
def test_sweep_dependence_equals_plain_calls_on_each_plan(method, binning):
    # what column a shares across the grid is computed once; each row must
    # still be what the public calls give for its plan alone
    model = get_model("two_factor_additive")
    specs = default_specs(model)
    plan = SamplingPlan(method, 2000, seed=4)
    grid = (-1.0, 0.0, 1.0)
    got = sweep_dependence(model, specs, plan, grid, binning)
    expected = []
    for kind in ("copula", "equal_portion"):
        for value in grid:
            if kind == "copula":
                dep = DependencePlan(kind, (0, 1), rho=value)
            else:
                dep = DependencePlan(kind, (0, 1), fraction=abs(value),
                                     sign="negative" if value < 0 else "positive")
            x = sample_inputs(plan, specs, dependence=(dep,))
            y = evaluate(model, x)
            report = None
            if y.max() != y.min():
                report = analyze(Dataset(inputs=x, output=y, specs=specs), binning)
            expected.append((kind, value, pearson(x[:, 0], x[:, 1]), spearman(x[:, 0], x[:, 1]),
                             report))
    assert [_bits(*row) for row in got] == [_bits(*row) for row in expected]
    # A + (5 - A) is constant under the full negative equal portion
    assert [row[4] is None for row in got] == [False] * 3 + [True, False, False]


def test_sweep_dependence_frees_each_value_before_the_next():
    # the grid's values share only the design and column a's cache, so
    # seven values peak no higher than one
    model = get_model("two_factor_multiplicative")
    specs = default_specs(model)
    plan = SamplingPlan("QMC", 20_000, seed=1)

    def peak(grid):
        tracemalloc.start()
        try:
            sweep_dependence(model, specs, plan, grid)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    grid = (-0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75)
    sweep_dependence(model, specs, plan, grid)  # what numpy loads on a first call
    one = peak((0.5,))
    seven = peak(grid)
    assert seven <= 1.25 * one, (one, seven)


def test_sweep_dependence_is_the_same_bits_on_any_cpu_count(monkeypatch):
    # on a short switch interval the correlations' thread and the report
    # interleave as much as they can
    model = get_model("two_factor_multiplicative")
    specs = default_specs(model)
    plan = SamplingPlan("QMC", 5000, seed=3)
    grid = (-1.0, -0.5, 0.0, 0.5, 1.0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runs = []
        for cpus in (1, 2, 4):
            monkeypatch.setattr(binsa.binning, "_usable_cpus", lambda cpus=cpus: cpus)
            runs.append([_bits(*row) for row in sweep_dependence(model, specs, plan, grid)])
    finally:
        sys.setswitchinterval(interval)
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("cpus", [1, 2])
def test_sweep_dependence_raises_the_correlations_error_first(monkeypatch, cpus):
    # on a column a of width 1e-300 the correlations are degenerate (its
    # sum of squares underflows to 0) and so is each report (a "constant
    # output": the output variance underflows too); as when the two ran in
    # turn, the correlations' error is the one that surfaces
    model = get_model("two_factor_multiplicative")
    specs = (InputSpec("A", MarginalDistribution.uniform(0.0, 1e-300)),) + default_specs(model)[1:]
    monkeypatch.setattr(binsa.binning, "_usable_cpus", lambda: cpus)
    with pytest.raises(ValueError, match="degenerate correlation"):
        sweep_dependence(model, specs, SamplingPlan("QMC", 1000, seed=1), (0.5,))


def test_sweep_dependence_starts_one_thread_per_value_only_on_two_cpus():
    src = os.path.dirname(os.path.dirname(binsa.__file__))
    code = (
        "import threading\n"
        "from binsa import SamplingPlan, default_specs, get_model, binning\n"
        "from binsa.sampling import sweep_dependence\n"
        "starts = []\n"
        "start = threading.Thread.start\n"
        "threading.Thread.start = lambda self: starts.append(self) or start(self)\n"
        "model = get_model('two_factor_multiplicative')\n"
        "args = (model, default_specs(model), SamplingPlan('QMC', 2000, seed=1), (-0.5, 0.0, 0.5))\n"
        "binning._usable_cpus = lambda: 1\n"
        "sweep_dependence(*args)\n"
        "assert not starts, 'thread started'\n"
        "binning._usable_cpus = lambda: 2\n"
        "sweep_dependence(*args)\n"
        "assert len(starts) == 6, starts  # two kinds of plan, three values each\n"
        "assert threading.active_count() == 1, 'thread left running'\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
