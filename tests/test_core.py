import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.stats import rankdata

import binsa
from binsa import BinningConfig, Dataset, InputSpec, MarginalDistribution, analyze
from binsa.core import (
    SensitivityReport,
    _COPY_BLOCK_ROWS,
    _mid_ranks,
    column_major,
    pearson,
    spearman,
    stable_mean,
    stable_sum,
    stable_variance,
)


def test_stable_sum_matches_exact_value():
    assert stable_sum([1.0, 2.0, 3.5]) == 6.5


def test_stable_sum_is_permutation_invariant_bitwise():
    rng = np.random.default_rng(7)
    v = rng.normal(size=10001) * 1e8 + rng.normal(size=10001)
    s1 = stable_sum(v)
    s2 = stable_sum(v[::-1].copy())
    s3 = stable_sum(rng.permutation(v))
    assert s1 == s2 == s3


def _tied_signed_zero_vector(rng, n):
    """n floats from a few distinct values, a third of them +0.0 or -0.0."""
    v = rng.choice(np.array([-2.5, -1e-300, 0.1, 3.0, 1e16]), size=n)
    zeros = rng.random(n) < 1 / 3
    v[zeros] = np.where(rng.random(n) < 0.5, 0.0, -0.0)[zeros]
    return v


@pytest.mark.parametrize("n", [7, 8, 9, 127, 128, 129, 100_000])
def test_stable_sum_matches_stable_sort_bitwise(n):
    rng = np.random.default_rng(n)
    cases = [
        _tied_signed_zero_vector(rng, n),
        rng.normal(size=n).round(1),
        np.where(rng.random(n) < 0.5, 0.0, -0.0),
        np.full(n, -0.0),
    ]
    for v in cases:
        expected = float(np.sum(np.sort(v, kind="stable")))
        assert np.float64(stable_sum(v)).tobytes() == np.float64(expected).tobytes()


def test_stable_mean_and_variance_hand_case():
    v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
    assert stable_mean(v) == 5.0
    assert stable_variance(v) == 4.0  # classic population-variance example


def test_stable_mean_empty_raises():
    with pytest.raises(ValueError):
        stable_mean([])


def _one_input_first_order(x, y, n_bins):
    spec = InputSpec("x", MarginalDistribution.uniform(0, 20))
    ds = Dataset(inputs=np.asarray(x)[:, None], output=np.asarray(y), specs=(spec,))
    with pytest.warns(UserWarning, match="sparse bins"):  # a hand case of a few rows
        rep = analyze(ds, BinningConfig(n_bins_first=n_bins, n_bins_second_per_dim=2))
    return rep.first_order[0], rep.var_y


def test_weighted_variance_hand_case():
    # analyze's occupancy-weighted variance of bin means. 4 equal-width bins
    # over the observed [2, 6]: means 1, 3, (empty), 6 with counts 2, 4, 0, 2;
    # grand mean = (2+12+12)/8 = 3.25
    # V = (2*(1-3.25)^2 + 4*(3-3.25)^2 + 2*(6-3.25)^2) / 8
    #   = (10.125 + 0.25 + 15.125) / 8 = 3.1875
    s, var_y = _one_input_first_order(
        [2.0, 2.5, 3.0, 3.25, 3.5, 3.75, 5.5, 6.0], [0.0, 2.0, 2.0, 3.0, 3.0, 4.0, 5.0, 7.0], 4
    )
    assert var_y == 3.9375
    assert s == 3.1875 / 3.9375


def test_weighted_variance_ignores_empty_bins():
    # 3 bins over [0, 3]: means 1, (empty), 6 with counts 2, 0, 2; grand mean 3.5
    s, var_y = _one_input_first_order([0.0, 0.5, 2.5, 3.0], [0.0, 2.0, 5.0, 7.0], 3)
    assert var_y == 7.25
    assert s == (2 * 6.25 + 2 * 6.25) / 4 / 7.25


def test_pearson_exact_on_linear_data():
    x = np.arange(10.0)
    assert pearson(x, 3.0 * x - 2.0) == 1.0
    assert pearson(x, -0.5 * x + 4.0) == -1.0


def test_pearson_hand_case():
    x = [1.0, 2.0, 3.0]
    y = [1.0, 2.0, 4.0]
    # dx = [-1, 0, 1], dy = [-4/3, -1/3, 5/3]: r = 3 / sqrt(2 * 14/3)
    expected = 3.0 / np.sqrt(2.0 * (14.0 / 3.0))
    assert pearson(x, y) == pytest.approx(expected, abs=1e-15)


def test_pearson_degenerate_raises():
    with pytest.raises(ValueError, match="degenerate correlation"):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pearson_rejects_non_finite_values(bad):
    # min(1, max(-1, nan)) is -1.0: a NaN must not come back as a correlation
    with pytest.raises(ValueError, match="pearson requires finite values"):
        pearson([1.0, 2.0, bad, 4.0], [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError, match="pearson requires finite values"):
        pearson([1.0, 2.0, 3.0, 4.0], [1.0, bad, 3.0, 4.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_spearman_rejects_non_finite_values(bad):
    with pytest.raises(ValueError, match="spearman requires finite values"):
        spearman([1.0, 2.0, bad, 4.0], [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError, match="spearman requires finite values"):
        spearman([1.0, 2.0, 3.0, 4.0], [1.0, bad, 3.0, 4.0])


def test_spearman_on_monotone_nonlinear_data():
    x = np.linspace(0, 1, 50)
    assert spearman(x, np.exp(5 * x)) == pytest.approx(1.0)
    assert spearman(x, -np.exp(5 * x)) == pytest.approx(-1.0)


def test_spearman_ties_use_mid_ranks():
    assert spearman([1, 1, 2, 2], [1, 1, 2, 2]) == pytest.approx(1.0)


def test_mid_ranks_equal_scipy_rankdata_bitwise():
    rng = np.random.default_rng(11)
    cases = [
        rng.normal(size=1000),
        rng.integers(0, 20, size=1000).astype(float),
        _tied_signed_zero_vector(rng, 1000),
        np.array([0.0, -0.0, 0.0, -0.0, 1.0, -1.0]),
        np.full(50, 4.0),
        np.array([3.0]),
        np.array([2.0, np.nan, 1.0, 2.0]),
        # no ties; tied runs that meet, at both ends and across the middle
        rng.permutation(1000).astype(float),
        rng.permutation(np.repeat([1.0, 2.0, 3.0, 5.0], [3, 2, 4, 1])),
        np.array([1.0, 1.0, 2.0, 3.0, 3.0]),
        np.array([7.0, 7.0]),
        np.array([-0.0, 0.0]),
        np.array([1.0, np.nan]),
        np.array([np.nan, np.nan, 0.0]),
        np.empty(0),
    ]
    for _ in range(50):
        cases.append(rng.integers(0, rng.integers(1, 50), size=rng.integers(2, 500)) * 0.1)
    for v in cases:
        assert _mid_ranks(v).tobytes() == rankdata(v, method="average").tobytes()


def test_mid_ranks_of_ties_leave_numpy_ma_unimported():
    # np.union1d imports numpy.ma, which no binsa command loads otherwise
    src = os.path.dirname(os.path.dirname(binsa.__file__))
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from binsa.core import spearman\n"
        "x = np.repeat(np.arange(50.0), 4)\n"
        "assert spearman(x, x[::-1].copy()) == -1.0\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported'\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_marginal_constructors_validate():
    MarginalDistribution.uniform(0, 1)
    MarginalDistribution.normal(0, 1)
    MarginalDistribution.categorical(("a", "b"), (0.5, 0.5))
    with pytest.raises(ValueError):
        MarginalDistribution.uniform(1, 1)
    with pytest.raises(ValueError):
        MarginalDistribution.normal(0, 0)
    with pytest.raises(ValueError):
        MarginalDistribution.categorical(("a", "b"), (0.5, 0.6))
    with pytest.raises(ValueError):
        MarginalDistribution("weird")


def _specs(k):
    return tuple(
        InputSpec(name=f"x{i}", distribution=MarginalDistribution.uniform(0, 1)) for i in range(k)
    )


def test_dataset_validation():
    x = np.random.default_rng(0).random((5, 2))
    y = x.sum(axis=1)
    ds = Dataset(inputs=x, output=y, specs=_specs(2))
    assert ds.n_rows == 5 and ds.n_inputs == 2
    assert ds.names == ("x0", "x1")
    with pytest.raises(ValueError):
        Dataset(inputs=x, output=y[:-1], specs=_specs(2))
    with pytest.raises(ValueError):
        Dataset(inputs=x, output=y, specs=_specs(3))
    bad = x.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        Dataset(inputs=bad, output=y, specs=_specs(2))


def _categorical_dataset(codes):
    specs = (InputSpec("c", MarginalDistribution.categorical(("a", "b", "c"), (0.5, 0.3, 0.2))),)
    codes = np.asarray(codes, dtype=float)
    return Dataset(inputs=codes[:, None], output=np.arange(codes.size, dtype=float), specs=specs)


def test_dataset_rejects_non_integer_categorical_code():
    assert _categorical_dataset([0, 2, 1, 2]).n_rows == 4
    with pytest.raises(ValueError, match=r"column 'c', row 2: 1\.7 is not a level code in 0\.\.2"):
        _categorical_dataset([0, 1, 1.7, 2])


def test_dataset_rejects_out_of_range_categorical_code():
    with pytest.raises(ValueError, match=r"column 'c', row 3: 5\.0 is not a level code"):
        _categorical_dataset([0, 1, 2, 5.0, 7.0])
    with pytest.raises(ValueError, match=r"column 'c', row 0: -1\.0 is not a level code"):
        _categorical_dataset([-1, 1, 2])


def test_dataset_arrays_are_read_only():
    x = np.random.default_rng(0).random((5, 2))
    ds = Dataset(inputs=x, output=x.sum(axis=1), specs=_specs(2))
    with pytest.raises(ValueError):
        ds.inputs[0, 0] = 1.0


@pytest.mark.parametrize("rows", [1, 5, _COPY_BLOCK_ROWS, 3 * _COPY_BLOCK_ROWS + 7])
def test_column_major_copy_equals_asfortranarray_bitwise(rows):
    # C-ordered, strided (every other column of a wider matrix, every other
    # row) and integer inputs; row counts below, at and off a block multiple
    wide = np.random.default_rng(rows).standard_normal((2 * rows, 13))
    for matrix in (wide[:rows], wide[:rows, ::2], wide[::2, 1:], wide[:rows].astype(np.int64)):
        got = column_major(matrix)
        assert got.flags.f_contiguous and got.dtype == np.float64
        assert np.array_equal(got.view(np.int64), np.asfortranarray(matrix, dtype=float).view(np.int64))
        # only a float matrix that is already column-major (one row) is kept
        kept = matrix.flags.f_contiguous and matrix.dtype == np.float64
        assert np.shares_memory(got, matrix) == kept
    fortran = np.asfortranarray(wide)
    assert column_major(fortran) is fortran


def test_report_requires_exact_symmetry_and_zero_diagonal():
    so = np.zeros((2, 2))
    SensitivityReport(
        names=("a", "b"),
        first_order=np.array([0.5, 0.5]),
        second_order=so,
        combined=np.array([0.5, 0.5]),
        var_y=1.0,
        n_bins_first=10,
        n_bins_second_per_dim=4,
    )
    asym = so.copy()
    asym[0, 1] = 0.1
    with pytest.raises(ValueError):
        SensitivityReport(
            names=("a", "b"),
            first_order=np.array([0.5, 0.5]),
            second_order=asym,
            combined=np.array([0.5, 0.5]),
            var_y=1.0,
            n_bins_first=10,
            n_bins_second_per_dim=4,
        )
