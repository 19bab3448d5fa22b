import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from binsa import (
    BinningConfig,
    Dataset,
    InputSpec,
    MarginalDistribution,
    SamplingPlan,
    analyze,
    conservation_check,
    default_specs,
    evaluate,
    get_model,
    sample_inputs,
)
import binsa
from binsa import binning
from binsa.binning import bin_count_first, bin_count_second_per_dim
from binsa.core import stable_mean, stable_variance
from binsa.io import report_to_dict
from test_core import _tied_signed_zero_vector
from test_golden import CASES

_TABLE = {
    (1000, 3): 10, (1000, 6): 10, (1000, 12): 10,
    (2500, 3): 25, (2500, 6): 10, (2500, 12): 10,
    (5000, 3): 50, (5000, 6): 10, (5000, 12): 10,
    (7500, 3): 50, (7500, 6): 25, (7500, 12): 10,
    (10000, 3): 50, (10000, 6): 50, (10000, 12): 10,
    (25000, 3): 100, (25000, 6): 50, (25000, 12): 25,
    (50000, 3): 100, (50000, 6): 50, (50000, 12): 50,
}


def test_bin_count_first_reproduces_reference_grid():
    for (n, k), expected in _TABLE.items():
        assert bin_count_first(n, k) == expected, (n, k)


def test_bin_count_first_clamping():
    assert bin_count_first(500, 3) == 10
    assert bin_count_first(100000, 12) == 50
    assert bin_count_first(1000000, 3) == 100
    assert bin_count_first(1000, 1) == 10
    assert bin_count_first(50000, 24) == 50


def test_bin_count_first_interpolates_between_grid_points():
    v = bin_count_first(1750, 3)
    assert 10 <= v <= 25
    assert bin_count_first(1000, 4) in range(10, 11)


def test_bin_count_first_rejects_tiny_samples():
    with pytest.raises(ValueError, match="sample too small"):
        bin_count_first(50, 3)


def test_bin_count_second_rule():
    assert bin_count_second_per_dim(1000) == 4
    assert bin_count_second_per_dim(10000) == 13
    assert bin_count_second_per_dim(100000) == 41
    assert bin_count_second_per_dim(240) == 2
    with pytest.raises(ValueError):
        bin_count_second_per_dim(50)


def _uniform_dataset(columns, y):
    specs = tuple(
        InputSpec(f"x{i + 1}", MarginalDistribution.uniform(0, 1)) for i in range(len(columns))
    )
    return Dataset(inputs=np.column_stack(columns), output=y, specs=specs)


def test_bin_edges_equal_width_over_observed_range():
    # 4 bins over the observed [2, 10], not the spec's [0, 20]: edges 2, 4, 6,
    # 8, 10, left-closed and rightmost inclusive. y is constant on each of
    # those bins, so the index is exactly 1 only with these edges
    spec = InputSpec("x", MarginalDistribution.uniform(0, 20))
    x = np.array([2.0, 3.9, 4.0, 6.0, 8.0, 10.0])
    y = np.array([0.0, 0.0, 1.0, 2.0, 3.0, 3.0])
    ds = Dataset(inputs=x[:, None], output=y, specs=(spec,))
    with pytest.warns(UserWarning, match="sparse bins"):
        rep = analyze(ds, BinningConfig(n_bins_first=4, n_bins_second_per_dim=2))
    assert rep.first_order[0] == 1.0
    const = Dataset(inputs=np.full((2, 1), 3.0), output=np.array([0.0, 1.0]), specs=(spec,))
    with pytest.warns(UserWarning, match="degenerate"):
        rep = analyze(const, BinningConfig(n_bins_first=4, n_bins_second_per_dim=2))
    assert rep.first_order[0] == 0.0


def test_first_order_identity_map_is_near_one():
    # y = x explained almost completely by binning x; residual is the
    # within-bin variance of a uniform slice: 1 - 1/nb^2 with equal-width bins
    x = np.linspace(0, 1, 10001)
    rep = analyze(_uniform_dataset([x], x), BinningConfig(n_bins_first=10, n_bins_second_per_dim=2))
    s = rep.first_order[0]
    assert s == pytest.approx(1.0 - 1.0 / 100, abs=1e-3)
    assert s >= 0.98


def test_first_order_independent_noise_is_near_zero():
    rng = np.random.default_rng(0)
    x = rng.random(20000)
    y = rng.normal(size=20000)
    rep = analyze(_uniform_dataset([x], y), BinningConfig(n_bins_first=10, n_bins_second_per_dim=2))
    assert abs(rep.first_order[0]) < 0.01


def test_first_order_rightmost_bin_inclusive():
    # the maximum lands in the last bin, not out of range: with the 0.5 there,
    # 3 of the 4 rows
    x = np.array([0.0, 0.5, 1.0, 1.0])
    y = np.array([0.0, 1.0, 2.0, 2.0])
    ds = _uniform_dataset([x], y)
    with pytest.warns(UserWarning) as record:
        rep = analyze(ds, BinningConfig(n_bins_first=2, n_bins_second_per_dim=2))
    assert np.isfinite(rep.first_order[0])
    notes = ("sparse bins: nb exceeds N/5",
             "skewed bins: column 'x1' has 75 % of its rows in one of 2 bins")
    assert rep.warnings == notes
    assert tuple(str(w.message) for w in record) == notes


def test_first_order_constant_output_raises():
    ds = _uniform_dataset([np.arange(10.0)], np.ones(10))
    with pytest.raises(ValueError, match="constant output"):
        analyze(ds, BinningConfig(n_bins_first=2, n_bins_second_per_dim=2))


def test_second_order_pure_interaction():
    # y = sign(x1-.5)*sign(x2-.5): zero first-order, all variance in the pair
    rng = np.random.default_rng(1)
    x1, x2 = rng.random(40000), rng.random(40000)
    y = np.sign(x1 - 0.5) * np.sign(x2 - 0.5)
    rep = analyze(
        _uniform_dataset([x1, x2], y), BinningConfig(n_bins_first=8, n_bins_second_per_dim=8)
    )
    assert abs(rep.first_order[0]) < 0.01
    assert rep.second_order[0, 1] == pytest.approx(1.0, abs=0.02)


def test_second_order_additive_is_near_zero():
    rng = np.random.default_rng(2)
    x1, x2 = rng.random(40000), rng.random(40000)
    rep = analyze(
        _uniform_dataset([x1, x2], x1 + x2), BinningConfig(n_bins_first=8, n_bins_second_per_dim=8)
    )
    assert abs(rep.second_order[0, 1]) < 0.01


def test_second_order_sparse_grid_warns():
    # 3 pairs share one 10 x 10 grid over 300 rows: warned and recorded once
    rng = np.random.default_rng(3)
    x1, x2, x3 = rng.random(300), rng.random(300), rng.random(300)
    ds = _uniform_dataset([x1, x2, x3], x1 * x2 + x3)
    with pytest.warns(UserWarning, match="sparse grid") as record:
        rep = analyze(ds, BinningConfig(n_bins_second_per_dim=10))
    assert [str(w.message) for w in record] == ["sparse grid: m^2 exceeds N/5"]
    assert rep.warnings == ("sparse grid: m^2 exceeds N/5",)


def test_first_order_sparse_bins_warn_once():
    # nb = 61 over 300 rows is above N/5 = 60: one note for both numeric
    # inputs; nb = 60 is not above it, and bins by level take no nb
    rng = np.random.default_rng(4)
    x1, x2 = rng.random(300), rng.random(300)
    ds = _uniform_dataset([x1, x2], x1 + x2)
    note = "sparse bins: nb exceeds N/5"
    with pytest.warns(UserWarning, match="sparse bins") as record:
        rep = analyze(ds, BinningConfig(n_bins_first=61, n_bins_second_per_dim=2))
    assert [str(w.message) for w in record] == [note]
    assert rep.warnings == (note,)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert analyze(ds, BinningConfig(n_bins_first=60, n_bins_second_per_dim=2)).warnings == ()
        levels = ("x", "y", "z")
        cat = Dataset(
            inputs=rng.integers(0, 3, size=(300, 2)).astype(float),
            output=rng.random(300),
            specs=tuple(
                InputSpec(n, MarginalDistribution.categorical(levels, (1 / 3,) * 3))
                for n in ("a", "b")
            ),
        )
        assert analyze(cat, BinningConfig(n_bins_first=61)).warnings == ()


@pytest.mark.parametrize("config", [None, BinningConfig(n_bins_first=41)],
                         ids=["nb_83_m_41", "nb_equal_m_41"])
def test_skewed_bins_note_names_only_a_column_with_most_rows_in_one_bin(config):
    # x1 = exp(1.5 z) puts most rows in its first equal-width bin; a uniform,
    # a normal and a balanced two-valued column (half its rows in each end
    # bin) do not fire. The note's share is that of the bins the first-order
    # index is computed from, at nb or, when nb = m, at m.
    n = 100_000
    rng = np.random.default_rng(3)
    z1, z2 = rng.standard_normal((2, n))
    columns = [np.exp(1.5 * z1), z2, rng.random(n), np.tile([0.0, 1.0], n // 2)]
    ds = _uniform_dataset(columns, z1 + z2 + columns[2] + columns[3])
    with pytest.warns(UserWarning, match="skewed bins") as record:
        rep = analyze(ds, config)
    nb = rep.n_bins_first
    assert (nb, rep.n_bins_second_per_dim) == ((83, 41) if config is None else (41, 41))
    share = np.histogram(columns[0], bins=nb)[0].max() / n
    note = f"skewed bins: column 'x1' has {100 * share:.0f} % of its rows in one of {nb} bins"
    assert share > 0.5
    assert rep.warnings == (note,)
    assert [str(w.message) for w in record] == [note]


def test_sparse_grid_warns_for_categorical_pair():
    # two 12-level columns over 300 rows: 144 level cells, about 2 rows each,
    # while the automatic m = 2 keeps m^2 far below N/5 = 60
    rng = np.random.default_rng(14)
    a = rng.integers(0, 12, size=300).astype(float)
    b = rng.integers(0, 12, size=300).astype(float)
    levels = tuple(f"l{i}" for i in range(12))
    specs = tuple(
        InputSpec(name, MarginalDistribution.categorical(levels, (1 / 12,) * 12))
        for name in ("a", "b")
    )
    ds = Dataset(inputs=np.column_stack([a, b]), output=a + b + rng.random(300), specs=specs)
    note = "sparse grid: pair ('a', 'b') has 12 x 12 cells, more than N/5"
    with pytest.warns(UserWarning, match="sparse grid") as record:
        rep = analyze(ds)
    assert rep.n_bins_second_per_dim == 2
    assert [str(w.message) for w in record] == [note]
    assert rep.warnings == (note,)


def test_sparse_grid_notes_numeric_pairs_once_and_names_categorical_pairs():
    # m = 10 over 300 rows: the numeric pair gets the single m^2 note, the
    # pairs with the 3-level column (30 cells) stay quiet, and the pairs with
    # the 12-level column (120 cells, 36 with the 3-level one) are named
    rng = np.random.default_rng(15)
    u1, u2 = rng.random(300), rng.random(300)
    c3 = rng.integers(0, 3, size=300).astype(float)
    c12 = rng.integers(0, 12, size=300).astype(float)
    specs = (
        InputSpec("u1", MarginalDistribution.uniform(0, 1)),
        InputSpec("u2", MarginalDistribution.uniform(0, 1)),
        InputSpec("c3", MarginalDistribution.categorical(("x", "y", "z"), (1 / 3,) * 3)),
        InputSpec(
            "c12",
            MarginalDistribution.categorical(tuple(f"l{i}" for i in range(12)), (1 / 12,) * 12),
        ),
    )
    ds = Dataset(
        inputs=np.column_stack([u1, u2, c3, c12]), output=u1 * u2 + c3 + c12, specs=specs
    )
    with pytest.warns(UserWarning, match="sparse grid"):
        rep = analyze(ds, BinningConfig(n_bins_second_per_dim=10))
    assert rep.warnings == (
        "sparse grid: m^2 exceeds N/5",
        "sparse grid: pair ('u1', 'c12') has 10 x 12 cells, more than N/5",
        "sparse grid: pair ('u2', 'c12') has 10 x 12 cells, more than N/5",
    )


def _toy_dataset(n=5000, seed=0, law="normal", method="QMC"):
    m = get_model("toy_portfolio")
    specs = default_specs(m, law=law)
    x = sample_inputs(SamplingPlan(method=method, n=n, seed=seed), specs)
    return Dataset(inputs=x, output=evaluate(m, x), specs=specs)


def test_analyze_report_shape_and_bins():
    ds = _toy_dataset()
    rep = analyze(ds)
    assert rep.n_bins_first == bin_count_first(5000, 6) == 10
    assert rep.n_bins_second_per_dim == bin_count_second_per_dim(5000)
    assert rep.first_order.shape == (6,)
    assert rep.second_order.shape == (6, 6)
    assert np.array_equal(rep.second_order, rep.second_order.T)
    assert np.all(np.diag(rep.second_order) == 0.0)
    assert rep.warnings == ()


def test_analyze_combined_definition():
    ds = _toy_dataset()
    rep = analyze(ds)
    expected = rep.first_order + 0.5 * rep.second_order.sum(axis=1)
    assert np.allclose(rep.combined, expected, atol=1e-15)


def test_conservation_near_one_for_low_order_model():
    # a two-input model with a single pair keeps the sum sharp; with many
    # inputs each pair adds a small positive bias, so the toy model is only
    # checked loosely
    m = get_model("two_factor_multiplicative")
    specs = default_specs(m)
    x = sample_inputs(SamplingPlan(method="QMC", n=20000, seed=4), specs)
    rep = analyze(Dataset(inputs=x, output=evaluate(m, x), specs=specs))
    assert conservation_check(rep) == pytest.approx(1.0, abs=0.03)
    rep_toy = analyze(_toy_dataset(n=1000, seed=4))
    assert conservation_check(rep_toy) == pytest.approx(1.0, abs=0.08)


def test_affine_output_invariance():
    ds = _toy_dataset(n=5000, seed=5)
    rep = analyze(ds)
    ds2 = Dataset(inputs=ds.inputs, output=3.7 * ds.output - 12.0, specs=ds.specs)
    rep2 = analyze(ds2)
    assert np.all(np.abs(rep.first_order - rep2.first_order) <= 1e-12)
    assert np.all(np.abs(rep.second_order - rep2.second_order) <= 1e-12)
    assert np.all(np.abs(rep.combined - rep2.combined) <= 1e-12)


def test_row_permutation_bitwise_invariance():
    ds = _toy_dataset(n=5000, seed=6)
    rep = analyze(ds)
    perm = np.random.default_rng(7).permutation(ds.n_rows)
    ds2 = Dataset(inputs=ds.inputs[perm], output=ds.output[perm], specs=ds.specs)
    rep2 = analyze(ds2)
    assert np.array_equal(rep.first_order, rep2.first_order)
    assert np.array_equal(rep.second_order, rep2.second_order)
    assert np.array_equal(rep.combined, rep2.combined)


def test_row_permutation_bitwise_invariance_with_tied_output():
    # 20 distinct outputs over 3000 rows: a permutation reorders tied rows,
    # which must not change any cell's sum
    ds, _ = CASES["tied_output"]()
    rep = analyze(ds)
    perm = np.random.default_rng(13).permutation(ds.n_rows)
    rep2 = analyze(Dataset(inputs=ds.inputs[perm], output=ds.output[perm], specs=ds.specs))
    assert np.array_equal(rep.first_order, rep2.first_order)
    assert np.array_equal(rep.second_order, rep2.second_order)
    assert np.array_equal(rep.combined, rep2.combined)


def test_analyze_repeats_bitwise_identically():
    ds = _toy_dataset(n=5000, seed=8)
    rep1, rep2 = analyze(ds), analyze(ds)
    assert np.array_equal(rep1.first_order, rep2.first_order)
    assert np.array_equal(rep1.second_order, rep2.second_order)


def test_analyze_degenerate_column_zeroed_with_warning():
    rng = np.random.default_rng(9)
    x = rng.random((2000, 3))
    x[:, 1] = 0.5
    specs = tuple(
        InputSpec(f"x{i}", MarginalDistribution.uniform(0, 1)) for i in range(3)
    )
    y = x[:, 0] + x[:, 2]
    ds = Dataset(inputs=x, output=y, specs=specs)
    with pytest.warns(UserWarning, match="degenerate input"):
        rep = analyze(ds)
    assert rep.first_order[1] == 0.0
    assert np.all(rep.second_order[1] == 0.0)
    assert rep.warnings


@pytest.mark.parametrize(
    "column",
    [np.array([1.5e308, -1.5e308, 0.0, 1.0] * 50), np.array([0.0, 5e-324, 1e-323, 0.0] * 50)],
    ids=["width-overflows", "scale-overflows"],
)
def test_analyze_rejects_a_column_without_a_float_bin_geometry(column):
    # max - min = inf, or bins / (max - min) = inf: no bin index would mean anything
    rng = np.random.default_rng(14)
    other = rng.random(column.size)
    ds = _uniform_dataset([other, column], other + rng.random(column.size))
    with pytest.raises(ValueError, match="input column 'x2' spans"):
        analyze(ds, BinningConfig(n_bins_first=10, n_bins_second_per_dim=4))


def test_analyze_peak_memory_keeps_one_first_order_index_at_a_time():
    # 12 inputs x N rows: the inputs alone are 12 x 8N bytes; analyze holds
    # the K pair-resolution indices, the sorted output and a few buffers,
    # but never all K first-order (nb-bin) indices at once
    n = 20_000
    rng = np.random.default_rng(15)
    x = rng.random((n, 12))
    ds = _uniform_dataset(list(x.T), x @ np.arange(1.0, 13.0))
    tracemalloc.start()
    try:
        analyze(ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 8 * n, peak / (8 * n)


def test_analyze_explicit_bin_config():
    ds = _toy_dataset(n=3000, seed=10)
    rep = analyze(ds, BinningConfig(n_bins_first=17, n_bins_second_per_dim=5))
    assert rep.n_bins_first == 17
    assert rep.n_bins_second_per_dim == 5
    with pytest.raises(ValueError):
        BinningConfig(n_bins_first=1)


def test_analyze_categorical_input():
    rng = np.random.default_rng(11)
    n = 6000
    cat = rng.integers(0, 3, size=n).astype(float)
    other = rng.random(n)
    specs = (
        InputSpec("c", MarginalDistribution.categorical(("a", "b", "c"), (1 / 3,) * 3)),
        InputSpec("u", MarginalDistribution.uniform(0, 1)),
    )
    y = cat * 2.0 + 0.1 * other
    ds = Dataset(inputs=np.column_stack([cat, other]), output=y, specs=specs)
    rep = analyze(ds)
    assert rep.first_order[0] > 0.9
    assert rep.first_order[1] < 0.05


def test_first_order_bounds_across_models():
    for name in ("toy_portfolio", "ishigami", "nested_interaction"):
        m = get_model(name)
        specs = default_specs(m)
        x = sample_inputs(SamplingPlan(method="QMC", n=4000, seed=12), specs)
        rep = analyze(Dataset(inputs=x, output=evaluate(m, x), specs=specs))
        assert np.all(rep.first_order >= -0.02) and np.all(rep.first_order <= 1.02)
        assert np.all(np.abs(rep.second_order) <= 1.02)


@pytest.mark.parametrize("n", [127, 128, 129, 100_000])
def test_analyze_variance_takes_the_sorted_outputs_plain_sum_as_mean(n):
    # analyze sums the output in its argsort order; stable_mean sums np.sort's
    # order. The two differ only in where +0.0 and -0.0 fall among ties
    rng = np.random.default_rng(n)
    y = _tied_signed_zero_vector(rng, n)
    sorted_y = y[np.argsort(y)]
    assert np.float64(np.sum(sorted_y) / n).tobytes() == np.float64(stable_mean(y)).tobytes()
    rep = analyze(_uniform_dataset([rng.random(n)], y))
    assert np.float64(rep.var_y).tobytes() == np.float64(stable_variance(y)).tobytes()


def _two_inputs():
    x = np.random.default_rng(16).random((3000, 2))
    return _uniform_dataset(list(x.T), x[:, 0] + x[:, 0] * x[:, 1]), None


def _categorical_300_levels():
    # 300 levels do not fit in a byte: the pair-grid codes are uint16
    rng = np.random.default_rng(17)
    cat = rng.integers(0, 300, size=20_000).astype(float)
    u = rng.random((20_000, 2))
    levels = tuple(f"l{i}" for i in range(300))
    specs = (
        InputSpec("c", MarginalDistribution.categorical(levels, (1 / 300,) * 300)),
        InputSpec("u1", MarginalDistribution.uniform(0, 1)),
        InputSpec("u2", MarginalDistribution.uniform(0, 1)),
    )
    y = 0.01 * cat * u[:, 0] + u[:, 1]
    return Dataset(inputs=np.column_stack([cat, u]), output=y, specs=specs), None


def _pair_grid_300():
    x = np.random.default_rng(18).random((20_000, 4))
    y = x[:, 0] * x[:, 1] + x[:, 2] - x[:, 3]
    return _uniform_dataset(list(x.T), y), BinningConfig(n_bins_second_per_dim=300)


def _numeric_12_at_nb_equal_m():
    # N = 6000 and K = 12 give nb = m = 10
    x = np.random.default_rng(23).random((6000, 12))
    y = x @ np.arange(1.0, 13.0) + x[:, 0] * x[:, 1]
    return _uniform_dataset(list(x.T), y), None


_WORKER_CASES = {
    "two_inputs": _two_inputs,
    "interaction_3": CASES["interaction_3"],
    "additive_12": CASES["additive_12"],
    "categorical_300_levels": _categorical_300_levels,
    "numeric_12_at_nb_equal_m": _numeric_12_at_nb_equal_m,
    "pair_grid_300": _pair_grid_300,
    "degenerate_column": CASES["degenerate_column"],
}


@pytest.mark.parametrize("case", sorted(_WORKER_CASES))
def test_analyze_is_bitwise_equal_for_any_worker_count(monkeypatch, case):
    ds, config = _WORKER_CASES[case]()
    k = ds.n_inputs
    splits = []
    in_order = binning._in_order
    monkeypatch.setattr(
        binning, "_in_order",
        lambda make, take, chunks, scratch: splits.append([len(c) for c in chunks]) or in_order(make, take, chunks, scratch)
    )
    reports = []
    for cpus in (1, 2, 4, 16):
        monkeypatch.setattr(binning, "_usable_cpus", lambda cpus=cpus: cpus)
        splits.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            reports.append(analyze(ds, config))
        # one run per worker, max(1, min(CPUs, pairs, _MAX_WORKERS)) of them,
        # and no more runs than items: the k columns, then the closed subsets,
        # one per pair of binned inputs and one per binned input at m, and one
        # at nb for each binned numeric input when nb != m (a categorical
        # input has its L cells at both, and is never degenerate)
        workers = max(1, min(cpus, k * (k - 1) // 2, binning._MAX_WORKERS))
        rep = reports[-1]
        binned = k - sum(note.startswith("degenerate") for note in rep.warnings)
        categorical = sum(s.distribution.kind == "categorical" for s in ds.specs)
        at_nb = (binned - categorical) * (rep.n_bins_first != rep.n_bins_second_per_dim)
        subsets = binned + at_nb + binned * (binned - 1) // 2
        assert [len(s) for s in splits] == [min(workers, k), min(workers, subsets)]
        assert [sum(s) for s in splits] == [k, subsets]
    for rep in reports[1:]:
        for field in ("first_order", "second_order", "combined", "var_y"):
            assert np.asarray(getattr(rep, field)).tobytes() == np.asarray(getattr(reports[0], field)).tobytes(), field
        assert rep.warnings == reports[0].warnings


@pytest.mark.parametrize("case, bins, calls, digest", [
    pytest.param("categorical_300_levels", (83, 18), 8,
                 "38dbb3f7944213389a13f13cc0e401a1d779bf49296e3b73449d497870513b8a",
                 id="categorical_300_levels"),
    pytest.param("numeric_12_at_nb_equal_m", (10, 10), 78,
                 "d8943a92ac73e55bc6814e16998c0c239e2c9ed9a91f21703139b20d68b98cbe",
                 id="numeric_12_at_nb_equal_m"),
])
def test_analyze_computes_each_closed_index_once(monkeypatch, case, bins, calls, digest):
    # an input with as many cells at nb as at m, a categorical input or any
    # numeric input when nb == m, has the same codes at both: one ratio call
    # gives its first-order index and its pairs' marginal, and the report
    # keeps the bits it had when that ratio was computed twice (9 and 90 calls)
    ds, config = _WORKER_CASES[case]()
    cells = []
    ratio = binning._conditional_variance_ratio
    monkeypatch.setattr(binning, "_conditional_variance_ratio",
                        lambda *args: cells.append(args[1]) or ratio(*args))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = analyze(ds, config)
    assert (rep.n_bins_first, rep.n_bins_second_per_dim) == bins
    assert len(cells) == calls
    assert hashlib.sha256(_report_bytes(rep)).hexdigest() == digest


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_analyze_names_the_first_bad_column_for_any_worker_count(monkeypatch, cpus):
    # x2 and x4 both lack a bin geometry and fall in different workers' runs
    monkeypatch.setattr(binning, "_usable_cpus", lambda: cpus)
    rng = np.random.default_rng(19)
    bad = np.array([1.5e308, -1.5e308, 0.0, 1.0] * 50)
    other = rng.random((200, 2))
    ds = _uniform_dataset([other[:, 0], bad, other[:, 1], bad], other.sum(axis=1))
    with pytest.raises(ValueError, match="input column 'x2' spans"):
        analyze(ds)


def _report_bytes(rep):
    return b"".join(np.asarray(getattr(rep, field)).tobytes()
                    for field in ("first_order", "second_order", "combined", "var_y"))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_analyzes_like_its_parent(monkeypatch):
    # the parent's threaded call leaves nothing behind that a child needs
    monkeypatch.setattr(binning, "_usable_cpus", lambda: 2)
    ds, _ = CASES["interaction_3"]()
    expected = _report_bytes(analyze(ds))
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        signal.alarm(60)  # a hung child dies, so the parent's read ends
        try:
            os.close(read)
            with os.fdopen(write, "wb") as out:
                out.write(_report_bytes(analyze(ds)))
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    with os.fdopen(read, "rb") as fh:
        got = fh.read()
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert got == expected


def test_two_input_analyze_imports_no_executor_and_starts_no_thread():
    src = os.path.dirname(os.path.dirname(binsa.__file__))
    code = (
        "import sys, threading\n"
        "import numpy as np\n"
        "import binsa\n"
        "from binsa import binning\n"
        "starts = []\n"
        "start = threading.Thread.start\n"
        "threading.Thread.start = lambda self: starts.append(self) or start(self)\n"
        "x = np.random.default_rng(1).random((2000, 3))\n"
        "specs = tuple(binsa.InputSpec(f'x{i}', binsa.MarginalDistribution.uniform(0, 1))\n"
        "              for i in range(3))\n"
        "binsa.analyze(binsa.Dataset(inputs=x[:, :2], output=x[:, 0] * x[:, 1], specs=specs[:2]))\n"
        "assert not starts, 'thread started'\n"
        "assert threading.active_count() == 1, 'thread left running'\n"
        "binning._usable_cpus = lambda: 2\n"
        "binsa.analyze(binsa.Dataset(inputs=x, output=x.sum(axis=1), specs=specs))\n"
        "assert len(starts) == 2, starts  # one thread for the columns, one for the pairs\n"
        "assert threading.active_count() == 1, 'thread left running'\n"
        "assert 'concurrent.futures' not in sys.modules, 'executor imported'\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_in_order_takes_in_item_order_with_the_last_worker_on_the_calling_thread():
    taken = []

    def make(item, buffer):
        return item, buffer, threading.current_thread()

    items, buffers = [[1, 2], [3], [4, 5, 6]], ["a", "b", "c"]
    binning._in_order(make, lambda item, result: taken.append((item, result)), items, buffers)
    assert [item for item, _ in taken] == items
    assert [(i, b) for _, (i, b, _) in taken] == list(zip(items, buffers))
    threads = [t for _, (_, _, t) in taken]
    assert threads[-1] is threading.current_thread()
    assert len({id(t) for t in threads}) == 3
    assert threading.active_count() == 1


@pytest.mark.parametrize("n_items, n_buffers", [(3, 1), (1, 4), (0, 2)])
def test_in_order_on_one_buffer_or_one_item_starts_no_thread(monkeypatch, n_items, n_buffers):
    # one worker per buffer, but no more workers than items: a single
    # worker, the calling thread, makes and takes every item
    started, taken = [], []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self) or start(self))

    def make(item, buffer):
        return item, buffer, threading.current_thread(), threading.active_count()

    before = threading.active_count()
    buffers = list(range(n_buffers))
    binning._in_order(make, lambda _, result: taken.append(result), list(range(n_items)), buffers)
    assert taken == [(i, 0, threading.current_thread(), before) for i in range(n_items)]
    assert not started


def test_in_order_raises_the_first_failed_items_error_once_every_thread_stopped():
    # item 1 fails first in time; item 0 fails once it has, and items 2 and
    # 3 are still made after both: item 0's error surfaces, only once every
    # thread has stopped, and no item is taken
    item_1_failed, threads, finished, taken = threading.Event(), [], [], []

    def make(item, buffer):
        threads.append(threading.current_thread())
        if item == 1:
            try:
                raise ValueError("item 1")
            finally:
                item_1_failed.set()
        assert item_1_failed.wait(60)
        time.sleep(0.05)
        if item == 0:
            raise ValueError("item 0")
        finished.append(item)

    with pytest.raises(ValueError, match="^item 0$"):
        binning._in_order(make, lambda item, _: taken.append(item), [0, 1, 2, 3], [None] * 4)
    assert sorted(finished) == [2, 3] and taken == []
    workers = [t for t in threads if t is not threading.current_thread()]
    assert len(workers) == 3 and not any(t.is_alive() for t in workers)
    assert threading.active_count() == 1


@pytest.mark.parametrize("stage", ["make", "take"])
@pytest.mark.parametrize("workers", [3, 12])
def test_in_order_takes_items_in_order_and_raises_the_first_failed_items_error(
    monkeypatch, stage, workers
):
    # nine items on 3 workers, each making three in turn, or on 12, more
    # than the items and than the CPUs, with the interpreter switching
    # threads as often as it can. Item 6's make fails first in time, then
    # item 4's make or take fails: item 4's error surfaces, items 0 to 3
    # alone are taken, in order, and every thread has stopped.
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self) or start(self))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            item_6_failed, taken, raised = threading.Event(), [], []
            buffers = [[] for _ in range(workers)]

            def make(item, buffer):
                buffer.append(item)
                if item == 6:
                    item_6_failed.set()
                    raise ValueError("item 6")
                if item == 4:
                    assert item_6_failed.wait(60)
                    if stage == "make":
                        raise ValueError("item 4")
                return -item

            def take(item, made):
                assert made == -item
                if stage == "take" and item == 4:
                    raise ValueError("item 4")
                taken.append(item)

            def run():
                try:
                    binning._in_order(make, take, range(9), buffers)
                except ValueError as exc:
                    raised.append(str(exc))

            del started[:]
            runner = threading.Thread(target=run)
            runner.start()
            runner.join(60)
            for thread in started:
                thread.join(60)
                assert not thread.is_alive()
            # the runner, and a thread for every worker but the runner's
            # own: one worker per buffer, and no more workers than items
            assert len(started) == 1 + min(workers, 9) - 1
            assert raised == ["item 4"] and taken == [0, 1, 2, 3]
            for w, made in enumerate(buffers):
                assert made == list(range(w, 9, workers))[:len(made)]
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("k", [-560, -530, 530])
def test_an_output_scaled_by_a_power_of_two_has_the_same_indices(k):
    # the output's variance at 2**-560 is below the smallest subnormal, at
    # 2**-530 subnormal and at 2**530 past the largest double: var_y is that
    # variance rounded to a double, and report.json holds null for inf
    m = get_model("ishigami")
    specs = default_specs(m)
    x = sample_inputs(SamplingPlan(method="QMC", n=10_000, seed=1), specs)
    y = evaluate(m, x)
    base = analyze(Dataset(inputs=x, output=y, specs=specs))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled = analyze(Dataset(inputs=x, output=np.ldexp(y, k), specs=specs))
    for field in ("first_order", "second_order", "combined"):
        assert getattr(scaled, field).tobytes() == getattr(base, field).tobytes(), field
    assert scaled.var_y == (math.ldexp(base.var_y, 2 * k) if k < 0 else math.inf)
    assert (scaled.var_y == 0.0) == (k == -560)
    report = json.loads(json.dumps(report_to_dict(scaled), allow_nan=False))
    assert report["var_y"] == (scaled.var_y if k < 0 else None)


@pytest.mark.parametrize("cpu_count, usable", [(3, 3), (None, 1)])
def test_usable_cpus_without_an_affinity_mask_is_the_cpu_count(monkeypatch, cpu_count, usable):
    # macOS and Windows have no os.sched_getaffinity
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    assert binning._usable_cpus() == usable
