"""Property tests: the estimator's indices are a function of the set of
(input row, output) pairs alone, not of their order or of how the input
matrix is laid out in memory; a dataset CSV reads back to the same bytes."""

import csv
import math
import warnings

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from binsa import (
    BinningConfig,
    Dataset,
    InputSpec,
    MarginalDistribution,
    analyze,
    read_dataset_csv,
    write_dataset_csv,
)
from binsa.io import fmt_number


def _report_bytes(inputs, output, specs, config):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # sparse-grid notes at small n
        rep = analyze(Dataset(inputs=inputs, output=output, specs=specs), config)
    return rep.first_order.tobytes(), rep.second_order.tobytes(), rep.combined.tobytes()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    n=st.integers(20, 400),
    k=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    n_bins=st.tuples(st.integers(2, 12), st.integers(2, 6)),
    categorical=st.booleans(),
    tied=st.booleans(),
)
def test_indices_bitwise_equal_across_row_order_and_memory_layout(
    n, k, seed, n_bins, categorical, tied
):
    rng = np.random.default_rng(seed)
    x = rng.random((n, k))
    specs = [InputSpec(f"x{i}", MarginalDistribution.uniform(0, 1)) for i in range(k)]
    if categorical:
        x[:, 0] = rng.integers(0, 3, size=n)
        specs[0] = InputSpec("x0", MarginalDistribution.categorical("abc", (0.2, 0.3, 0.5)))
    y = x @ rng.normal(size=k) + x[:, 0] * x[:, -1]
    if tied:
        y = np.round(y, 1)
    if y.min() == y.max():
        y[0] += 1.0
    specs = tuple(specs)
    config = BinningConfig(n_bins_first=n_bins[0], n_bins_second_per_dim=n_bins[1])

    expected = _report_bytes(np.ascontiguousarray(x), y, specs, config)
    padded = np.zeros((2 * n, 2 * k + 1))
    padded[::2, 1::2] = x
    strided = padded[::2, 1::2]
    assert not (strided.flags.c_contiguous or strided.flags.f_contiguous)
    perm = rng.permutation(n)
    for inputs, output in [
        (np.asfortranarray(x), y),
        (strided, y),
        (x[perm], y[perm]),
        (np.asfortranarray(x[perm]), y[perm]),
    ]:
        assert _report_bytes(inputs, output, specs, config) == expected


_EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                1.7976931348623157e308, -1.7976931348623157e308, 1e16, 1e-5])


def _finite(**bounds):
    return st.one_of(_EDGE_FLOATS.filter(
        lambda v: bounds.get("min_value", -math.inf) <= v <= bounds.get("max_value", math.inf)),
        st.floats(allow_nan=False, allow_infinity=False, **bounds))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(2, 40))
def test_dataset_csv_write_read_write_is_byte_stable(tmp_path_factory, data, n):
    # One column of each sign, so that no input spans more than the largest
    # float (the reader refuses such a column); the output takes any float.
    levels = ("plain", "a,b", 'say "x"', "", " lead", "line\nbreak", "café")
    specs = (
        InputSpec("pos", MarginalDistribution.uniform(0, 1)),
        InputSpec("neg", MarginalDistribution.uniform(-1, 0)),
        InputSpec("c", MarginalDistribution.categorical(levels, (1 / len(levels),) * len(levels))),
    )

    def column(strategy):
        return data.draw(st.lists(strategy, min_size=n, max_size=n))

    inputs = np.column_stack([
        column(_finite(min_value=-0.0)),
        column(_finite(max_value=0.0)),
        column(st.integers(0, len(levels) - 1)),
    ]).astype(float)
    output = np.array(column(_finite()))
    assume(output.min() != output.max())
    ds = Dataset(inputs=inputs, output=output, specs=specs)
    tmp = tmp_path_factory.mktemp("csv")
    first, second = tmp / "a.csv", tmp / "b.csv"
    write_dataset_csv(first, ds)
    back = read_dataset_csv(first, specs=specs)
    write_dataset_csv(second, back)
    assert first.read_bytes() == second.read_bytes()
    with open(first, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [r[0] for r in rows] == [fmt_number(v) for v in ds.inputs[:, 0]]
    assert [r[1] for r in rows] == [fmt_number(v) for v in ds.inputs[:, 1]]
    assert [r[2] for r in rows] == [levels[int(v)] for v in ds.inputs[:, 2]]
    assert [r[3] for r in rows] == [fmt_number(v) for v in ds.output]
