"""Property tests of the estimator's determinism: the indices are a function
of the set of (input row, output) pairs alone, not of their order or of how
the input matrix is laid out in memory."""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from binsa import BinningConfig, Dataset, InputSpec, MarginalDistribution, analyze


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
