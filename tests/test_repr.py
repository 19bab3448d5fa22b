"""The numpy port of Ryu against float.__repr__, compared as strings."""

import math

import numpy as np
import pytest

from binsa._repr import WIDTH, repr_bytes


def _port_text(values):
    """The port's repr of each value, one per line."""
    chars, keep = repr_bytes(values, width=WIDTH + 1)
    chars[:, WIDTH] = ord("\n")
    keep[:, WIDTH] = True
    return np.compress(keep.ravel(), chars.ravel()).tobytes().decode("ascii")


def _assert_reprs(values):
    values = np.asarray(values, dtype=np.float64)
    got = _port_text(values)
    want = "".join(repr(v) + "\n" for v in values.ravel().tolist())
    if got != want:
        pairs = zip(values.ravel().tolist(), got.split("\n"), want.split("\n"))
        bad = [(v, g, w) for v, g, w in pairs if g != w]
        pytest.fail(f"{len(bad)} reprs differ, first: {float.hex(bad[0][0])} {bad[0][1:]}")


def _neighbours(x):
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore"):  # the largest float's upper neighbour is inf
        return np.concatenate([x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf)])


def _bit_patterns(rng):
    # every exponent and both signs, NaNs and infinities included
    return rng.integers(0, 2**64, 400_000, dtype=np.uint64, endpoint=False).view(np.float64)


def _rounded(rng):
    x = rng.normal(size=100_000) * 10.0 ** rng.integers(-6, 10, 100_000)
    return np.array([round(v, int(d)) for v, d in zip(x, rng.integers(0, 7, x.size))])


def _powers_of_two(rng):
    return _neighbours(np.ldexp(1.0, np.arange(-1074, 1024)))


def _powers_of_ten(rng):
    p = np.array([float(f"1e{k}") for k in range(-323, 309)])
    return np.concatenate([_neighbours(p), -_neighbours(p), 5 * p[:-1], 2.5 * p[:-1]])


def _subnormals_and_edges(rng):
    subnormal = rng.integers(1, 2**52, 50_000, dtype=np.uint64).view(np.float64)
    edges = _neighbours([1e16, 1e15, 1e-4, 1e-5, 9999999999999998.0, 2.0**53, 5e-324,
                         2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1 / 3])
    special = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan]
    return np.concatenate([subnormal, -subnormal, edges, -edges, special])


FAMILIES = {
    "bit_patterns": _bit_patterns,
    "normal_sd_1e3": lambda rng: rng.normal(0.0, 1e3, 200_000),
    "uniform_0_1": lambda rng: rng.random(200_000),
    "integers": lambda rng: rng.integers(-2**53, 2**53, 100_000).astype(np.float64),
    "small_integers": lambda rng: rng.integers(-10**6, 10**6, 50_000).astype(np.float64),
    "rounded_decimals": _rounded,
    "powers_of_two": _powers_of_two,
    "powers_of_ten": _powers_of_ten,
    "subnormals_and_edges": _subnormals_and_edges,
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_repr_bytes_equals_float_repr(family):
    values = FAMILIES[family](np.random.default_rng(sorted(FAMILIES).index(family)))
    _assert_reprs(values)


def test_families_hold_a_million_values():
    total = sum(len(make(np.random.default_rng(0))) for make in FAMILIES.values())
    assert total >= 1_000_000, total


@pytest.mark.parametrize("values", [[], [2.5], [-0.0], [[1e300, -1e-7], [12.0, 0.5]]],
                         ids=["empty", "one", "negative-zero", "2-d"])
def test_repr_bytes_of_small_and_shaped_inputs(values):
    chars, keep = repr_bytes(values)
    assert chars.shape == keep.shape == (np.size(values), WIDTH)
    _assert_reprs(values)


def test_columns_past_width_are_never_kept():
    chars, keep = repr_bytes(np.array([-1.2345678901234567e-300, 0.1]), width=WIDTH + 3)
    assert chars.shape == (2, WIDTH + 3)
    assert not keep[:, WIDTH:].any()
