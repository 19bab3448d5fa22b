"""Golden reports: analyze's first- and second-order indices, frozen bit for bit.

The datasets come from numpy's PCG64 generator and use only +, * and
comparisons, so the frozen values depend neither on scipy nor on libm. A
change to the estimator's bin rule, arithmetic or accumulation order shows
here as a changed hex string.
"""

import numpy as np
import pytest

from binsa import BinningConfig, Dataset, InputSpec, MarginalDistribution, analyze


def _uniform_specs(k):
    return tuple(InputSpec(f"x{i + 1}", MarginalDistribution.uniform(0, 1)) for i in range(k))


def _interaction_3():
    x = np.random.default_rng(101).random((3000, 3))
    y = x[:, 0] + 2.0 * x[:, 1] + 3.0 * x[:, 0] * x[:, 2]
    return Dataset(inputs=x, output=y, specs=_uniform_specs(3)), None


def _categorical_uniform():
    rng = np.random.default_rng(102)
    cat = rng.integers(0, 3, size=2500).astype(float)
    u = rng.random(2500)
    specs = (
        InputSpec("c", MarginalDistribution.categorical(("lo", "mid", "hi"), (0.5, 0.3, 0.2))),
        InputSpec("u", MarginalDistribution.uniform(0, 1)),
    )
    y = cat * u + 0.5 * u
    return Dataset(inputs=np.column_stack([cat, u]), output=y, specs=specs), None


def _degenerate_column():
    x = np.random.default_rng(103).random((2000, 4))
    x[:, 2] = 0.25
    y = x[:, 0] * x[:, 1] + x[:, 3]
    return Dataset(inputs=x, output=y, specs=_uniform_specs(4)), None


def _additive_12():
    x = np.random.default_rng(104).random((2000, 12))
    y = np.zeros(2000)
    for j in range(12):
        y = y + (j + 1) * x[:, j]
    return Dataset(inputs=x, output=y, specs=_uniform_specs(12)), None


def _explicit_bins():
    x = np.random.default_rng(105).random((1500, 4))
    y = x[:, 0] * x[:, 1] + 2.0 * x[:, 2] - x[:, 3] * x[:, 3]
    config = BinningConfig(n_bins_first=17, n_bins_second_per_dim=6)
    return Dataset(inputs=x, output=y, specs=_uniform_specs(4)), config


CASES = {
    "interaction_3": _interaction_3,
    "categorical_uniform": _categorical_uniform,
    "degenerate_column": _degenerate_column,
    "additive_12": _additive_12,
    "explicit_bins": _explicit_bins,
}

# first_order, then the upper triangle of second_order in row-major order
GOLDEN = {
    "interaction_3": {
        "first_order": [
            "0x1.cce9225077e7bp-2", "0x1.29439a36d7d11p-2", "0x1.8f5703ee7abc7p-3",
        ],
        "second_order": [
            "0x1.d1e7e86835bb0p-6", "0x1.9546277ec9f88p-5", "0x1.73a91da7de280p-9",
        ],
    },
    "categorical_uniform": {
        "first_order": [
            "0x1.93f5713a8085dp-2", "0x1.e0f50c3d4e606p-2",
        ],
        "second_order": [
            "0x1.0eef9ee1cc91ep-3",
        ],
    },
    "degenerate_column": {
        "first_order": [
            "0x1.5f7f998156cf0p-3", "0x1.1a74d0c520757p-3", "0x0.0p+0",
            "0x1.4fd5e265e1a01p-1",
        ],
        "second_order": [
            "0x1.cb16802e61f64p-5", "0x0.0p+0", "-0x1.71ab3a4777d40p-6",
            "0x0.0p+0", "0x1.4863094efe880p-6", "0x0.0p+0",
        ],
    },
    "additive_12": {
        "first_order": [
            "0x1.dffaa6895baa8p-8", "0x1.35cbe2edf47cfp-7", "0x1.5710b2c661f2ep-6",
            "0x1.c8334eb7b6228p-6", "0x1.74ba53529a4e2p-5", "0x1.372d872397dcep-5",
            "0x1.2447f0b218e6dp-4", "0x1.6e7feecf3ffc2p-4", "0x1.04270cf435073p-3",
            "0x1.1830434841e90p-3", "0x1.8c1e9d264142bp-3", "0x1.a8ec416538d59p-3",
        ],
        "second_order": [
            "0x1.4ba9606fc5679p-7", "0x1.db5a51ab59f60p-8", "0x1.d2f602739fda8p-7",
            "0x1.bbf7db3fd520cp-7", "0x1.01b391c0bf0c8p-7", "0x1.b2908e5a71678p-7",
            "0x1.ab036c840d818p-7", "0x1.2e42ed18b7188p-7", "0x1.e1f3ed044fc20p-8",
            "0x1.b9d9651f8a4e0p-8", "0x1.39b980578c7c0p-8", "0x1.cc483284e786ep-7",
            "0x1.36595ab31fe0cp-7", "0x1.f1687fc7ff350p-8", "0x1.7c07e4a3ba5e4p-7",
            "0x1.dc3a3df9221c8p-7", "0x1.e715245aacd88p-7", "0x1.e9cef93d6cb68p-7",
            "0x1.8acd3ab26e1d0p-7", "0x1.f9053faa26400p-8", "0x1.cebab4895c860p-8",
            "0x1.994b502285dd8p-7", "0x1.1bca4c1edca38p-7", "0x1.7a5d05013da7cp-7",
            "0x1.cc4f97c318978p-7", "0x1.1edeea0c8fd28p-7", "0x1.19a093976db04p-6",
            "0x1.5984894269360p-8", "0x1.28b714922da00p-7", "0x1.48ec55abe47a0p-7",
            "0x1.f66b8704f7c88p-7", "0x1.c2ccc00e021a8p-8", "0x1.ca94f5473bec0p-7",
            "0x1.88ca6b35d5290p-8", "0x1.13d35a9160f44p-6", "0x1.2195c479f5718p-6",
            "0x1.04bbf7cce6e80p-7", "0x1.ff9fdcc77e960p-8", "0x1.2079041ee40b4p-7",
            "0x1.53d15b4a18dd8p-7", "0x1.858bc956ca280p-7", "0x1.55caaa20da728p-7",
            "0x1.7453802956ae0p-8", "0x1.fff6f0d104c00p-8", "0x1.3cb79ecf96270p-7",
            "0x1.768f738763478p-7", "0x1.6f665e4b78c30p-8", "0x1.0bbfe3882d224p-6",
            "0x1.5a498443f97a0p-7", "0x1.793d36d66aa00p-7", "0x1.1517b4bfda128p-6",
            "0x1.22b948cf30ea8p-6", "0x1.9fd182ca38150p-8", "0x1.35bbfdcc39f50p-7",
            "0x1.ab60b45444c40p-7", "0x1.9c2b0a6e0a570p-7", "0x1.58c4eae10f840p-10",
            "0x1.59ab81a4dddc8p-6", "0x1.11e43729dcc80p-7", "0x1.09eeb1b5dd090p-7",
            "0x1.bfbfdacd46d20p-8", "0x1.16f08c3ae7800p-7", "0x1.dc853951a4ca0p-8",
            "0x1.018fa56e3f3d8p-6", "0x1.e6ee0147ae0c0p-8", "0x1.491289236d5d0p-7",
        ],
    },
    "explicit_bins": {
        "first_order": [
            "0x1.bfb0ccedaac94p-5", "0x1.08ca11de9a40fp-4", "0x1.5b1d7467d5ff3p-1",
            "0x1.44583d81a3907p-3",
        ],
        "second_order": [
            "0x1.976905b4a598ap-6", "0x1.50ce8a2299080p-8", "0x1.b31ed908e3e50p-7",
            "0x1.4d0db088cdf80p-8", "0x1.a0b81a9e148c0p-7", "0x1.c7db8c5a348a4p-5",
        ],
    },
}


def frozen(report):
    upper = report.second_order[np.triu_indices(len(report.names), k=1)]
    return [v.hex() for v in report.first_order.tolist()], [v.hex() for v in upper.tolist()]


@pytest.mark.filterwarnings("ignore:degenerate input")
@pytest.mark.parametrize("name", list(CASES))
def test_golden_report(name):
    dataset, config = CASES[name]()
    first, second = frozen(analyze(dataset, config))
    assert first == GOLDEN[name]["first_order"]
    assert second == GOLDEN[name]["second_order"]
