import numpy as np
import pytest

from binsa import default_specs, estimate_sobol, evaluate, get_model
from binsa.benchmarks import ishigami_analytic_indices
from binsa.core import stable_mean, stable_variance
from binsa.sampling import random_points, sobol_points, transform_marginals


def test_oracle_ishigami_first_order_matches_analytic():
    m = get_model("ishigami")
    rep = estimate_sobol(m, default_specs(m), 2**13, seed=0)
    ref = ishigami_analytic_indices(7.0, 0.1)
    assert rep.first_order[0] == pytest.approx(ref["S1"], abs=0.01)
    assert rep.first_order[1] == pytest.approx(ref["S2"], abs=0.01)
    assert rep.first_order[2] == pytest.approx(0.0, abs=0.01)


def test_oracle_ishigami_second_order_matches_analytic():
    m = get_model("ishigami")
    rep = estimate_sobol(m, default_specs(m), 2**13, seed=0)
    ref = ishigami_analytic_indices(7.0, 0.1)
    assert rep.second_order[0, 2] == pytest.approx(ref["S13"], abs=0.03)
    assert abs(rep.second_order[0, 1]) < 0.03
    assert abs(rep.second_order[1, 2]) < 0.03


def test_oracle_additive_model_has_no_interactions():
    m = get_model("two_factor_additive")
    rep = estimate_sobol(m, default_specs(m), 2**12, seed=1)
    assert rep.first_order[0] == pytest.approx(0.5, abs=0.01)
    assert rep.first_order[1] == pytest.approx(0.5, abs=0.01)
    assert abs(rep.second_order[0, 1]) < 0.02


def test_oracle_evaluation_count_and_symmetry():
    m = get_model("ishigami")
    rep = estimate_sobol(m, default_specs(m), 256, seed=2)
    assert rep.n_evaluations == 256 * (2 * 3 + 2)
    assert np.array_equal(rep.second_order, rep.second_order.T)


def test_oracle_seed_determinism():
    m = get_model("ishigami")
    a = estimate_sobol(m, default_specs(m), 512, seed=3)
    b = estimate_sobol(m, default_specs(m), 512, seed=3)
    assert np.array_equal(a.first_order, b.first_order)


def test_oracle_mc_sampler_also_converges():
    m = get_model("two_factor_additive")
    rep = estimate_sobol(m, default_specs(m), 2**13, seed=4, sampler="MC")
    assert rep.first_order[0] == pytest.approx(0.5, abs=0.03)


def test_oracle_input_validation():
    m = get_model("ishigami")
    specs = default_specs(m)
    with pytest.raises(ValueError, match=">= 128"):
        estimate_sobol(m, specs, 64)
    for sampler in ("LHS", "FFD"):
        with pytest.raises(ValueError, match="sampler"):
            estimate_sobol(m, specs, 256, sampler=sampler)
    with pytest.raises(ValueError, match=">= 2 inputs"):
        estimate_sobol(m, specs[:1], 256)


def _per_hybrid_sobol(model, specs, n, seed, sampler):
    """The pick-freeze indices with each of the 2k+2 unit-hypercube
    matrices (A, B and every hybrid) sent through transform_marginals on
    its own."""
    k = len(specs)
    if sampler == "QMC":
        u = sobol_points(2 * k, n, scramble=True, seed=seed)
    else:
        u = random_points(2 * k, n, seed)
    ua, ub = u[:, :k], u[:, k:]

    def run(unit):
        return evaluate(model, transform_marginals(unit, specs))

    f_a, f_b = run(ua), run(ub)
    f_ab, f_ba = np.empty((k, n)), np.empty((k, n))
    for i in range(k):
        hybrid = ua.copy()
        hybrid[:, i] = ub[:, i]
        f_ab[i] = run(hybrid)
        hybrid = ub.copy()
        hybrid[:, i] = ua[:, i]
        f_ba[i] = run(hybrid)
    var_y = stable_variance(np.concatenate([f_a, f_b]))
    first = np.array(
        [(var_y - 0.5 * stable_mean((f_b - f_ab[i]) ** 2)) / var_y for i in range(k)]
    )
    f0_sq = stable_mean(f_a) * stable_mean(f_b)
    second = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            v_ij = stable_mean(f_ba[i] * f_ab[j]) - f0_sq
            second[i, j] = second[j, i] = v_ij / var_y - first[i] - first[j]
    return first, second, var_y


@pytest.mark.parametrize("name", ["toy_portfolio", "ishigami"])
@pytest.mark.parametrize("sampler", ["QMC", "MC"])
def test_oracle_equals_per_hybrid_transforms_bitwise(name, sampler):
    # toy_portfolio's marginals are normal (the normal quantile), ishigami's
    # uniform; n = 20000 spans more than one block of the samplers' rows
    m = get_model(name)
    specs = default_specs(m)
    for n, seed in ((256, 0), (20000, 7)):
        rep = estimate_sobol(m, specs, n, seed=seed, sampler=sampler)
        first, second, var_y = _per_hybrid_sobol(m, specs, n, seed, sampler)
        assert rep.first_order.tobytes() == first.tobytes()
        assert rep.second_order.tobytes() == second.tobytes()
        assert rep.var_y.hex() == var_y.hex()
