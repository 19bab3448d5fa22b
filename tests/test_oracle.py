import numpy as np
import pytest

from binsa import default_specs, estimate_sobol, get_model
from binsa.benchmarks import ishigami_analytic_indices


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
    with pytest.raises(ValueError, match="sampler"):
        estimate_sobol(m, specs, 256, sampler="LHS")
    with pytest.raises(ValueError, match=">= 2 inputs"):
        estimate_sobol(m, specs[:1], 256)
