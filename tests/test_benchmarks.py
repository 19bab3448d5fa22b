import math

import numpy as np
import pytest

from binsa import default_specs, evaluate, get_model
from binsa.benchmarks import MODEL_NAMES, ishigami_analytic_indices, toy_default_specs
from binsa.core import stable_mean, stable_variance
from binsa.sampling import sobol_points, transform_marginals


def test_model_registry():
    assert set(MODEL_NAMES) == {
        "toy_portfolio",
        "ishigami",
        "two_factor_additive",
        "two_factor_multiplicative",
        "nested_interaction",
    }
    with pytest.raises(ValueError, match="unknown model"):
        get_model("nope")
    with pytest.raises(ValueError):
        get_model("toy_portfolio", a=1.0)


def test_evaluate_checks_arity():
    m = get_model("ishigami")
    with pytest.raises(ValueError, match="3 input columns"):
        evaluate(m, np.zeros((4, 2)))


def test_toy_portfolio_formula():
    m = get_model("toy_portfolio")
    x = np.array([[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]])
    # Cs*Ps + Ct*Pt + Cj*Pj = 2*1 + 4*3 + 6*5 = 44
    assert evaluate(m, x)[0] == 44.0


def test_toy_specs_order_and_moments():
    specs = toy_default_specs("normal")
    assert tuple(s.name for s in specs) == ("Ps", "Cs", "Pt", "Ct", "Pj", "Cj")
    d = {s.name: s.distribution for s in specs}
    assert (d["Ps"].mean, d["Ps"].sd) == (0.0, 4.0)
    assert (d["Cs"].mean, d["Cs"].sd) == (250.0, 200.0)
    assert (d["Pt"].mean, d["Pt"].sd) == (0.0, 2.0)
    assert (d["Ct"].mean, d["Ct"].sd) == (400.0, 300.0)
    assert (d["Pj"].mean, d["Pj"].sd) == (0.0, 1.0)
    assert (d["Cj"].mean, d["Cj"].sd) == (500.0, 400.0)
    u = {s.name: s.distribution for s in toy_default_specs("uniform")}
    assert (u["Ps"].lo, u["Ps"].hi) == (-8.0, 8.0)
    assert (u["Cj"].lo, u["Cj"].hi) == (-300.0, 1300.0)


def test_ishigami_formula_point():
    m = get_model("ishigami")
    x = np.array([[math.pi / 2, math.pi / 2, 1.0]])
    # sin(pi/2) + 7 sin(pi/2)^2 + 0.1 * 1 * sin(pi/2) = 8.1
    assert evaluate(m, x)[0] == pytest.approx(8.1)


def test_ishigami_analytic_reference_values():
    idx = ishigami_analytic_indices(7.0, 0.1)
    assert idx["S1"] == pytest.approx(0.3139, abs=5e-4)
    assert idx["S2"] == pytest.approx(0.4424, abs=5e-4)
    assert idx["S3"] == 0.0
    assert idx["S13"] == pytest.approx(0.2437, abs=5e-4)
    assert idx["S1"] + idx["S2"] + idx["S13"] == pytest.approx(1.0)


def test_ishigami_analytic_matches_qmc_integration():
    # cross-check the closed forms against a high-resolution QMC estimate of
    # Var(E[Y|X1]) and total variance
    m = get_model("ishigami")
    specs = default_specs(m)
    u = sobol_points(3, 2**15, scramble=True, seed=11)
    y = evaluate(m, transform_marginals(u, specs))
    var_y = stable_variance(y)
    a, b = 7.0, 0.1
    analytic_var = (
        0.5 * (1 + b * math.pi**4 / 5) ** 2 + a**2 / 8 + 8 * b**2 * math.pi**8 / 225
    )
    assert var_y == pytest.approx(analytic_var, rel=0.01)
    assert stable_mean(y) == pytest.approx(a / 2, abs=0.05)


def test_two_factor_models():
    add = get_model("two_factor_additive")
    mul = get_model("two_factor_multiplicative")
    x = np.array([[2.0, 3.0]])
    assert evaluate(add, x)[0] == 5.0
    assert evaluate(mul, x)[0] == 6.0
    specs = default_specs(add)
    assert tuple(s.name for s in specs) == ("A", "B")
    assert (specs[0].distribution.lo, specs[0].distribution.hi) == (0.0, 5.0)


def test_nested_interaction_regions():
    m = get_model("nested_interaction")
    # below the boundary: output equals the first input
    lo = np.array([[0.3, 0.2, 0.9]])
    assert evaluate(m, lo)[0] == 0.3
    # above: slope depends on the third input, weak trend in the second
    hi = np.array([[0.4, 0.75, 0.5]])
    assert evaluate(m, hi)[0] == pytest.approx(0.4 * 2.5 + 0.5 * 0.25)


def test_nested_interaction_interacts_with_all_pairs():
    # the slope change across the boundary depends on both A and C
    m = get_model("nested_interaction")
    a_vals = np.array([0.2, 0.8])
    for c in (0.1, 0.9):
        below = evaluate(m, np.column_stack([a_vals, [0.1, 0.1], [c, c]]))
        above = evaluate(m, np.column_stack([a_vals, [0.9, 0.9], [c, c]]))
        jump = above - below
        assert jump[0] != jump[1]  # interaction with A
