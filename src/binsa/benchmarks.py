"""Built-in analytic models with known sensitivity structure.

All models are pure functions of an N x K input matrix. The toy portfolio
model and the Ishigami function come with reference index values; the
two-factor and nested-interaction models exercise dependence handling and
scenario decomposition.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

from .core import InputSpec, MarginalDistribution

__all__ = [
    "Model",
    "get_model",
    "evaluate",
    "ishigami_analytic_indices",
    "toy_portfolio_analytic_indices",
    "default_specs",
    "MODEL_NAMES",
]

# nested-interaction constants: region boundary on the second input and the
# coefficients that create interactions among all three inputs
NESTED_B0 = 0.5
NESTED_BASE_SLOPE = 2.5
NESTED_SLOPE_SPREAD = 5.0
NESTED_B_SLOPE = 0.5


@dataclass(frozen=True)
class Model:
    name: str
    arity: int
    params: dict = field(default_factory=dict)


_ARITY = {
    "toy_portfolio": 6,
    "ishigami": 3,
    "two_factor_additive": 2,
    "two_factor_multiplicative": 2,
    "nested_interaction": 3,
}
MODEL_NAMES = tuple(_ARITY)


def get_model(name, **params):
    if name not in MODEL_NAMES:
        raise ValueError(f"unknown model {name!r}; choose from {', '.join(MODEL_NAMES)}")
    if name == "ishigami":
        params = {"a": 7.0, "b": 0.1, **params}
        for key, value in params.items():
            if key not in ("a", "b"):
                raise ValueError(f"model 'ishigami' has no parameter {key!r}; it takes a and b")
            # abs(value) <= the largest float also rules out NaN and an int
            # that float() cannot convert
            number = isinstance(value, numbers.Real) and not isinstance(value, bool)
            if not number or not abs(value) <= sys.float_info.max:
                raise ValueError(f"ishigami parameter {key!r} must be a finite number, got {value!r}")
        params = {key: float(value) for key, value in params.items()}
    elif params:
        raise ValueError(f"model {name!r} takes no parameters")
    return Model(name=name, arity=_ARITY[name], params=params)


def evaluate(model, inputs):
    """Evaluate a benchmark model row-wise on an N x K input matrix."""
    x = np.asarray(inputs, dtype=float)
    if x.ndim != 2 or x.shape[1] != model.arity:
        raise ValueError(f"model {model.name!r} expects {model.arity} input columns")
    if model.name == "toy_portfolio":
        ps, cs, pt, ct, pj, cj = (x[:, i] for i in range(6))
        # cs * ps + ct * pt + cj * pj, added left to right into one output
        # through one temporary
        out = cs * ps
        term = ct * pt
        out += term
        out += np.multiply(cj, pj, out=term)
        return out
    if model.name == "ishigami":
        a = model.params["a"]
        b = model.params["b"]
        return np.sin(x[:, 0]) + a * np.sin(x[:, 1]) ** 2 + b * x[:, 2] ** 4 * np.sin(x[:, 0])
    if model.name == "two_factor_additive":
        return x[:, 0] + x[:, 1]
    if model.name == "two_factor_multiplicative":
        return x[:, 0] * x[:, 1]
    # nested interaction: below the boundary the output is the first input
    # alone; above it, the slope of the first input depends on the third and
    # a weak trend in the second appears
    a, b, c = x[:, 0], x[:, 1], x[:, 2]
    upper = a * (NESTED_BASE_SLOPE + NESTED_SLOPE_SPREAD * (c - 0.5)) + NESTED_B_SLOPE * (b - NESTED_B0)
    return np.where(b >= NESTED_B0, upper, a)


def ishigami_analytic_indices(a, b):
    """Closed-form first- and second-order indices of the Ishigami function."""
    v1 = 0.5 * (1.0 + b * math.pi**4 / 5.0) ** 2
    v2 = a**2 / 8.0
    v13 = 8.0 * b**2 * math.pi**8 / 225.0
    v = v1 + v2 + v13
    if v == 0.0:
        raise ValueError("degenerate ishigami parameters: zero output variance")
    return {"S1": v1 / v, "S2": v2 / v, "S3": 0.0, "S13": v13 / v}


_TOY_MOMENTS = (
    ("Ps", 0.0, 4.0),
    ("Cs", 250.0, 200.0),
    ("Pt", 0.0, 2.0),
    ("Ct", 400.0, 300.0),
    ("Pj", 0.0, 1.0),
    ("Cj", 500.0, 400.0),
)


def toy_portfolio_analytic_indices():
    """Closed-form first- and second-order indices of the toy portfolio on
    its default normal inputs, and its output variance V.

    With independent P ~ N(0, sd_P) and C ~ N(mean_C, sd_C), Var(C P) is
    sd_P^2 (mean_C^2 + sd_C^2). E[Y | P] = mean_C P gives P the main effect
    sd_P^2 mean_C^2, E[Y | C] = C E[P] = 0 gives C none, and the rest,
    sd_P^2 sd_C^2, is the pair's interaction. V is the sum over the three
    products.
    """
    idx = {}
    for (p, _, sd_p), (c, mean_c, sd_c) in zip(_TOY_MOMENTS[::2], _TOY_MOMENTS[1::2]):
        idx[f"S_{p}"] = sd_p**2 * mean_c**2
        idx[f"S_{c}"] = 0.0
        idx[f"S_{p}{c}"] = sd_p**2 * sd_c**2
    v = sum(idx.values())
    return {**{key: part / v for key, part in idx.items()}, "V": v}


def default_specs(model, law="normal"):
    """Default input specs for each benchmark model.

    law applies to the toy portfolio alone: its N(mu; sigma) is read as mean
    and standard deviation, not variance, and its uniform variant spans mean
    +- two standard deviations.
    """
    if model.name == "toy_portfolio":
        if law not in ("normal", "uniform"):
            raise ValueError("law must be 'normal' or 'uniform'")
        specs = []
        for name, mean, sd in _TOY_MOMENTS:
            if law == "normal":
                dist = MarginalDistribution.normal(mean, sd)
            else:
                dist = MarginalDistribution.uniform(mean - 2 * sd, mean + 2 * sd)
            specs.append(InputSpec(name=name, distribution=dist))
        return tuple(specs)
    if model.name == "ishigami":
        u = MarginalDistribution.uniform(-math.pi, math.pi)
        return tuple(InputSpec(name=f"x{i + 1}", distribution=u) for i in range(3))
    if model.name in ("two_factor_additive", "two_factor_multiplicative"):
        u = MarginalDistribution.uniform(0.0, 5.0)
        return tuple(InputSpec(name=n, distribution=u) for n in ("A", "B"))
    u = MarginalDistribution.uniform(0.0, 1.0)
    return tuple(InputSpec(name=n, distribution=u) for n in ("A", "B", "C"))
