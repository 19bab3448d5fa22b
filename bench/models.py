"""Seeded input generators, closed-form indices and correctness checks.

Everything here is independent of binsa: the benchmark generates its own
data with numpy and derives the true sensitivity indices itself, so a
change to binsa cannot move the reference it is checked against.
"""

from __future__ import annotations

import math
import os

# Toy portfolio: (price, mean, sd) and (quantity, mean, sd) per asset, the
# same law binsa's toy_portfolio model uses; output = sum of price * quantity.
TOY_ASSETS = (("Ps", 0.0, 4.0, "Cs", 250.0, 200.0),
              ("Pt", 0.0, 2.0, "Ct", 400.0, 300.0),
              ("Pj", 0.0, 1.0, "Cj", 500.0, 400.0))
TOY_NAMES = ("Ps", "Cs", "Pt", "Ct", "Pj", "Cj")

# Wide model: 12 independent U(0, 1) inputs, z = x - 1/2,
# Y = sum_i A_i z_i + sum_(i,j) B_ij z_i z_j. Inputs 10 and 11 have no
# first-order effect; input 10 still interacts with input 4.
WIDE_K = 12
WIDE_A = (1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1, 0.0, 0.0)
WIDE_B = {(0, 1): 2.0, (2, 3): 1.5, (4, 10): 2.0}


def toy_indices():
    """First- and second-order indices of the toy portfolio.

    With independent P ~ N(0, sp) and C ~ N(mc, sc), Var(P C) =
    sp^2 (mc^2 + sc^2), the P main effect is sp^2 mc^2, the C main effect is
    0 (E[P] = 0) and the P*C interaction is sp^2 sc^2.
    """
    total = sum(sp**2 * (mc**2 + sc**2) for _, _, sp, _, mc, sc in TOY_ASSETS)
    first = {}
    second = {}
    for p, _, sp, c, mc, sc in TOY_ASSETS:
        first[p] = sp**2 * mc**2 / total
        first[c] = 0.0
        second[(p, c)] = sp**2 * sc**2 / total
    return first, second, total


def ishigami_indices(a=7.0, b=0.1):
    """First-order indices of sin x1 + a sin^2 x2 + b x3^4 sin x1, x ~ U(-pi, pi)."""
    v1 = 0.5 + b * math.pi**4 / 5 + b**2 * math.pi**8 / 50
    v2 = a**2 / 8
    v13 = b**2 * math.pi**8 / 18 - b**2 * math.pi**8 / 50
    total = v1 + v2 + v13
    return {"x1": v1 / total, "x2": v2 / total, "x3": 0.0}


def product_indices(lo=0.0, hi=5.0):
    """Indices of A * B with independent A, B ~ U(lo, hi)."""
    mean = (lo + hi) / 2
    var = (hi - lo) ** 2 / 12
    main = mean**2 * var
    inter = var**2
    total = 2 * main + inter
    return {"S_A": main / total, "S_B": main / total, "S_AB": inter / total}


def wide_indices():
    """First-order list and nonzero pair dict of the wide model (sum is 1)."""
    main = [a * a / 12 for a in WIDE_A]
    inter = {pair: b * b / 144 for pair, b in WIDE_B.items()}
    total = sum(main) + sum(inter.values())
    return [v / total for v in main], {p: v / total for p, v in inter.items()}


def index_tolerance(n_rows):
    """Largest accepted |estimate - closed form| for an index from n rows.

    Loose enough for sampling noise and binning bias at the given size, and
    far tighter than the errors a broken estimator makes.
    """
    return max(0.02, 4.0 / math.sqrt(n_rows))


# The seed estimator keeps about 60 rows per pair cell, which biases every
# pair index upward by about (1 - S_i - S_j) / 60 whatever N is. Pair checks
# allow that much on top of the tolerance; the bias itself shows, as measured,
# in conservation_err.
PAIR_BIAS_ALLOWANCE = 1.0 / 60.0


def wide_matrix(seed, n_rows):
    """n x 13 float64 matrix: 12 U(0, 1) inputs and the wide-model output."""
    import numpy as np

    rng = np.random.default_rng(seed)
    x = rng.random((n_rows, WIDE_K))
    z = x - 0.5
    y = z @ np.asarray(WIDE_A)
    for (i, j), b in WIDE_B.items():
        y = y + b * z[:, i] * z[:, j]
    return np.column_stack([x, y])


CACHE_KEEP = 3


def cached(path, make):
    """Return path, creating it with make(tmp_path) if missing.

    Writes go to a temporary name first, so an interrupted run never
    leaves a partial file behind. Only the CACHE_KEEP most recently used
    files of the directory are kept.
    """
    if os.path.exists(path):
        os.utime(path)
        return path
    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    tmp = path + ".tmp"
    make(tmp)
    os.replace(tmp, path)
    files = sorted(
        (os.path.join(directory, f) for f in os.listdir(directory) if not f.endswith(".tmp")),
        key=os.path.getmtime,
    )
    for old in files[:-CACHE_KEEP]:
        os.remove(old)
    return path


class Checks:
    """Named pass/fail correctness checks; every check that runs is recorded."""

    def __init__(self):
        self.results = {}

    def record(self, name, ok, detail=""):
        prev = self.results.get(name)
        self.results[name] = {"ok": bool(ok) and (prev is None or prev["ok"]), "detail": detail}

    def near(self, name, got, want, tol):
        """Pass when every |got[k] - want[k]| <= tol; returns the largest gap."""
        gaps = {k: abs(got[k] - want[k]) for k in want}
        worst = max(gaps, key=gaps.get)
        self.record(name, gaps[worst] <= tol,
                    f"max |err| {gaps[worst]:.3g} at {worst} (tol {tol:.3g})")
        return gaps[worst]

    @property
    def ok(self):
        return all(r["ok"] for r in self.results.values())
