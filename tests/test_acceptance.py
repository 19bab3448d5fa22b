"""Acceptance gate: one test (and one printed pass/fail line) per criterion."""

import json
import math
import time

import numpy as np
import pytest

from binsa import (
    Dataset,
    DependencePlan,
    InputSpec,
    MarginalDistribution,
    SamplingPlan,
    analyze,
    conservation_check,
    decompose,
    default_specs,
    default_states,
    estimate_sobol,
    evaluate,
    get_model,
    sample_inputs,
)
from binsa.binning import bin_count_first
from binsa.core import pearson
from binsa.sampling import sobol_points
from binsa.simdec import State, StateDefinition


def _run_model(name, n, seed, method="QMC", law="normal", dependence=()):
    model = get_model(name)
    specs = default_specs(model, law=law)
    x = sample_inputs(SamplingPlan(method=method, n=n, seed=seed), specs, dependence=dependence)
    y = evaluate(model, x)
    return Dataset(inputs=x, output=y, specs=specs)


def test_criterion_1_toy_model_reproduction(record_criterion):
    # QMC n=1000, averaged over 25 seeds; runtime < 1 s per run
    firsts, seconds, sums = [], [], []
    slowest = 0.0
    for seed in range(25):
        t0 = time.perf_counter()
        rep = analyze(_run_model("toy_portfolio", 1000, seed))
        slowest = max(slowest, time.perf_counter() - t0)
        firsts.append(rep.first_order)
        seconds.append(rep.second_order)
        sums.append(conservation_check(rep))
    fo = np.mean(firsts, axis=0)
    so = np.mean(seconds, axis=0)
    total = float(np.mean(sums))
    i = {"Ps": 0, "Cs": 1, "Pt": 2, "Ct": 3, "Pj": 4, "Cj": 5}
    checks = {
        "S_Ps": (fo[i["Ps"]], 0.35, 0.03),
        "S_Pt": (fo[i["Pt"]], 0.20, 0.03),
        "S_Pj": (fo[i["Pj"]], 0.08, 0.02),
        "S_PsCs": (so[i["Ps"], i["Cs"]], 0.16, 0.03),
        "S_PtCt": (so[i["Pt"], i["Ct"]], 0.10, 0.03),
        "S_PjCj": (so[i["Pj"], i["Cj"]], 0.06, 0.02),
        "sum": (total, 0.99, 0.03),
    }
    bad = [
        f"{k}={got:.3f} (want {ref}+-{tol})"
        for k, (got, ref, tol) in checks.items()
        if abs(got - ref) > tol
    ]
    ok = not bad and slowest < 1.0
    detail = ", ".join(f"{k}={got:.3f}" for k, (got, _, _) in checks.items())
    detail += f", max_runtime={slowest:.2f}s"
    if bad:
        detail += " | out of band: " + "; ".join(bad)
    record_criterion(1, "toy model reproduction", ok, detail)


def test_criterion_2_oracle_agreement(record_criterion):
    # binning at n=1000 vs pick-freeze at 21000 evaluations (base 1500, k=6)
    rep = analyze(_run_model("toy_portfolio", 1000, seed=0))
    model = get_model("toy_portfolio")
    oracle = estimate_sobol(model, default_specs(model), 1500, seed=0)
    assert oracle.n_evaluations == 21000
    deltas = np.abs(rep.first_order - oracle.first_order)
    ok = bool(np.all(deltas <= 0.05))
    record_criterion(
        2,
        "oracle agreement (first order)",
        ok,
        "max |delta| = " + f"{deltas.max():.3f} over {len(deltas)} matched first-order indices",
    )


def test_criterion_3_dispersion_ordering(record_criterion):
    reps = {"MC": [], "QMC": []}
    for method in ("MC", "QMC"):
        for seed in range(100):
            rep = analyze(_run_model("toy_portfolio", 1000, seed, method=method))
            reps[method].append(rep.first_order)
    iqr = {
        m: np.percentile(np.array(v), 75, axis=0) - np.percentile(np.array(v), 25, axis=0)
        for m, v in reps.items()
    }
    qmc_le_mc = bool(np.all(iqr["QMC"] <= iqr["MC"]))
    ffd = [analyze(_run_model("toy_portfolio", 1000, seed, method="FFD")) for seed in range(5)]
    ffd_repeatable = all(
        np.array_equal(ffd[0].first_order, r.first_order)
        and np.array_equal(ffd[0].second_order, r.second_order)
        for r in ffd[1:]
    )
    ok = qmc_le_mc and ffd_repeatable
    record_criterion(
        3,
        "dispersion ordering",
        ok,
        f"IQR QMC {np.round(iqr['QMC'], 4).tolist()} <= MC {np.round(iqr['MC'], 4).tolist()}; "
        f"FFD zero dispersion: {ffd_repeatable}",
    )


def test_criterion_4_ishigami(record_criterion):
    t0 = time.perf_counter()
    rep = analyze(_run_model("ishigami", 10000, seed=0))
    elapsed = time.perf_counter() - t0
    s1, s2, s3 = rep.first_order
    s13 = rep.second_order[0, 2]
    ok = (
        abs(s1 - 0.3139) <= 0.03
        and abs(s2 - 0.4424) <= 0.03
        and s3 <= 0.02
        and 0.10 <= s13 <= 0.25
        and elapsed < 2.0
    )
    record_criterion(
        4,
        "ishigami analytic oracle",
        ok,
        f"S1={s1:.3f} S2={s2:.3f} S3={s3:.3f} S13={s13:.3f} runtime={elapsed:.2f}s",
    )


def test_criterion_5_dependence_sweep(record_criterion):
    t0 = time.perf_counter()
    n = 100000
    grid = (-0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75)
    problems = []
    results = {}
    for name in ("two_factor_additive", "two_factor_multiplicative"):
        for rho in grid:
            dep = (DependencePlan(kind="copula", pair=(0, 1), rho=rho),)
            ds = _run_model(name, n, seed=0, dependence=dep)
            rep = analyze(ds)
            r = pearson(ds.column(0), ds.column(1))
            s_ab = float(rep.second_order[0, 1])
            total = conservation_check(rep)
            results[(name, rho)] = (r, s_ab, total)
            if abs(total - 1.0) > 0.02:
                problems.append(f"{name} rho={rho}: sum={total:.3f}")
            if name == "two_factor_additive":
                if abs(s_ab - (-r)) > 0.03:
                    problems.append(f"additive rho={rho}: S_AB={s_ab:.3f} vs -pearson={-r:.3f}")
                if rho == 0.0 and abs(s_ab) > 0.01:
                    problems.append(f"additive rho=0: S_AB={s_ab:.3f}")
            else:
                if rho == 0.0 and abs(s_ab - 0.14) > 0.02:
                    problems.append(f"multiplicative rho=0: S_AB={s_ab:.3f}")
                if rho == 0.75 and abs(s_ab - (-0.70)) > 0.04:
                    problems.append(f"multiplicative rho=0.75: S_AB={s_ab:.3f} (pearson={r:.3f})")
    # full negative equal-portion coupling makes the additive output constant
    dep = (DependencePlan(kind="equal_portion", pair=(0, 1), fraction=1.0, sign="negative"),)
    model = get_model("two_factor_additive")
    specs = default_specs(model)
    x = sample_inputs(SamplingPlan(method="QMC", n=n, seed=0), specs, dependence=dep)
    y = evaluate(model, x)
    degenerate = bool(y.max() == y.min())
    if not degenerate:
        problems.append("full negative additive coupling not degenerate")
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        problems.append(f"runtime {elapsed:.1f}s >= 30s")
    add0 = results[("two_factor_additive", 0.0)]
    mul0 = results[("two_factor_multiplicative", 0.0)]
    mul75 = results[("two_factor_multiplicative", 0.75)]
    detail = (
        f"additive S_AB@0={add0[1]:.3f}, mult S_AB@0={mul0[1]:.3f}, "
        f"mult S_AB@r={mul75[0]:.2f} -> {mul75[1]:.3f}, degenerate={degenerate}, "
        f"runtime={elapsed:.1f}s"
    )
    if problems:
        detail += " | " + "; ".join(problems)
    record_criterion(5, "dependence sweep", not problems, detail)


def test_criterion_6_boundedness_and_symmetry(record_criterion):
    cases = []
    for name in ("toy_portfolio", "ishigami", "two_factor_additive",
                 "two_factor_multiplicative", "nested_interaction"):
        cases.append(_run_model(name, 5000, seed=1))
    for rho in (-0.75, -0.25, 0.5):
        dep = (DependencePlan(kind="copula", pair=(0, 1), rho=rho),)
        cases.append(_run_model("two_factor_multiplicative", 5000, seed=1, dependence=dep))
    for sign in ("positive", "negative"):
        dep = (DependencePlan(kind="equal_portion", pair=(0, 1), fraction=0.5, sign=sign),)
        cases.append(_run_model("two_factor_additive", 5000, seed=1, dependence=dep))
    problems = []
    extreme = 0.0
    for ds in cases:
        rep = analyze(ds)
        all_idx = np.concatenate(
            [rep.first_order, rep.second_order.ravel(), rep.combined]
        )
        extreme = max(extreme, float(np.abs(all_idx).max()))
        if not np.all((all_idx >= -1.02) & (all_idx <= 1.02)):
            problems.append("index out of [-1.02, 1.02]")
        if not np.all((rep.first_order >= -0.02) & (rep.first_order <= 1.02)):
            problems.append("first-order out of [-0.02, 1.02]")
        if not np.array_equal(rep.second_order, rep.second_order.T):
            problems.append("second-order matrix not exactly symmetric")
    record_criterion(
        6,
        "boundedness and symmetry",
        not problems,
        f"{len(cases)} cases, max |index| = {extreme:.3f}"
        + (" | " + "; ".join(sorted(set(problems))) if problems else ""),
    )


def test_criterion_7_invariance_suite(record_criterion):
    ds = _run_model("toy_portfolio", 5000, seed=2)
    rep = analyze(ds)
    affine = analyze(Dataset(inputs=ds.inputs, output=3.7 * ds.output - 12.0, specs=ds.specs))
    affine_dev = max(
        float(np.abs(rep.first_order - affine.first_order).max()),
        float(np.abs(rep.second_order - affine.second_order).max()),
        float(np.abs(rep.combined - affine.combined).max()),
    )
    perm = np.random.default_rng(3).permutation(ds.n_rows)
    permuted = analyze(Dataset(inputs=ds.inputs[perm], output=ds.output[perm], specs=ds.specs))
    bitwise = (
        np.array_equal(rep.first_order, permuted.first_order)
        and np.array_equal(rep.second_order, permuted.second_order)
        and np.array_equal(rep.combined, permuted.combined)
    )
    rerun = analyze(ds)
    repeat = np.array_equal(rep.first_order, rerun.first_order) and np.array_equal(
        rep.second_order, rerun.second_order
    )
    ok = affine_dev <= 1e-12 and bitwise and repeat
    record_criterion(
        7,
        "invariance suite",
        ok,
        f"affine max deviation = {affine_dev:.2e}, permutation bitwise = {bitwise}, "
        f"rerun bitwise = {repeat}",
    )


def test_criterion_8_qmc_correctness(record_criterion):
    origin = sobol_points(6, 1, scramble=False)[0]
    first4 = sobol_points(1, 4, scramble=False)[:, 0].tolist()
    ok = bool(np.all(origin == 0.0)) and first4 == [0.0, 0.5, 0.75, 0.25]
    record_criterion(
        8, "qmc correctness", ok, f"origin={origin.tolist()}, first 4 1-d points={first4}"
    )


def test_criterion_9_simdec_partition(record_criterion):
    problems = []
    # nested interaction with a full 3x2x2 state setting
    ds = _run_model("nested_interaction", 10000, seed=0)
    deco = decompose(ds, default_states(ds, (0, 1, 2)), n_output_bins=100)
    if len(deco.scenarios) != 12:
        problems.append(f"{len(deco.scenarios)} scenarios, expected 12")
    if math.fsum(sc.probability for sc in deco.scenarios) != 1.0:
        problems.append("probabilities do not sum to exactly 1.0")
    plain, _ = np.histogram(ds.output, bins=deco.histogram_edges)
    if not np.array_equal(deco.stacked_counts.sum(axis=0), plain):
        problems.append("stacked marginal differs from plain histogram")

    # explicit states file over a dataset with an impossible combination
    rng = np.random.default_rng(1)
    n = 10000
    a = rng.random(n)
    b = rng.random(n)
    specs = tuple(InputSpec(nm, MarginalDistribution.uniform(0, 1)) for nm in ("A", "B", "C"))
    coupled = Dataset(inputs=np.column_stack([a, b, b]), output=a + 2 * b, specs=specs)
    defs = (
        StateDefinition(0, (State("low", 0.0, 1 / 3), State("mid", 1 / 3, 2 / 3),
                            State("high", 2 / 3, 1.0))),
        StateDefinition(1, (State("low", 0.0, 0.5), State("high", 0.5, 1.0))),
        StateDefinition(2, (State("low", 0.0, 0.5), State("high", 0.5, 1.0))),
    )
    deco2 = decompose(coupled, defs, n_output_bins=100)
    if len(deco2.scenarios) != 12:
        problems.append(f"states-file case: {len(deco2.scenarios)} scenarios, expected 12")
    if math.fsum(sc.probability for sc in deco2.scenarios) != 1.0:
        problems.append("states-file probabilities do not sum to exactly 1.0")
    empties = [sc for sc in deco2.scenarios if sc.count == 0]
    # B and C coincide, so (B low, C high) and (B high, C low) never occur
    if len(empties) != 6:
        problems.append(f"{len(empties)} empty scenarios, expected 6")
    for sc in empties:
        if sc.probability != 0.0 or sc.y_min is not None or sc.y_mean is not None:
            problems.append("empty scenario lacks probability 0 / null stats")
            break
    plain2, _ = np.histogram(coupled.output, bins=deco2.histogram_edges)
    if not np.array_equal(deco2.stacked_counts.sum(axis=0), plain2):
        problems.append("states-file stacked marginal differs from plain histogram")
    record_criterion(
        9,
        "simdec partition properties",
        not problems,
        f"12+12 scenarios, {len(empties)} impossible combinations"
        + (" | " + "; ".join(problems) if problems else ""),
    )


def test_criterion_10_bin_count_regression(record_criterion):
    table = {
        (1000, 3): 10, (1000, 6): 10, (1000, 12): 10,
        (2500, 3): 25, (2500, 6): 10, (2500, 12): 10,
        (5000, 3): 50, (5000, 6): 10, (5000, 12): 10,
        (7500, 3): 50, (7500, 6): 25, (7500, 12): 10,
        (10000, 3): 50, (10000, 6): 50, (10000, 12): 10,
        (25000, 3): 100, (25000, 6): 50, (25000, 12): 25,
        (50000, 3): 100, (50000, 6): 50, (50000, 12): 50,
    }
    mismatches = [
        f"({n},{k}): got {bin_count_first(n, k)}, want {want}"
        for (n, k), want in table.items()
        if bin_count_first(n, k) != want
    ]
    clamp_ok = bin_count_first(500, 3) == 10 and bin_count_first(100000, 12) == 50
    ok = not mismatches and clamp_ok
    record_criterion(
        10,
        "bin-count rule regression",
        ok,
        f"21/21 grid cells exact, clamps (500,3)->{bin_count_first(500, 3)}, "
        f"(1e5,12)->{bin_count_first(100000, 12)}"
        + (" | " + "; ".join(mismatches) if mismatches else ""),
    )
