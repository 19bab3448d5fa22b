import numpy as np
import pytest

from binsa import (
    Dataset,
    InputSpec,
    MarginalDistribution,
    SamplingPlan,
    analyze,
    decompose,
    default_specs,
    default_states,
    evaluate,
    get_model,
    sample_inputs,
    select_inputs,
)
from binsa.core import stable_mean
from binsa.simdec import State, StateDefinition, _state_of, assign_colors


def _nested_dataset(n=10000, seed=0):
    m = get_model("nested_interaction")
    specs = default_specs(m)
    x = sample_inputs(SamplingPlan(method="QMC", n=n, seed=seed), specs)
    return Dataset(inputs=x, output=evaluate(m, x), specs=specs)


def test_select_inputs_threshold_and_cap():
    ds = _nested_dataset()
    rep = analyze(ds)
    sel = select_inputs(rep)
    assert 1 <= len(sel) <= 3
    combined = rep.combined
    # selection is a prefix of the descending combined order
    order = np.argsort(-combined, kind="stable")
    assert list(sel) == list(order[: len(sel)])
    # stops as soon as the cumulative threshold is reached
    if len(sel) > 1:
        assert combined[list(sel[:-1])].sum() < 0.8
    assert len(select_inputs(rep, max_inputs=1)) == 1


def _constant_input_dataset(n=2000, seed=0):
    """y = a + 0.5 b + 2 noise, with input c held at 3.0."""
    rng = np.random.default_rng(seed)
    a, b, noise = rng.random(n), rng.random(n), rng.random(n)
    u = MarginalDistribution.uniform(0.0, 1.0)
    specs = (InputSpec("a", u), InputSpec("b", u),
             InputSpec("c", MarginalDistribution.uniform(2.5, 3.5)))
    x = np.column_stack([a, b, np.full(n, 3.0)])
    return Dataset(inputs=x, output=a + 0.5 * b + 2 * noise, specs=specs)


def test_select_inputs_stops_before_a_zero_combined_input():
    # the threshold is not reached by a and b, and c's combined index is 0:
    # c is not selected, so its constant column gets no states
    ds = _constant_input_dataset()
    with pytest.warns(UserWarning, match="degenerate input column 'c'"):
        rep = analyze(ds)
    assert rep.combined[2] == 0.0 and rep.combined[:2].sum() < 0.8
    assert select_inputs(rep) == (0, 1)
    assert len(default_states(ds, select_inputs(rep))) == 2


def test_select_inputs_rejects_nothing_to_decompose():
    rep = analyze(_nested_dataset())
    zeroed = type(rep)(
        names=rep.names,
        first_order=np.zeros_like(rep.first_order),
        second_order=np.zeros_like(rep.second_order),
        combined=np.zeros_like(rep.combined),
        var_y=rep.var_y,
        n_bins_first=rep.n_bins_first,
        n_bins_second_per_dim=rep.n_bins_second_per_dim,
    )
    with pytest.raises(ValueError, match="nothing to decompose"):
        select_inputs(zeroed)


def test_default_states_three_then_two():
    ds = _nested_dataset()
    defs = default_states(ds, (0, 1, 2))
    assert [len(d.states) for d in defs] == [3, 2, 2]
    top = defs[0].states
    assert [s.label for s in top] == ["low", "medium", "high"]
    col = ds.column(0)
    assert top[0].lo == col.min() and top[-1].hi == col.max()
    # equal widths
    widths = [s.hi - s.lo for s in top]
    assert widths[0] == pytest.approx(widths[1]) == pytest.approx(widths[2])


def test_decompose_probabilities_sum_to_one_exactly():
    ds = _nested_dataset()
    defs = default_states(ds, (0, 1, 2))
    deco = decompose(ds, defs)
    assert len(deco.scenarios) == 12
    assert sum(sc.count for sc in deco.scenarios) == ds.n_rows
    assert sum(sc.probability for sc in deco.scenarios) == pytest.approx(1.0, abs=1e-15)


def test_decompose_stacked_marginal_equals_plain_histogram():
    ds = _nested_dataset()
    deco = decompose(ds, default_states(ds, (0, 1)), n_output_bins=50)
    plain, _ = np.histogram(ds.output, bins=deco.histogram_edges)
    assert np.array_equal(deco.stacked_counts.sum(axis=0), plain)


def test_decompose_scenario_order_top_input_slowest():
    ds = _nested_dataset()
    deco = decompose(ds, default_states(ds, (0, 1)))
    labels = [sc.state_labels for sc in deco.scenarios]
    assert labels == [
        ("low", "low"), ("low", "high"),
        ("medium", "low"), ("medium", "high"),
        ("high", "low"), ("high", "high"),
    ]
    assert [sc.scenario_id for sc in deco.scenarios] == [f"sc{i}" for i in range(1, 7)]


def test_decompose_scenario_stats_match_direct_computation():
    ds = _nested_dataset(n=2000)
    defs = default_states(ds, (1,))
    deco = decompose(ds, defs)
    b = ds.column(1)
    lo_state = defs[0].states[0]
    mask = (b >= lo_state.lo) & (b < lo_state.hi)
    ys = ds.output[mask]
    sc = deco.scenarios[0]
    assert sc.count == mask.sum()
    assert sc.y_min == ys.min() and sc.y_max == ys.max()
    assert sc.y_mean == pytest.approx(ys.mean(), abs=1e-12)


@pytest.mark.parametrize("step", [0.5, 0.05, 1e-3], ids=["few-values", "coarse", "fine"])
def test_decompose_stats_on_tied_outputs_match_a_per_scenario_reference(step):
    # rounded outputs tie within and across scenarios; + 0.0 turns -0.0
    # into 0.0, as the sign of a zero at a minimum or maximum depends on
    # which tied row comes first
    ds = _nested_dataset(n=5000, seed=4)
    y = np.round(ds.output / step) * step + 0.0
    ds = Dataset(inputs=ds.inputs, output=y, specs=ds.specs)
    deco = decompose(ds, default_states(ds, (0, 1, 2)))
    for s, sc in enumerate(deco.scenarios):
        ys = y[deco.row_scenarios == s]
        assert sc.count == ys.size == deco.stacked_counts[s].sum()
        if ys.size:
            assert (sc.y_min, sc.y_mean, sc.y_max) == (np.min(ys), stable_mean(ys), np.max(ys))
        else:
            assert (sc.y_min, sc.y_mean, sc.y_max) == (None, None, None)


def test_decompose_empty_scenario_kept_with_null_stats():
    # B and C perfectly coupled: (B high, C low) never occurs
    n = 4000
    rng = np.random.default_rng(3)
    a = rng.random(n)
    b = rng.random(n)
    specs = tuple(InputSpec(nm, MarginalDistribution.uniform(0, 1)) for nm in ("A", "B", "C"))
    ds = Dataset(inputs=np.column_stack([a, b, b]), output=a + b, specs=specs)
    defs = (
        StateDefinition(1, (State("low", 0.0, 0.5), State("high", 0.5, 1.0))),
        StateDefinition(2, (State("low", 0.0, 0.5), State("high", 0.5, 1.0))),
    )
    deco = decompose(ds, defs)
    empties = [sc for sc in deco.scenarios if sc.count == 0]
    assert len(empties) == 2
    for sc in empties:
        assert sc.probability == 0.0
        assert sc.y_min is None and sc.y_mean is None and sc.y_max is None


def test_decompose_single_state_trivial_scenario():
    ds = _nested_dataset(n=500)
    defs = (StateDefinition(0, (State("all", 0.0, 1.0),)),)
    deco = decompose(ds, defs)
    assert len(deco.scenarios) == 1
    assert deco.scenarios[0].probability == 1.0


def test_state_definition_needs_ascending_contiguous_states():
    # with a gap, every row in [0, 0.5) would fall to state "a"
    with pytest.raises(ValueError, match="state 1: min 0.5 must equal the max of state 0"):
        StateDefinition(0, (State("a", -4.0, 0.0), State("b", 0.5, 4.0)))
    with pytest.raises(ValueError, match="state 0: min 1.0 must not exceed max 0.0"):
        StateDefinition(0, (State("a", 1.0, 0.0), State("b", 0.0, 4.0)))


def test_decompose_uncovered_range_raises():
    ds = _nested_dataset(n=500)
    defs = (StateDefinition(0, (State("half", 0.0, 0.5),)),)
    with pytest.raises(ValueError, match="do not cover"):
        decompose(ds, defs)


def test_level_states_index_rows_as_a_per_row_lookup_does():
    # levels 9 and 11 of the 12 are in no state
    levels = tuple(f"l{i}" for i in range(12))
    categorical = MarginalDistribution.categorical(levels, (1 / 12,) * 12)
    definition = StateDefinition(0, (
        State("a", levels=(0, 3, 7)), State("b", levels=(1, 2)),
        State("c", levels=(4, 5, 6, 8)), State("d", levels=(10,)),
    ))

    def per_row(column):
        lookup = {lvl: si for si, st in enumerate(definition.states) for lvl in st.levels}
        return np.array([lookup.get(int(v), -1) for v in column], dtype=np.int64)

    rng = np.random.default_rng(5)
    codes = rng.choice([0, 1, 2, 3, 4, 5, 6, 7, 8, 10], size=5000).astype(float)
    # a numeric column with level states: each value stands for the code it
    # truncates to, so -0.5 is level 0
    fractional = np.concatenate([codes + rng.random(5000) * 0.99, [-0.5, -0.0, 10.999]])
    for column, dist in ((codes, categorical), (fractional, MarginalDistribution.uniform(-1, 11))):
        got = _state_of(column, InputSpec("c", dist), definition)
        assert got.dtype == np.int64 and got.tobytes() == per_row(column).tobytes()
    for code in (9.0, 11.0, 11.5, 12.0, -1.0, 1e300):
        assert per_row([code])[0] == -1
        with pytest.raises(ValueError, match="do not cover the observed range"):
            _state_of(np.append(codes, code), InputSpec("c", categorical), definition)


def test_decompose_categorical_states():
    n = 3000
    rng = np.random.default_rng(4)
    cat = rng.integers(0, 2, n).astype(float)
    u = rng.random(n)
    specs = (
        InputSpec("c", MarginalDistribution.categorical(("off", "on"), (0.5, 0.5))),
        InputSpec("u", MarginalDistribution.uniform(0, 1)),
    )
    ds = Dataset(inputs=np.column_stack([cat, u]), output=cat + u, specs=specs)
    defs = (StateDefinition(0, (State("off", levels=(0,)), State("on", levels=(1,)))),)
    deco = decompose(ds, defs)
    assert deco.scenarios[0].count == int(np.sum(cat == 0))


def test_default_states_give_a_categorical_input_one_state_per_level():
    n = 300
    codes = np.arange(n) % 3
    u = np.linspace(0.0, 1.0, n)
    specs = (
        InputSpec("c", MarginalDistribution.categorical(("x", "y", "z"), (0.2, 0.3, 0.5))),
        InputSpec("u", MarginalDistribution.uniform(0, 1)),
    )
    ds = Dataset(inputs=np.column_stack([codes, u]), output=codes + u, specs=specs)
    (definition,) = default_states(ds, (0,))
    assert [(s.label, s.levels) for s in definition.states] == [
        ("x", (0,)), ("y", (1,)), ("z", (2,))]
    deco = decompose(ds, (definition,))
    assert [sc.count for sc in deco.scenarios] == [100, 100, 100]


def test_decompose_constant_output_has_one_bin():
    ds = _nested_dataset(n=500)
    flat = Dataset(inputs=ds.inputs, output=np.full(ds.n_rows, 2.5), specs=ds.specs)
    deco = decompose(flat, default_states(flat, (0,)))
    assert deco.histogram_edges.tolist() == [2.0, 3.0]
    assert deco.stacked_counts.shape == (3, 1)
    assert deco.stacked_counts.sum() == ds.n_rows


def test_assign_colors_structure():
    colors = assign_colors(3, 4)
    assert len(colors) == 12 and len(set(colors)) == 12
    assert all(c.startswith("#") and len(c) == 7 for c in colors)
    single = assign_colors(1, 1)
    assert len(single) == 1
    with pytest.raises(ValueError, match="palette exhausted"):
        assign_colors(11, 1)


def test_decompose_is_deterministic():
    ds = _nested_dataset()
    defs = default_states(ds, (0, 1))
    a = decompose(ds, defs)
    b = decompose(ds, defs)
    assert [sc.y_mean for sc in a.scenarios] == [sc.y_mean for sc in b.scenarios]
    assert np.array_equal(a.stacked_counts, b.stacked_counts)
