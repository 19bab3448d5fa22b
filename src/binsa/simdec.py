"""Scenario decomposition of the output distribution.

The most influential inputs (by combined index) are split into named states;
every combination of states forms a color-coded scenario with its own output
statistics and a slice of the stacked output histogram.
"""

from __future__ import annotations

import colorsys
from dataclasses import dataclass, field

import numpy as np

from .core import stable_mean

__all__ = [
    "State",
    "StateDefinition",
    "Scenario",
    "Decomposition",
    "select_inputs",
    "default_states",
    "decompose",
    "assign_colors",
]

# main hues for the states of the most influential input, in order
# (blue, olive-yellow, green, red, purple, ...), as HLS hue fractions
_HUES = (0.61, 0.15, 0.36, 0.02, 0.78, 0.08, 0.52, 0.89, 0.07, 0.45)
_SATURATION = 0.85


@dataclass(frozen=True)
class State:
    """A named slice of one input: [lo, hi) numeric range or level set."""

    label: str
    lo: float = 0.0
    hi: float = 0.0
    levels: tuple = ()


@dataclass(frozen=True)
class StateDefinition:
    """Ordered states of one selected input. Numeric states are ascending
    and contiguous (each max is the next state's min); the last one is
    max-inclusive."""

    input_index: int
    states: tuple

    def __post_init__(self):
        if len(self.states) < 1:
            raise ValueError("state definition requires at least one state")
        if self.states[0].levels:
            return
        for j, st in enumerate(self.states):
            if not st.lo <= st.hi:
                raise ValueError(f"state {j}: min {st.lo!r} must not exceed max {st.hi!r}")
            if j and st.lo != self.states[j - 1].hi:
                raise ValueError(
                    f"state {j}: min {st.lo!r} must equal the max of state {j - 1}, "
                    f"{self.states[j - 1].hi!r}"
                )


@dataclass(frozen=True)
class Scenario:
    scenario_id: str
    state_labels: tuple
    color: str
    count: int
    probability: float
    y_min: float | None
    y_mean: float | None
    y_max: float | None


@dataclass(frozen=True)
class Decomposition:
    selected: tuple
    state_definitions: tuple
    scenarios: tuple
    row_scenarios: np.ndarray
    histogram_edges: np.ndarray
    stacked_counts: np.ndarray


def select_inputs(report, max_inputs=3, cum_threshold=0.8):
    """Most influential inputs: shortest combined-index prefix reaching the
    cumulative threshold, capped."""
    combined = np.asarray(report.combined, dtype=float)
    if not np.all(np.isfinite(combined)):
        raise ValueError("report contains non-finite combined indices")
    order = np.argsort(-combined, kind="stable")
    if combined[order[0]] <= 0:
        raise ValueError("nothing to decompose")
    selected = []
    cum = 0.0
    for idx in order[: max(1, max_inputs)]:
        selected.append(int(idx))
        cum += combined[idx]
        if cum >= cum_threshold:
            break
    return tuple(selected)


def default_states(dataset, selected):
    """Default state setup: 3 equal-width states for the top input, 2 for the
    rest; categorical inputs get one state per level."""
    if not selected:
        raise ValueError("no inputs selected")
    defs = []
    for rank, idx in enumerate(selected):
        spec = dataset.specs[idx]
        if spec.distribution.kind == "categorical":
            states = tuple(
                State(label=str(lvl), levels=(li,))
                for li, lvl in enumerate(spec.distribution.levels)
            )
            defs.append(StateDefinition(input_index=idx, states=states))
            continue
        col = dataset.column(idx)
        lo, hi = float(col.min()), float(col.max())
        if lo == hi:
            raise ValueError("degenerate input")
        n_states = 3 if rank == 0 else 2
        edges = np.linspace(lo, hi, n_states + 1)
        labels = ("low", "medium", "high") if n_states == 3 else ("low", "high")
        states = tuple(
            State(label=labels[s], lo=float(edges[s]), hi=float(edges[s + 1]))
            for s in range(n_states)
        )
        defs.append(StateDefinition(input_index=idx, states=states))
    return tuple(defs)


def _state_of(column, spec, definition):
    """State index per row; numeric states are [lo, hi), last max-inclusive."""
    states = definition.states
    if spec.distribution.kind == "categorical" or states[0].levels:
        # lookup[code] is the state that holds level code, -1 for none; a
        # value stands for the code it truncates to
        lookup = np.full(1 + max(max(st.levels, default=-1) for st in states), -1)
        for si, st in enumerate(states):
            lookup[list(st.levels)] = si
        idx = np.full(len(column), -1, dtype=np.int64)
        known = (column > -1) & (column < len(lookup))
        idx[known] = lookup[column[known].astype(np.int64)]
    else:
        edges = np.array([st.lo for st in states] + [states[-1].hi], dtype=float)
        idx = np.searchsorted(edges, column, side="right") - 1
        idx[column == edges[-1]] = len(states) - 1
    if np.any(idx < 0) or np.any(idx >= len(states)):
        raise ValueError(
            f"states for input index {definition.input_index} do not cover the observed range"
        )
    return idx


def decompose(dataset, state_definitions, n_output_bins=100):
    """Partition the rows into scenarios and stack the output histogram.

    Scenarios are ordered lexicographically by state indices with the first
    (most influential) input varying slowest. Combinations that never occur
    are kept with probability 0 and null statistics.
    """
    defs = tuple(state_definitions)
    if not defs:
        raise ValueError("decompose requires at least one state definition")
    n = dataset.n_rows
    sizes = [len(d.states) for d in defs]
    n_scen = int(np.prod(sizes))

    scen_idx = np.zeros(n, dtype=np.int64)
    for d, size in zip(defs, sizes):
        si = _state_of(dataset.column(d.input_index), dataset.specs[d.input_index], d)
        scen_idx = scen_idx * size + si

    y = dataset.output
    ylo, yhi = float(y.min()), float(y.max())
    if ylo == yhi:
        edges = np.array([ylo - 0.5, yhi + 0.5])
        n_output_bins = 1
    else:
        edges = np.linspace(ylo, yhi, n_output_bins + 1)
    ybin = np.clip(
        np.floor((y - edges[0]) * (n_output_bins / (edges[-1] - edges[0]))).astype(np.int64),
        0,
        n_output_bins - 1,
    )
    stacked = np.bincount(scen_idx * n_output_bins + ybin, minlength=n_scen * n_output_bins)
    stacked = stacked.reshape(n_scen, n_output_bins)

    # the rows of scenario s are order[bounds[s]:bounds[s + 1]], in any
    # order: min and max do not depend on it, and stable_mean sorts them
    order = np.argsort(scen_idx)
    counts = np.bincount(scen_idx, minlength=n_scen)
    bounds = np.concatenate(([0], np.cumsum(counts)))

    colors = assign_colors(sizes[0], n_scen // sizes[0])

    scenarios = []
    for s in range(n_scen):
        labels = []
        rem = s
        for size, d in zip(reversed(sizes), reversed(defs)):
            labels.append(d.states[rem % size].label)
            rem //= size
        labels = tuple(reversed(labels))
        c = int(counts[s])
        if c > 0:
            ys = y[order[bounds[s] : bounds[s + 1]]]
            stats = (float(ys.min()), stable_mean(ys), float(ys.max()))
        else:
            stats = (None, None, None)
        scenarios.append(
            Scenario(
                scenario_id=f"sc{s + 1}",
                state_labels=labels,
                color=colors[s],
                count=c,
                probability=c / n,
                y_min=stats[0],
                y_mean=stats[1],
                y_max=stats[2],
            )
        )
    return Decomposition(
        selected=tuple(d.input_index for d in defs),
        state_definitions=defs,
        scenarios=tuple(scenarios),
        row_scenarios=scen_idx,
        histogram_edges=edges,
        stacked_counts=stacked,
    )


def assign_colors(n_top_states, group_size):
    """One hue per top-input state, monotonically lighter shades within it.

    group_size is the number of scenarios under each top-input state; colors
    are returned flat, in scenario order, as RGB hex strings.
    """
    if n_top_states > len(_HUES):
        raise ValueError("palette exhausted")
    lightness = [0.45] if group_size == 1 else np.linspace(0.30, 0.82, group_size)
    colors = []
    for hue in _HUES[:n_top_states]:
        for light in lightness:
            r, g, b = colorsys.hls_to_rgb(hue, float(light), _SATURATION)
            colors.append(f"#{round(r * 255):02X}{round(g * 255):02X}{round(b * 255):02X}")
    return tuple(colors)
