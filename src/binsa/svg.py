"""Native SVG rendering (rectangles and text only) so every plot is
deterministic and diff-able."""

from __future__ import annotations

__all__ = ["bar_chart", "stacked_histogram"]

_FONT = "font-family='monospace' font-size='12'"
_BAR_COLOR = "#1064E7"


def escape(text):
    """text with '&', '<' and '>' as XML entities, as xml.sax.saxutils.escape
    does; that module's import loads urllib, http, email and ssl."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _svg(width, height, body, metadata=""):
    desc = f"<desc>{escape(metadata)}</desc>" if metadata else ""
    return (
        f"<svg xmlns='http://www.w3.org/2000/svg' width='{width}' height='{height}' "
        f"viewBox='0 0 {width} {height}'>{desc}"
        f"<rect x='0' y='0' width='{width}' height='{height}' fill='white'/>"
        f"{body}</svg>"
    )


def _fmt(x):
    return f"{x:.2f}".rstrip("0").rstrip(".")


def bar_chart(labels, values, title="", metadata=""):
    """Horizontal bar chart of named index values."""
    if len(labels) != len(values):
        raise ValueError("labels and values must have equal length")
    bar_h, gap, left, top = 22, 8, 110, 40
    width = 560
    span = max(1e-12, max(abs(v) for v in values), 1.0)
    scale = (width - left - 120) / span
    rows = []
    rows.append(f"<text x='10' y='24' {_FONT} font-size='14'>{escape(title)}</text>")
    for i, (label, value) in enumerate(zip(labels, values)):
        y = top + i * (bar_h + gap)
        w = abs(value) * scale
        x = left if value >= 0 else left - w
        rows.append(
            f"<text x='{left - 8}' y='{y + bar_h - 6}' text-anchor='end' {_FONT}>"
            f"{escape(str(label))}</text>"
        )
        rows.append(
            f"<rect x='{_fmt(x)}' y='{y}' width='{_fmt(w)}' height='{bar_h}' fill='{_BAR_COLOR}'/>"
        )
        rows.append(
            f"<text x='{_fmt(left + max(w, 0) + 6)}' y='{y + bar_h - 6}' {_FONT}>"
            f"{value:.4f}</text>"
        )
    height = top + len(labels) * (bar_h + gap) + 20
    return _svg(width, height, "".join(rows), metadata)


def stacked_histogram(edges, stacked_counts, colors, legend_labels, title="", metadata=""):
    """Stacked frequency distribution: one color-coded slice per scenario."""
    n_scen, n_bins = len(stacked_counts), len(stacked_counts[0]) if stacked_counts else 0
    if len(edges) != n_bins + 1:
        raise ValueError("edges must have one more entry than histogram bins")
    if len(colors) != n_scen or len(legend_labels) != n_scen:
        raise ValueError("one color and one label per scenario required")
    plot_w, plot_h, left, top = 640, 280, 60, 40
    legend_h = 18 * n_scen + 16
    width = left + plot_w + 270
    height = top + plot_h + 60
    totals = [sum(stacked_counts[s][b] for s in range(n_scen)) for b in range(n_bins)]
    peak = max(1, max(totals))
    bin_w = plot_w / n_bins
    body = [f"<text x='10' y='24' {_FONT} font-size='14'>{escape(title)}</text>"]
    for b in range(n_bins):
        y_cursor = top + plot_h
        for s in range(n_scen):
            c = stacked_counts[s][b]
            if c == 0:
                continue
            h = c / peak * plot_h
            y_cursor -= h
            body.append(
                f"<rect x='{_fmt(left + b * bin_w)}' y='{_fmt(y_cursor)}' "
                f"width='{_fmt(bin_w)}' height='{_fmt(h)}' fill='{colors[s]}'/>"
            )
    # axis line and range labels
    body.append(
        f"<line x1='{left}' y1='{top + plot_h}' x2='{left + plot_w}' y2='{top + plot_h}' "
        f"stroke='black'/>"
    )
    body.append(f"<text x='{left}' y='{top + plot_h + 18}' {_FONT}>{edges[0]:.4g}</text>")
    body.append(
        f"<text x='{left + plot_w}' y='{top + plot_h + 18}' text-anchor='end' {_FONT}>"
        f"{edges[-1]:.4g}</text>"
    )
    # legend: scenario colors and state-tuple labels
    lx = left + plot_w + 16
    for s in range(n_scen):
        ly = top + s * 18
        body.append(f"<rect x='{lx}' y='{ly}' width='12' height='12' fill='{colors[s]}'/>")
        body.append(
            f"<text x='{lx + 18}' y='{ly + 11}' {_FONT}>{escape(str(legend_labels[s]))}</text>"
        )
    return _svg(width, max(height, top + legend_h + 40), "".join(body), metadata)
