"""Plain-text rendering of results: tables and simple bar charts.

The CLI and the examples use these helpers to print results as text —
tables, stacked energy-decomposition bars, metric-vs-heap series
(Figures 7, 10), and the instrumentation-perturbation line.
"""

from repro.errors import ConfigurationError


def render_table(headers, rows, title=None, float_fmt="{:.2f}"):
    """Render an aligned plain-text table.

    ``rows`` may contain strings, ints, or floats (formatted with
    ``float_fmt``).
    """
    if not headers:
        raise ConfigurationError("a table needs headers")
    text_rows = []
    for row in rows:
        text_rows.append([
            cell if isinstance(cell, str)
            else (str(cell) if isinstance(cell, int)
                  else float_fmt.format(cell))
            for cell in row
        ])
    widths = [len(h) for h in headers]
    for row in text_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in text_rows:
        lines.append(
            "  ".join(cell.rjust(w) for cell, w in zip(row, widths))
        )
    return "\n".join(lines)


def render_stacked_bar(fractions, width=50):
    """One stacked horizontal bar from ``{label: fraction}``.

    Each label contributes a block of characters proportional to its
    fraction; the legend maps block letters to labels.
    """
    total = sum(fractions.values())
    if total <= 0:
        raise ConfigurationError("fractions must sum to > 0")
    bar = []
    legend = []
    for i, (label, frac) in enumerate(fractions.items()):
        letter = label[0].upper() if label else "?"
        n = int(round(width * frac / total))
        bar.append(letter * n)
        legend.append(f"{letter}={label} {100 * frac / total:.1f}%")
    return "".join(bar).ljust(width)[:width] + "  |  " + ", ".join(legend)


def render_series(series, x_label="x", y_fmt="{:.1f}"):
    """Render ``{name: [(x, y), ...]}`` as an aligned text matrix with
    one column per x value and one row per series."""
    xs = sorted({x for points in series.values() for x, _ in points})
    headers = [x_label] + [str(x) for x in xs]
    rows = []
    for name, points in series.items():
        by_x = dict(points)
        rows.append(
            [name]
            + [
                y_fmt.format(by_x[x]) if x in by_x else "-"
                for x in xs
            ]
        )
    return render_table(headers, rows)


def render_perturbation(report):
    """Render a :class:`~repro.core.metrics.PerturbationReport`.

    This is the paper's Section IV-C number — what the measurement
    methodology itself cost the measured run — printed alongside every
    experiment so the cost of instrumentation is never invisible.
    """
    return (
        "instrumentation perturbation (the methodology's own cost): "
        + report.describe()
    )
