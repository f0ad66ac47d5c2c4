"""Rendering of reports to CSV, JSON, and SVG bar charts.

Numbers are rounded to 12 significant digits and printed as the shortest
decimal that round-trips to the rounded value, so CSV and JSON runs emit
byte-identical figures across platforms.
"""

from __future__ import annotations

import csv
import io
import json
import math


def printed_value(x: float) -> float:
    """``x`` rounded to the 12 significant digits the output prints; -0.0 becomes 0.0."""
    rounded = float(f"{float(x):.12g}")
    return 0.0 if rounded == 0.0 else rounded


def format_number(x: float) -> str:
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return repr(printed_value(x))


def json_value(x: float):
    """The same 12-digit rounding as the text form; infinities become strings."""
    x = float(x)
    if math.isinf(x) or math.isnan(x):
        return format_number(x)
    return printed_value(x)


def render_csv(header, rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([format_number(v) if isinstance(v, float) else v for v in row])
    return buffer.getvalue()


def render_json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


_CHART_COLORS = ("#4878a8", "#e49444", "#5ba053", "#b04e4e")
# XML text escapes, by a table: xml.sax.saxutils would import urllib.request and 40-odd modules
_XML_TEXT = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


def render_bar_chart_svg(component_names, data_series) -> str:
    """Grouped bar chart of normalized inspection values in [0, 1], one group per component.

    ``data_series`` is a sequence of (label, values) pairs; every value list
    must match the component count. Names and labels are escaped as XML text.
    """
    names = [str(name).translate(_XML_TEXT) for name in component_names]
    series = [(str(label), [float(v) for v in values]) for label, values in data_series]
    for label, values in series:
        if len(values) != len(names):
            raise ValueError(f"series {label!r} has {len(values)} values "
                             f"for {len(names)} components")
    width, height = 760, 400
    left, right, top, bottom = 56, 16, 40, 56
    plot_w = width - left - right
    plot_h = height - top - bottom
    group_w = plot_w / len(names)
    bar_w = group_w * 0.8 / len(series)

    def y_of(value):
        return top + plot_h * (1.0 - min(max(value, 0.0), 1.0))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        '<rect width="100%" height="100%" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="22" text-anchor="middle" '
        'font-family="sans-serif" font-size="14">normalized inspection value</text>',
    ]
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = y_of(tick)
        parts.append(f'<line x1="{left}" y1="{y:.2f}" x2="{width - right}" y2="{y:.2f}" '
                     'stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<text x="{left - 6}" y="{y + 4:.2f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">{tick:g}</text>')
    for k, (label, values) in enumerate(series):
        color = _CHART_COLORS[k % len(_CHART_COLORS)]
        for g, value in enumerate(values):
            x = left + g * group_w + group_w * 0.1 + k * bar_w
            y = y_of(value)
            h = top + plot_h - y
            parts.append(f'<rect x="{x:.2f}" y="{y:.2f}" width="{bar_w:.2f}" '
                         f'height="{h:.2f}" fill="{color}"/>')
        legend_x = left + 8 + k * 120
        parts.append(f'<rect x="{legend_x}" y="{height - 20}" width="12" height="12" '
                     f'fill="{color}"/>')
        parts.append(f'<text x="{legend_x + 16}" y="{height - 10}" '
                     f'font-family="sans-serif" font-size="11">{label.translate(_XML_TEXT)}</text>')
    for g, name in enumerate(names):
        x = left + g * group_w + group_w / 2
        parts.append(f'<text x="{x:.2f}" y="{top + plot_h + 16}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11">{name}</text>')
    parts.append(f'<line x1="{left}" y1="{top + plot_h}" x2="{width - right}" '
                 f'y2="{top + plot_h}" stroke="black" stroke-width="1"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
