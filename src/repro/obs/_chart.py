"""Shared inline-SVG chart/page primitives for the HTML dashboards.

Internal to :mod:`repro.obs` — the public surface is the renderers in
:mod:`repro.obs.dashboard`.  Everything here produces deterministic
markup (no timestamps, no randomness) so dashboard output can be
golden-tested byte-for-byte.

The single-series :func:`_line_chart` (with a hover layer) and the
multi-series :func:`multi_line_chart` (with a legend, for the timeline
panels) both draw through one SVG skeleton, :func:`_plot`.  The page
chrome (:data:`_STYLE`, :data:`_SCRIPT`, :func:`_page`), tiles,
tick/decimation helpers and the number formatters live here too.
"""

from __future__ import annotations

import html
import json
import math
from typing import List, Optional, Sequence, Tuple

__all__ = [
    "multi_line_chart",
]


# -- generic plumbing ----------------------------------------------------------

def _esc(text: object) -> str:
    return html.escape(str(text), quote=True)


def _fmt(value: Optional[float], unit: str = "") -> str:
    """Compact human figure: 1,284 / 12.9K / 4.2M / 1.3G."""
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "—"
    number = float(value)
    for divisor, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "K")):
        if abs(number) >= divisor:
            return f"{number / divisor:.1f}{suffix}{unit}"
    if number == int(number):
        return f"{int(number):,}{unit}"
    return f"{number:.3g}{unit}"


def _fmt_time(seconds: Optional[float]) -> str:
    if seconds is None or (isinstance(seconds, float) and math.isnan(seconds)):
        return "—"
    return f"{float(seconds):,.0f}s"


def _ticks(lo: float, hi: float, n: int = 5) -> List[float]:
    """Clean-number axis ticks covering [lo, hi]."""
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / max(n - 1, 1)
    magnitude = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * magnitude
        if step >= raw:
            break
    start = math.ceil(lo / step) * step
    ticks = []
    t = start
    while t <= hi + 1e-9 * step:
        ticks.append(round(t, 10))
        t += step
    return ticks or [lo, hi]


def _decimate(times: Sequence[float], values: Sequence[float],
              max_buckets: int = 420) -> Tuple[List[float], List[float]]:
    """Per-bucket (min, max) decimation preserving excursions."""
    n = len(times)
    if n <= 2 * max_buckets:
        return list(times), list(values)
    out_t: List[float] = []
    out_v: List[float] = []
    per = n / max_buckets
    for b in range(max_buckets):
        i0, i1 = int(b * per), min(int((b + 1) * per), n)
        if i0 >= i1:
            continue
        chunk_v = values[i0:i1]
        chunk_t = times[i0:i1]
        lo = min(range(len(chunk_v)), key=chunk_v.__getitem__)
        hi = max(range(len(chunk_v)), key=chunk_v.__getitem__)
        for j in sorted({lo, hi}):
            out_t.append(chunk_t[j])
            out_v.append(chunk_v[j])
    return out_t, out_v


# -- SVG line chart ------------------------------------------------------------

_CHART_W, _CHART_H = 860, 240
_PAD_L, _PAD_R, _PAD_T, _PAD_B = 64, 16, 18, 30


class _Marker:
    """A labelled vertical time marker (alarm, crash, alert firing)."""

    def __init__(self, t: float, label: str, css: str, *, dot: bool = False,
                 title: str = "") -> None:
        self.t = t
        self.label = label
        self.css = css
        self.dot = dot        # tick on the baseline instead of a full line
        self.title = title or label


def _empty_chart(title: str) -> str:
    return (f'<figure class="chart"><figcaption>{_esc(title)}'
            f'</figcaption><p class="empty">no data</p></figure>')


def _plot(
    chart_id: str,
    title: str,
    series: Sequence[Tuple[str, Optional[str], Sequence[float],
                           Sequence[float]]],
    *,
    y_format: str,
    markers: Sequence[_Marker],
    x_max: Optional[float],
    baseline: Optional[float] = None,
    baseline_label: str = "",
    hover: bool = False,
) -> Tuple[str, Tuple[float, float, float, float]]:
    """The ``<svg>`` skeleton every line chart shares.

    ``series`` holds decimated ``(css, label, times, values)`` tuples; a
    label becomes its polyline's ``<title>``.  Draws the y gridlines and
    ticks, the x ticks, the time axis, the optional reference
    ``baseline``, the polylines, the time markers and (with ``hover``)
    the crosshair layer.  Returns the markup and the plotted
    ``(x_lo, x_hi, y_lo, y_hi)``.
    """
    x_lo = float(min(min(ts) for _, _, ts, _ in series))
    x_hi = float(max(max(ts) for _, _, ts, _ in series))
    if x_max is not None:
        x_hi = max(x_hi, float(x_max))
    for m in markers:
        x_hi = max(x_hi, m.t)
    y_vals = [min(vs) for _, _, _, vs in series]
    y_vals += [max(vs) for _, _, _, vs in series]
    if baseline is not None:
        y_vals.append(baseline)
    y_lo, y_hi = float(min(y_vals)), float(max(y_vals))
    if y_hi == y_lo:
        y_hi, y_lo = y_hi + 1.0, y_lo - 1.0
    span = y_hi - y_lo
    y_lo -= 0.06 * span
    y_hi += 0.06 * span

    plot_w = _CHART_W - _PAD_L - _PAD_R
    plot_h = _CHART_H - _PAD_T - _PAD_B

    def sx(t: float) -> float:
        return _PAD_L + plot_w * (t - x_lo) / (x_hi - x_lo or 1.0)

    def sy(v: float) -> float:
        return _PAD_T + plot_h * (1.0 - (v - y_lo) / (y_hi - y_lo))

    parts: List[str] = []
    parts.append(
        f'<svg viewBox="0 0 {_CHART_W} {_CHART_H}" role="img" '
        f'aria-label="{_esc(title)}" data-chart="{_esc(chart_id)}">')
    # gridlines + y ticks
    for tick in _ticks(y_lo, y_hi, 5):
        if tick < y_lo or tick > y_hi:
            continue
        y = sy(tick)
        label = _fmt(tick) if y_format == "si" else f"{tick:g}"
        parts.append(f'<line class="grid" x1="{_PAD_L}" y1="{y:.1f}" '
                     f'x2="{_CHART_W - _PAD_R}" y2="{y:.1f}"/>')
        parts.append(f'<text class="tick" x="{_PAD_L - 6}" y="{y + 3.5:.1f}" '
                     f'text-anchor="end">{label}</text>')
    # x ticks
    for tick in _ticks(x_lo, x_hi, 6):
        if tick < x_lo or tick > x_hi:
            continue
        x = sx(tick)
        parts.append(f'<text class="tick" x="{x:.1f}" '
                     f'y="{_CHART_H - _PAD_B + 16}" '
                     f'text-anchor="middle">{_fmt(tick)}s</text>')
    # baseline axis
    parts.append(f'<line class="axis" x1="{_PAD_L}" '
                 f'y1="{_CHART_H - _PAD_B}" x2="{_CHART_W - _PAD_R}" '
                 f'y2="{_CHART_H - _PAD_B}"/>')
    # calibrated baseline (reference line)
    if baseline is not None and y_lo <= baseline <= y_hi:
        y = sy(baseline)
        parts.append(f'<line class="ref" x1="{_PAD_L}" y1="{y:.1f}" '
                     f'x2="{_CHART_W - _PAD_R}" y2="{y:.1f}"/>')
        if baseline_label:
            parts.append(f'<text class="ref-label" '
                         f'x="{_CHART_W - _PAD_R - 4}" y="{y - 5:.1f}" '
                         f'text-anchor="end">{_esc(baseline_label)}</text>')
    # the series
    for css, label, ts, vs in series:
        points = " ".join(f"{sx(t):.1f},{sy(v):.1f}" for t, v in zip(ts, vs))
        tail = ("/>" if label is None
                else f"><title>{_esc(label)}</title></polyline>")
        parts.append(f'<polyline class="line {css}" points="{points}"{tail}')
    # markers: full-height event lines with top labels, or baseline ticks
    seen_labels = set()
    for m in markers:
        x = sx(m.t)
        if m.dot:
            parts.append(
                f'<circle class="mark {m.css}" cx="{x:.1f}" '
                f'cy="{_CHART_H - _PAD_B:.1f}" r="4">'
                f'<title>{_esc(m.title)}</title></circle>')
            continue
        parts.append(f'<line class="event {m.css}" x1="{x:.1f}" '
                     f'y1="{_PAD_T}" x2="{x:.1f}" '
                     f'y2="{_CHART_H - _PAD_B}"><title>{_esc(m.title)}'
                     f'</title></line>')
        if m.label not in seen_labels:
            seen_labels.add(m.label)
            anchor = "start" if x < _CHART_W - 90 else "end"
            dx = 4 if anchor == "start" else -4
            parts.append(f'<text class="event-label {m.css}" '
                         f'x="{x + dx:.1f}" y="{_PAD_T + 10}" '
                         f'text-anchor="{anchor}">{_esc(m.label)}</text>')
    if hover:
        # crosshair + tooltip, driven by the embedded script
        parts.append(f'<line class="cursor" x1="0" y1="{_PAD_T}" x2="0" '
                     f'y2="{_CHART_H - _PAD_B}" visibility="hidden"/>')
        parts.append('<circle class="cursor-dot" r="4" visibility="hidden"/>')
        parts.append(f'<rect class="hover-target" x="{_PAD_L}" y="{_PAD_T}" '
                     f'width="{plot_w}" height="{plot_h}" fill="none" '
                     f'pointer-events="all"/>')
    parts.append("</svg>")
    return "".join(parts), (x_lo, x_hi, y_lo, y_hi)


def _line_chart(
    chart_id: str,
    title: str,
    times: Sequence[float],
    values: Sequence[float],
    *,
    series_css: str = "s1",
    y_format: str = "si",
    markers: Sequence[_Marker] = (),
    baseline: Optional[float] = None,
    baseline_label: str = "",
    x_max: Optional[float] = None,
) -> str:
    """One single-series line chart with time markers and a hover
    layer, as an HTML block."""
    if not times:
        return _empty_chart(title)
    dt, dv = _decimate(list(times), list(values))
    svg, (x_lo, x_hi, y_lo, y_hi) = _plot(
        chart_id, title, [(series_css, None, dt, dv)], y_format=y_format,
        markers=markers, x_max=x_max, baseline=baseline,
        baseline_label=baseline_label, hover=True)
    payload = {
        "t": [round(float(t), 4) for t in dt],
        "v": [float(v) for v in dv],
        "x0": x_lo, "x1": x_hi, "y0": y_lo, "y1": y_hi,
        "padL": _PAD_L, "padR": _PAD_R, "padT": _PAD_T, "padB": _PAD_B,
        "w": _CHART_W, "h": _CHART_H, "yFormat": y_format,
    }
    return (
        f'<figure class="chart"><figcaption>{_esc(title)}</figcaption>'
        + svg
        + f'<script type="application/json" data-for="{_esc(chart_id)}">'
        + json.dumps(payload)
        + "</script>"
        + '<div class="tooltip" hidden></div></figure>'
    )


# Series classes cycled over multi-series charts and legends.
_SERIES_CYCLE = ("s1", "s3", "s2", "s4", "s5", "s6")


def multi_line_chart(
    chart_id: str,
    title: str,
    series: Sequence[Tuple[str, Sequence[float], Sequence[float]]],
    *,
    y_format: str = "si",
    markers: Sequence[_Marker] = (),
    x_max: Optional[float] = None,
) -> str:
    """Several series on shared axes, with a legend, as an HTML block.

    ``series`` is a sequence of ``(label, times, values)`` triples; the
    six palette classes are cycled over them.  Unlike
    :func:`_line_chart` there is no hover layer — static polylines with
    ``<title>`` tooltips keep the multi-series markup small.
    """
    series = [(label, list(ts), list(vs)) for label, ts, vs in series
              if len(ts)]
    if not series:
        return _empty_chart(title)
    dec = [(_SERIES_CYCLE[i % len(_SERIES_CYCLE)], label) + _decimate(ts, vs)
           for i, (label, ts, vs) in enumerate(series)]
    svg, _ = _plot(chart_id, title, dec, y_format=y_format, markers=markers,
                   x_max=x_max)
    legend = "".join(f'<span><span class="swatch {css}"></span>'
                     f'{_esc(label)}</span>' for css, label, _, _ in dec)
    return (f'<figure class="chart"><figcaption>{_esc(title)}</figcaption>'
            + svg + f'<div class="legend">{legend}</div></figure>')


# -- shared page chrome --------------------------------------------------------

_STYLE = """
:root { color-scheme: light dark; }
.viz-root {
  --surface-1: #fcfcfb; --page: #f9f9f7;
  --text-primary: #0b0b0b; --text-secondary: #52514e; --muted: #898781;
  --grid: #e1e0d9; --baseline: #c3c2b7; --border: rgba(11,11,11,0.10);
  --series-1: #2a78d6; --series-3: #1baf7a;
  --series-2: #8a63d2; --series-4: #d03b9b;
  --series-5: #c98a1b; --series-6: #5a8a99;
  --status-warning: #fab219; --status-serious: #ec835a;
  --status-critical: #d03b3b; --status-good: #0ca30c;
  background: var(--page); color: var(--text-primary);
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  margin: 0; padding: 24px; min-height: 100vh; box-sizing: border-box;
}
@media (prefers-color-scheme: dark) {
  .viz-root {
    --surface-1: #1a1a19; --page: #0d0d0d;
    --text-primary: #ffffff; --text-secondary: #c3c2b7; --muted: #898781;
    --grid: #2c2c2a; --baseline: #383835; --border: rgba(255,255,255,0.10);
    --series-1: #3987e5; --series-3: #199e70;
    --series-2: #9d7ae0; --series-4: #df58b4;
    --series-5: #d99a2b; --series-6: #6fa3b4;
  }
}
.viz-root h1 { font-size: 20px; font-weight: 600; margin: 0 0 2px; }
.viz-root .sub { color: var(--text-secondary); font-size: 13px; margin: 0 0 20px; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; margin-bottom: 20px; }
.tile {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 10px; padding: 12px 16px; min-width: 128px;
}
.tile .label { font-size: 12px; color: var(--text-secondary); margin-bottom: 4px; }
.tile .value { font-size: 24px; font-weight: 600; }
.tile .note { font-size: 11px; color: var(--muted); margin-top: 2px; }
.tile.alarmed .value { color: var(--status-critical); }
.tile.quiet .value { color: var(--status-good); }
.chart {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 10px; padding: 14px 16px 8px; margin: 0 0 16px;
  position: relative; max-width: 900px;
}
.chart figcaption { font-size: 13px; font-weight: 600; margin-bottom: 6px; }
.chart svg { width: 100%; height: auto; display: block; }
.chart .empty { color: var(--muted); font-size: 13px; }
svg .grid { stroke: var(--grid); stroke-width: 1; }
svg .axis { stroke: var(--baseline); stroke-width: 1; }
svg .tick { fill: var(--muted); font-size: 10px;
  font-variant-numeric: tabular-nums; }
svg .line { fill: none; stroke-width: 2; stroke-linejoin: round;
  stroke-linecap: round; }
svg .line.s1 { stroke: var(--series-1); }
svg .line.s3 { stroke: var(--series-3); }
svg .line.s2 { stroke: var(--series-2); }
svg .line.s4 { stroke: var(--series-4); }
svg .line.s5 { stroke: var(--series-5); }
svg .line.s6 { stroke: var(--series-6); }
.legend { display: flex; flex-wrap: wrap; gap: 4px 16px; margin: 8px 0 4px;
  font-size: 12px; color: var(--text-secondary); }
.legend .swatch { display: inline-block; width: 14px; height: 3px;
  vertical-align: middle; margin-right: 5px; border-radius: 2px; }
.swatch.s1 { background: var(--series-1); }
.swatch.s3 { background: var(--series-3); }
.swatch.s2 { background: var(--series-2); }
.swatch.s4 { background: var(--series-4); }
.swatch.s5 { background: var(--series-5); }
.swatch.s6 { background: var(--series-6); }
svg .ref { stroke: var(--muted); stroke-width: 1; stroke-dasharray: 5 4; }
svg .ref-label { fill: var(--muted); font-size: 10px; }
svg .event { stroke-width: 1.5; }
svg .event-label { font-size: 10px; font-weight: 600; }
svg .event.alarm, svg .event-label.alarm { stroke: var(--status-serious); }
svg .event-label.alarm { fill: var(--status-serious); stroke: none; }
svg .event.crash { stroke: var(--status-critical); }
svg .event-label.crash { fill: var(--status-critical); stroke: none; }
svg .mark { stroke: var(--surface-1); stroke-width: 2; }
svg .mark.warning { fill: var(--status-warning); }
svg .mark.critical { fill: var(--status-critical); }
svg .mark.info { fill: var(--muted); }
svg .dot { stroke: var(--surface-1); stroke-width: 2; fill: var(--series-1); }
svg .cursor { stroke: var(--baseline); stroke-width: 1; }
svg .cursor-dot { fill: var(--series-1); stroke: var(--surface-1);
  stroke-width: 2; }
.tooltip {
  position: absolute; pointer-events: none; background: var(--surface-1);
  border: 1px solid var(--border); border-radius: 6px; padding: 4px 8px;
  font-size: 11px; color: var(--text-primary); white-space: nowrap;
  box-shadow: 0 2px 8px rgba(0,0,0,0.12); z-index: 2;
}
table.data {
  border-collapse: collapse; font-size: 13px; background: var(--surface-1);
  border: 1px solid var(--border); border-radius: 10px; margin-bottom: 16px;
}
table.data th, table.data td { padding: 6px 12px; text-align: left; }
table.data td.num { text-align: right; font-variant-numeric: tabular-nums; }
table.data thead th { color: var(--text-secondary); font-weight: 600;
  font-size: 12px; border-bottom: 1px solid var(--grid); }
table.data tbody tr + tr td { border-top: 1px solid var(--grid); }
.sev { font-weight: 600; }
.sev.critical { color: var(--status-critical); }
.sev.warning { color: var(--text-primary); }
.sev.info { color: var(--text-secondary); }
details.tableview { margin-bottom: 16px; }
details.tableview summary { cursor: pointer; font-size: 13px;
  color: var(--text-secondary); margin-bottom: 8px; }
.footer { color: var(--muted); font-size: 11px; margin-top: 24px; }
"""

_SCRIPT = """
document.querySelectorAll('figure.chart').forEach(function (fig) {
  var svg = fig.querySelector('svg[data-chart]');
  if (!svg) return;
  var dataEl = fig.querySelector('script[type="application/json"]');
  if (!dataEl) return;
  var d = JSON.parse(dataEl.textContent);
  var tip = fig.querySelector('.tooltip');
  var cursor = svg.querySelector('.cursor');
  var dot = svg.querySelector('.cursor-dot');
  var target = svg.querySelector('.hover-target');
  function fmt(x) {
    var a = Math.abs(x);
    if (a >= 1e9) return (x / 1e9).toFixed(2) + 'G';
    if (a >= 1e6) return (x / 1e6).toFixed(2) + 'M';
    if (a >= 1e3) return (x / 1e3).toFixed(1) + 'K';
    return (Math.round(x * 1000) / 1000).toString();
  }
  function nearest(t) {
    var lo = 0, hi = d.t.length - 1;
    while (hi - lo > 1) {
      var mid = (lo + hi) >> 1;
      if (d.t[mid] < t) lo = mid; else hi = mid;
    }
    return (t - d.t[lo] < d.t[hi] - t) ? lo : hi;
  }
  target.addEventListener('mousemove', function (ev) {
    var box = svg.getBoundingClientRect();
    var scale = box.width / d.w;
    var px = (ev.clientX - box.left) / scale;
    var frac = (px - d.padL) / (d.w - d.padL - d.padR);
    var t = d.x0 + frac * (d.x1 - d.x0);
    var i = nearest(t);
    var sx = d.padL + (d.w - d.padL - d.padR) *
      (d.t[i] - d.x0) / ((d.x1 - d.x0) || 1);
    var sy = d.padT + (d.h - d.padT - d.padB) *
      (1 - (d.v[i] - d.y0) / ((d.y1 - d.y0) || 1));
    cursor.setAttribute('x1', sx); cursor.setAttribute('x2', sx);
    cursor.setAttribute('visibility', 'visible');
    dot.setAttribute('cx', sx); dot.setAttribute('cy', sy);
    dot.setAttribute('visibility', 'visible');
    tip.hidden = false;
    tip.textContent = 't=' + fmt(d.t[i]) + 's  ' + fmt(d.v[i]);
    var figBox = fig.getBoundingClientRect();
    tip.style.left = Math.min(ev.clientX - figBox.left + 12,
      figBox.width - 130) + 'px';
    tip.style.top = (ev.clientY - figBox.top - 28) + 'px';
  });
  target.addEventListener('mouseleave', function () {
    tip.hidden = true;
    cursor.setAttribute('visibility', 'hidden');
    dot.setAttribute('visibility', 'hidden');
  });
});
"""


def _page(title: str, subtitle: str, body: str, footer: str) -> str:
    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>{_esc(title)}</title>
<style>{_STYLE}</style>
</head>
<body class="viz-root">
<h1>{_esc(title)}</h1>
<p class="sub">{_esc(subtitle)}</p>
{body}
<p class="footer">{_esc(footer)}</p>
<script>{_SCRIPT}</script>
</body>
</html>
"""


def _tile(label: str, value: str, note: str = "", css: str = "") -> str:
    note_html = f'<div class="note">{_esc(note)}</div>' if note else ""
    return (f'<div class="tile {css}"><div class="label">{_esc(label)}</div>'
            f'<div class="value">{_esc(value)}</div>{note_html}</div>')


def _median(values: List[float]) -> Optional[float]:
    if not values:
        return None
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])
