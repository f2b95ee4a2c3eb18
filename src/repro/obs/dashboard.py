"""Self-contained HTML dashboards for watch sessions and campaigns.

Renderers producing a single HTML file with **no external resources** —
styling is an embedded stylesheet, charts are inline SVG, interactivity
is a small embedded script — so a dashboard can be attached to a CI
run, mailed, or opened from disk years later:

* :func:`render_run_dashboard` — one watch session from its
  ``repro.timeline/1`` stream: KPI tiles (detector state, alarm /
  crash / lead times, alert count), the counter trajectory and the
  Hölder-indicator trajectory as line charts with alarm, crash and
  alert-rule markers, and the full alert table.
* :func:`render_campaign_dashboard` — a whole campaign aggregated from
  run manifests alone: per-cell detection rate, the lead-time
  distribution as a strip plot, and the false-alarm table.  When the
  campaign carried per-run peak decision statistics (a detector
  tournament grid), the page grows a scoreboard section: the detector
  league table, per-detector ROC curves as one inline SVG, and the
  per-(cell, detector) breakdown.  When a campaign carried a timeline
  (``--timeline``), time-series panels and a cost breakdown are
  appended via :func:`timeline_section`.
* :func:`render_timeline_dashboard` — the history of one campaign from
  its ``repro.timeline/1`` artifact alone: throughput, per-worker RSS,
  ETA convergence and annotation markers, plus the ``repro.costs/1``
  phase breakdown when a cost profile is supplied.

Series with many thousands of samples are decimated per x-bucket to
(min, max) pairs before plotting, so excursions survive while the SVG
stays small.  The SVG/page primitives live in :mod:`repro.obs._chart`.
"""

from __future__ import annotations

import math
import os
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..exceptions import TraceError, ValidationError
from ._chart import (
    _CHART_W,
    _PAD_B,
    _PAD_R,
    _PAD_T,
    _SERIES_CYCLE,
    _Marker,
    _esc,
    _fmt,
    _fmt_time,
    _line_chart,
    _median,
    _page,
    _ticks,
    _tile,
    multi_line_chart,
)
from .atomic import atomic_write_text

__all__ = [
    "render_run_dashboard",
    "render_campaign_dashboard",
    "render_timeline_dashboard",
    "campaign_cells_from_manifests",
    "timeline_section",
    "write_dashboard",
]


# -- run dashboard -------------------------------------------------------------

def render_run_dashboard(records: Sequence[dict], *, title: Optional[str] = None) -> str:
    """Render one watch session's timeline stream as a standalone HTML page.

    ``records`` is a watch session's ``repro.timeline/1`` stream, checked
    by :func:`~repro.obs.live.validate_watch_timeline`; charts are drawn
    against each event's simulation time ``sim_t``.
    """
    from .live import validate_watch_timeline

    validate_watch_timeline(records)
    header = records[0]["fields"]
    by_event: Dict[str, List[dict]] = {}
    end: Mapping = {}
    for record in records:
        if record["kind"] == "annotation":
            by_event.setdefault(record["event"], []).append(record)
        elif record["kind"] == "end":
            end = record
    counter = header.get("counter", "counter")
    source = header.get("source", {})

    alarm_time = end.get("alarm_time")
    crash_time = end.get("crash_time")
    lead = end.get("lead_time")
    state = end.get("state", "unknown")
    alerts = by_event.get("alert", [])

    # -- KPI tiles
    state_css = "alarmed" if state == "alarmed" else (
        "quiet" if state == "watching" else "")
    tiles = [
        _tile("Detector state", str(state), css=state_css),
        _tile("Alarm", _fmt_time(alarm_time),
              "first detector warning" if alarm_time is not None
              else "never fired"),
        _tile("Crash", _fmt_time(crash_time),
              str(end.get("crash_reason") or "") if crash_time is not None
              else "survived"),
        _tile("Lead time", _fmt_time(lead),
              "warning → crash" if lead is not None else ""),
        _tile("Samples", _fmt(end.get("n_samples")),
              f"{_fmt(end.get('n_indicators'))} indicator points"),
        _tile("Alerts fired", _fmt(len(alerts)),
              f"{len(header.get('rules', []))} rule(s) loaded"),
    ]

    # -- markers shared by both charts
    markers: List[_Marker] = []
    if alarm_time is not None:
        markers.append(_Marker(float(alarm_time), "alarm", "alarm",
                               title=f"alarm at {_fmt_time(alarm_time)}"))
    if crash_time is not None:
        markers.append(_Marker(float(crash_time), "crash", "crash",
                               title=f"crash at {_fmt_time(crash_time)} "
                                     f"({end.get('crash_reason') or 'unknown'})"))
    alert_markers = [
        _Marker(float(e["sim_t"]), e.get("rule", "alert"),
                e.get("severity", "info"), dot=True,
                title=f"{e.get('rule')} [{e.get('severity')}] "
                      f"at {_fmt_time(e['sim_t'])}")
        for e in alerts
    ]

    samples = by_event.get("sample", [])
    counter_chart = _line_chart(
        "counter", f"{counter} (sampled)",
        [e["sim_t"] for e in samples], [e["value"] for e in samples],
        series_css="s1", markers=markers + alert_markers,
        x_max=end.get("sim_t"),
    )
    indicators = by_event.get("indicator", [])
    baseline = None
    for e in by_event.get("alarm", []):
        baseline = e.get("baseline")
    indicator_chart = _line_chart(
        "indicator",
        f"Hölder indicator ({header.get('monitor', {}).get('indicator', 'mean')} h)",
        [e["sim_t"] for e in indicators], [e["value"] for e in indicators],
        series_css="s3", y_format="plain", markers=markers,
        baseline=baseline, baseline_label="calibrated baseline",
        x_max=end.get("sim_t"),
    )

    # -- alert table
    if alerts:
        rows = "".join(
            f"<tr><td class=\"num\">{_fmt_time(e['sim_t'])}</td>"
            f"<td>{_esc(e.get('rule'))}</td>"
            f"<td><span class=\"sev {_esc(e.get('severity'))}\">"
            f"{'&#9650;' if e.get('severity') == 'critical' else '&#9679;'} "
            f"{_esc(e.get('severity'))}</span></td>"
            f"<td>{_esc(e.get('signal'))}</td>"
            f"<td class=\"num\">{_fmt(e.get('value'))}</td>"
            f"<td>{_esc(e.get('message', ''))}</td></tr>"
            for e in alerts
        )
        alert_table = (
            '<figure class="chart"><figcaption>Alert firings</figcaption>'
            '<table class="data"><thead><tr><th>time</th><th>rule</th>'
            '<th>severity</th><th>signal</th><th>value</th><th>condition</th>'
            f'</tr></thead><tbody>{rows}</tbody></table></figure>'
        )
    else:
        alert_table = ('<figure class="chart"><figcaption>Alert firings'
                       '</figcaption><p class="empty">no alerts fired</p>'
                       '</figure>')

    # -- accessible table view of the indicator trajectory
    indicator_rows = "".join(
        f"<tr><td class=\"num\">{e['n']}</td>"
        f"<td class=\"num\">{_fmt_time(e['sim_t'])}</td>"
        f"<td class=\"num\">{e['value']:.4f}</td></tr>"
        for e in indicators
    )
    table_view = (
        '<details class="tableview"><summary>Indicator data (table view)'
        '</summary><table class="data"><thead><tr><th>#</th><th>time</th>'
        f'<th>indicator</th></tr></thead><tbody>{indicator_rows}</tbody>'
        '</table></details>'
    ) if indicators else ""

    source_bits = [f"{k}={source[k]}" for k in ("type", "os_profile", "seed")
                   if k in source]
    subtitle = (f"counter {counter} · {' · '.join(source_bits)}"
                if source_bits else f"counter {counter}")
    body = (f'<div class="tiles">{"".join(tiles)}</div>'
            + counter_chart + indicator_chart + alert_table + table_view)
    n_events = sum(len(events) for events in by_event.values())
    footer = (f"schema {records[0]['schema']} · {n_events} watch events · "
              f"generated by repro.obs.dashboard")
    return _page(title or "Live aging watch — run report", subtitle, body, footer)


# -- campaign dashboard --------------------------------------------------------

def campaign_cells_from_manifests(manifests: Sequence) -> Dict[str, dict]:
    """Merge the ``outcome.cells`` payloads of campaign run manifests.

    Accepts any mix of manifests; non-campaign ones (no ``cells`` block
    with run records) are ignored.  Duplicate cell names across
    manifests get a ``name#k`` suffix rather than silently merging
    different campaigns.
    """
    cells: Dict[str, dict] = {}
    for manifest in manifests:
        payload = manifest.outcome.get("cells")
        if not isinstance(payload, Mapping):
            continue
        for name, cell in payload.items():
            if not isinstance(cell, Mapping) or "runs" not in cell:
                continue
            key = name
            k = 2
            while key in cells:
                key = f"{name}#{k}"
                k += 1
            cells[key] = dict(cell)
    return cells


def render_campaign_dashboard(
    manifests: Sequence = (), *,
    cells: Optional[Mapping[str, dict]] = None,
    scoreboard: Optional[Mapping] = None,
    timeline: Optional[Sequence[Mapping]] = None,
    costs: Optional[Mapping] = None,
    title: Optional[str] = None,
) -> str:
    """Render per-cell detection quality aggregated from run manifests.

    ``cells`` bypasses manifest extraction when the caller already holds
    a cells payload (e.g. ``repro campaign --dashboard`` rendering the
    results it just computed).  ``scoreboard`` injects a prebuilt
    ``repro.scoreboard/1`` artifact for the detector-tournament section;
    when omitted, one is built from the cells whenever they carry peak
    decision statistics.  ``timeline`` (a loaded ``repro.timeline/1``
    stream) appends the time-series panels via :func:`timeline_section`,
    and ``costs`` (a ``repro.costs/1`` profile) the cost breakdown.
    """
    if cells is not None:
        cells = dict(cells)
    else:
        cells = campaign_cells_from_manifests(manifests)
    if not cells:
        raise TraceError(
            "no campaign cells found in manifests — run "
            "`python -m repro campaign --telemetry-out DIR` to produce them")
    if scoreboard is None and any(
            run.get("peak_healthy") is not None
            or run.get("peak_precrash") is not None
            for cell in cells.values() for run in cell.get("runs", [])):
        # Imported lazily: analysis imports obs, so a module-level import
        # here would be circular.
        from ..analysis.scoreboard import build_scoreboard
        scoreboard = build_scoreboard(cells)

    total_runs = sum(len(c.get("runs", [])) for c in cells.values())
    total_crashed = sum(int(c.get("crashed", 0)) for c in cells.values())
    total_detected = sum(int(c.get("detected", 0)) for c in cells.values())
    total_false = sum(int(c.get("false_alarms", 0)) for c in cells.values())
    all_leads = [float(v) for c in cells.values()
                 for v in c.get("lead_times", [])]
    rate = (100.0 * total_detected / total_crashed) if total_crashed else None

    tiles = [
        _tile("Cells", str(len(cells))),
        _tile("Runs", str(total_runs), f"{total_crashed} crashed"),
        _tile("Detection rate",
              "—" if rate is None else f"{rate:.0f}%",
              f"{total_detected}/{total_crashed} crashes warned",
              css="quiet" if rate is not None and rate >= 75 else ""),
        _tile("Median lead",
              _fmt_time(_median(all_leads)) if all_leads else "—",
              "across detected crashes"),
        _tile("False alarms", str(total_false),
              css="alarmed" if total_false else "quiet"),
    ]

    # -- per-cell table
    rows = []
    for name, cell in cells.items():
        n_runs = len(cell.get("runs", []))
        crashed = int(cell.get("crashed", 0))
        detected = int(cell.get("detected", 0))
        cell_rate = f"{100.0 * detected / crashed:.0f}%" if crashed else "—"
        median_lead = cell.get("median_lead")
        rows.append(
            f"<tr><td>{_esc(name)}</td>"
            f"<td class=\"num\">{n_runs}</td>"
            f"<td class=\"num\">{crashed}</td>"
            f"<td class=\"num\">{detected}</td>"
            f"<td class=\"num\">{int(cell.get('missed', 0))}</td>"
            f"<td class=\"num\">{cell_rate}</td>"
            f"<td class=\"num\">{_fmt_time(median_lead)}</td>"
            f"<td class=\"num\">{int(cell.get('false_alarms', 0))}</td></tr>"
        )
    cell_table = (
        '<figure class="chart"><figcaption>Detection quality by cell'
        '</figcaption><table class="data"><thead><tr><th>cell</th>'
        '<th>runs</th><th>crashed</th><th>detected</th><th>missed</th>'
        '<th>rate</th><th>median lead</th><th>false alarms</th></tr></thead>'
        f'<tbody>{"".join(rows)}</tbody></table></figure>'
    )

    strip = _lead_strip_chart(cells)

    # -- false alarm table
    fa_rows = []
    for name, cell in cells.items():
        for run in cell.get("runs", []):
            if not run.get("crashed") and run.get("alarm_time") is not None:
                fa_rows.append(
                    f"<tr><td>{_esc(name)}</td>"
                    f"<td class=\"num\">{run.get('seed')}</td>"
                    f"<td class=\"num\">{_fmt_time(run.get('alarm_time'))}</td>"
                    f"<td class=\"num\">{_fmt_time(run.get('duration'))}</td>"
                    "</tr>")
    if fa_rows:
        fa_table = (
            '<figure class="chart"><figcaption>False alarms (healthy runs '
            'that warned)</figcaption><table class="data"><thead><tr>'
            '<th>cell</th><th>seed</th><th>alarm</th><th>run length</th>'
            f'</tr></thead><tbody>{"".join(fa_rows)}</tbody></table></figure>'
        )
    else:
        fa_table = ('<figure class="chart"><figcaption>False alarms'
                    '</figcaption><p class="empty">none — every warning '
                    'preceded a real crash</p></figure>')

    tournament = (_scoreboard_section(scoreboard)
                  if scoreboard is not None else "")
    history = (timeline_section(timeline, costs=costs)
               if timeline else (_costs_section(costs) if costs else ""))
    body = (f'<div class="tiles">{"".join(tiles)}</div>'
            + cell_table + tournament + strip + fa_table + history)
    footer = (f"{len(manifests)} manifest(s) · {len(cells)} cell(s) · "
              "generated by repro.obs.dashboard")
    return _page(title or "Aging detection campaign — dashboard",
                 f"{total_runs} runs · aggregated from run manifests",
                 body, footer)


def _lead_strip_chart(cells: Dict[str, dict]) -> str:
    """Lead-time distribution: one dot per detected crash, one row per cell."""
    with_leads = [(name, [float(v) for v in cell.get("lead_times", [])])
                  for name, cell in cells.items()]
    with_leads = [(name, leads) for name, leads in with_leads if leads]
    if not with_leads:
        return ('<figure class="chart"><figcaption>Lead-time distribution'
                '</figcaption><p class="empty">no detected crashes to plot'
                '</p></figure>')
    x_hi = max(max(leads) for _, leads in with_leads)
    x_lo = 0.0
    row_h = 30
    height = _PAD_T + row_h * len(with_leads) + _PAD_B
    plot_w = _CHART_W - 170 - _PAD_R

    def sx(v: float) -> float:
        return 170 + plot_w * (v - x_lo) / ((x_hi - x_lo) or 1.0)

    parts = [f'<svg viewBox="0 0 {_CHART_W} {height}" role="img" '
             f'aria-label="Lead-time distribution">']
    for tick in _ticks(x_lo, x_hi, 6):
        if tick < x_lo or tick > x_hi:
            continue
        x = sx(tick)
        parts.append(f'<line class="grid" x1="{x:.1f}" y1="{_PAD_T}" '
                     f'x2="{x:.1f}" y2="{height - _PAD_B}"/>')
        parts.append(f'<text class="tick" x="{x:.1f}" y="{height - _PAD_B + 16}" '
                     f'text-anchor="middle">{_fmt(tick)}s</text>')
    for i, (name, leads) in enumerate(with_leads):
        y = _PAD_T + row_h * i + row_h / 2
        parts.append(f'<text class="tick" x="160" y="{y + 3.5:.1f}" '
                     f'text-anchor="end">{_esc(name)}</text>')
        parts.append(f'<line class="axis" x1="170" y1="{y:.1f}" '
                     f'x2="{_CHART_W - _PAD_R}" y2="{y:.1f}"/>')
        for lead in leads:
            parts.append(f'<circle class="dot" cx="{sx(lead):.1f}" '
                         f'cy="{y:.1f}" r="5">'
                         f'<title>{_esc(name)}: lead {_fmt_time(lead)}'
                         f'</title></circle>')
    parts.append("</svg>")
    return ('<figure class="chart"><figcaption>Lead-time distribution '
            '(one dot per detected crash)</figcaption>'
            + "".join(parts) + "</figure>")


# -- detector tournament (scoreboard) ------------------------------------------

def _fmt_ratio(value: Optional[float]) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "—"
    return f"{float(value):.3f}"


def _roc_chart(detectors: Mapping[str, dict]) -> str:
    """All detectors' pooled ROC curves in one square inline SVG."""
    curves = [(name, det["roc"]) for name, det in detectors.items()
              if det.get("roc")]
    if not curves:
        return ('<figure class="chart"><figcaption>ROC (peak decision '
                'statistic)</figcaption><p class="empty">no runs carried '
                'peak statistics — rerun the campaign with score '
                'collection on</p></figure>')
    size, pad = 320, 40
    plot = size - 2 * pad

    def sx(v: float) -> float:
        return pad + plot * v

    def sy(v: float) -> float:
        return pad + plot * (1.0 - v)

    parts = [f'<svg viewBox="0 0 {size} {size}" role="img" '
             f'aria-label="ROC curves by detector">']
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        parts.append(f'<line class="grid" x1="{sx(tick):.1f}" y1="{pad}" '
                     f'x2="{sx(tick):.1f}" y2="{size - pad}"/>')
        parts.append(f'<line class="grid" x1="{pad}" y1="{sy(tick):.1f}" '
                     f'x2="{size - pad}" y2="{sy(tick):.1f}"/>')
        parts.append(f'<text class="tick" x="{sx(tick):.1f}" '
                     f'y="{size - pad + 14}" text-anchor="middle">'
                     f'{tick:g}</text>')
        parts.append(f'<text class="tick" x="{pad - 6}" '
                     f'y="{sy(tick) + 3.5:.1f}" text-anchor="end">'
                     f'{tick:g}</text>')
    parts.append(f'<line class="ref" x1="{sx(0):.1f}" y1="{sy(0):.1f}" '
                 f'x2="{sx(1):.1f}" y2="{sy(1):.1f}"/>')
    parts.append(f'<text class="tick" x="{size / 2:.0f}" y="{size - 6}" '
                 f'text-anchor="middle">false positive rate</text>')
    parts.append(f'<text class="tick" x="12" y="{size / 2:.0f}" '
                 f'text-anchor="middle" transform="rotate(-90 12 '
                 f'{size / 2:.0f})">true positive rate</text>')
    legend = []
    for i, (name, roc) in enumerate(curves):
        css = _SERIES_CYCLE[i % len(_SERIES_CYCLE)]
        points = " ".join(
            f"{sx(float(f)):.1f},{sy(float(t)):.1f}"
            for f, t in zip(roc["fpr"], roc["tpr"]))
        parts.append(f'<polyline class="line {css}" points="{points}">'
                     f'<title>{_esc(name)}</title></polyline>')
        area = detectors[name].get("auc")
        legend.append(f'<span><span class="swatch {css}"></span>'
                      f'{_esc(name)} (AUC {_fmt_ratio(area)})</span>')
    parts.append("</svg>")
    return ('<figure class="chart"><figcaption>ROC — peak decision '
            'statistic, pre-crash vs healthy segments</figcaption>'
            + "".join(parts)
            + f'<div class="legend">{"".join(legend)}</div></figure>')


def _scoreboard_section(scoreboard: Mapping) -> str:
    """League table + ROC chart + per-(cell, detector) breakdown."""
    detectors = scoreboard.get("detectors", {})
    league_rows = []
    for name, det in detectors.items():
        crashed = int(det.get("crashed", 0))
        detected = int(det.get("detected", 0))
        rate = f"{100.0 * detected / crashed:.0f}%" if crashed else "—"
        league_rows.append(
            f"<tr><td>{_esc(name)}</td>"
            f"<td class=\"num\">{int(det.get('n_runs', 0))}</td>"
            f"<td class=\"num\">{crashed}</td>"
            f"<td class=\"num\">{detected}</td>"
            f"<td class=\"num\">{rate}</td>"
            f"<td class=\"num\">{int(det.get('premature', 0))}</td>"
            f"<td class=\"num\">{int(det.get('missed', 0))}</td>"
            f"<td class=\"num\">{_fmt_time(det.get('lead_p50'))}</td>"
            f"<td class=\"num\">{_fmt_time(det.get('lead_p90'))}</td>"
            f"<td class=\"num\">{_fmt_ratio(det.get('false_alarms_per_hour'))}</td>"
            f"<td class=\"num\">{_fmt_ratio(det.get('auc'))}</td></tr>"
        )
    league = (
        '<figure class="chart"><figcaption>Detector league table'
        '</figcaption><table class="data"><thead><tr><th>detector</th>'
        '<th>runs</th><th>crashed</th><th>detected</th><th>rate</th>'
        '<th>premature</th><th>missed</th><th>lead p50</th><th>lead p90</th>'
        '<th>FA/h</th><th>AUC</th></tr></thead>'
        f'<tbody>{"".join(league_rows)}</tbody></table></figure>'
    )
    grid_rows = []
    for name, cell in scoreboard.get("cells", {}).items():
        grid_rows.append(
            f"<tr><td>{_esc(name)}</td>"
            f"<td>{_esc(cell.get('detector'))}</td>"
            f"<td class=\"num\">{int(cell.get('n_runs', 0))}</td>"
            f"<td class=\"num\">{_fmt_ratio(cell.get('detection_rate'))}</td>"
            f"<td class=\"num\">{_fmt_time(cell.get('lead_p50'))}</td>"
            f"<td class=\"num\">{_fmt_time(cell.get('lead_p90'))}</td>"
            f"<td class=\"num\">{_fmt_ratio(cell.get('false_alarms_per_hour'))}</td>"
            f"<td class=\"num\">{_fmt_ratio(cell.get('auc'))}</td></tr>"
        )
    grid = (
        '<details class="tableview"><summary>Scenario × detector grid '
        '(per-cell breakdown)</summary><table class="data"><thead><tr>'
        '<th>cell</th><th>detector</th><th>runs</th><th>rate</th>'
        '<th>lead p50</th><th>lead p90</th><th>FA/h</th><th>AUC</th>'
        f'</tr></thead><tbody>{"".join(grid_rows)}</tbody></table></details>'
    )
    return ('<h2 id="scoreboard" style="font-size:16px;margin:8px 0">'
            'Detector tournament</h2>'
            + league + _roc_chart(detectors) + grid)


# -- campaign timeline ---------------------------------------------------------

# Annotation events rendered as baseline dots, reusing the existing
# severity mark classes; worker deaths and flight dumps are disruptive
# enough to earn full-height event lines (crash / alarm styling).
_ANNOTATION_DOT_CSS = {
    "retry": "warning",
    "timeout": "warning",
    "unit-failed": "warning",
    "alert": "warning",
    "round": "info",
    "campaign-begin": "info",
    "campaign-end": "info",
}
_ANNOTATION_LINE_CSS = {
    "worker-death": "crash",
    "flight-dump": "alarm",
    "crash": "crash",
    "alarm": "alarm",
}
# A watch session's data annotations are series on the run dashboard,
# not events worth a marker.
_UNMARKED_EVENTS = frozenset({"sample", "indicator", "status",
                              "detector_state"})

# Detail fields worth surfacing in an annotation marker's tooltip.
_ANNOTATION_DETAIL_KEYS = (
    "index", "attempt", "error_kind", "reason", "round", "count", "status",
    "cells", "units", "workers", "executed",
)


def _annotation_title(record: Mapping) -> str:
    event = str(record.get("event", "note"))
    bits = [f"{key}={record[key]}" for key in _ANNOTATION_DETAIL_KEYS
            if record.get(key) is not None]
    base = f"{event} at {_fmt_time(record.get('t'))}"
    return f"{base} ({', '.join(bits)})" if bits else base


def _timeline_markers(annotations: Sequence[Mapping]) -> List[_Marker]:
    markers: List[_Marker] = []
    for record in annotations:
        event = str(record.get("event", "note"))
        t = float(record.get("t", 0.0))
        if event in _UNMARKED_EVENTS:
            continue
        if event in _ANNOTATION_LINE_CSS:
            markers.append(_Marker(t, event, _ANNOTATION_LINE_CSS[event],
                                   title=_annotation_title(record)))
        else:
            markers.append(_Marker(t, event,
                                   _ANNOTATION_DOT_CSS.get(event, "info"),
                                   dot=True,
                                   title=_annotation_title(record)))
    return markers


def timeline_section(records: Sequence[Mapping], *,
                     costs: Optional[Mapping] = None) -> str:
    """The timeline panels as an HTML block (no page chrome).

    Validates ``records`` as a ``repro.timeline/1`` stream, then renders
    summary tiles, the units/s throughput chart, per-worker RSS, ETA
    convergence — each with annotation markers — and, when a
    ``repro.costs/1`` profile is supplied, the cost breakdown.
    Appended to campaign dashboards and used standalone by
    :func:`render_timeline_dashboard`.
    """
    from .timeline import timeline_summary

    summary = timeline_summary(records)  # validates the stream
    frames = [r for r in records if r.get("kind") == "frame"]
    annotations = [r for r in records if r.get("kind") == "annotation"]
    markers = _timeline_markers(annotations)
    x_max = records[-1].get("t")

    final = summary.get("final_progress") or {}
    by_event = summary["annotations_by_event"]
    disruptions = (by_event.get("retry", 0) + by_event.get("timeout", 0)
                   + by_event.get("worker-death", 0))
    peak_rate = summary["peak_units_per_second"]
    tiles = [
        _tile("Duration", _fmt_time(summary["duration_seconds"]),
              f"{summary['n_frames']} frames"),
        _tile("Units done", _fmt(final.get("units_done")),
              f"{_fmt(final.get('units_failed'))} failed",
              css="quiet" if not final.get("units_failed") else "alarmed"),
        _tile("Peak throughput",
              "—" if peak_rate is None else f"{float(peak_rate):.2f}/s",
              "units per second"),
        _tile("Workers", str(summary["max_workers_seen"]),
              f"peak RSS {_fmt(summary['peak_worker_rss_bytes'], 'B')}"),
        _tile("Parent peak RSS",
              _fmt(summary["peak_parent_rss_bytes"], "B")),
        _tile("Disruptions", str(disruptions),
              "retries + timeouts + deaths",
              css="alarmed" if disruptions else "quiet"),
    ]

    def progress_series(key: str) -> Tuple[List[float], List[float]]:
        ts: List[float] = []
        vs: List[float] = []
        for frame in frames:
            value = (frame.get("progress") or {}).get(key)
            if isinstance(value, (int, float)):
                ts.append(float(frame["t"]))
                vs.append(float(value))
        return ts, vs

    tp_t, tp_v = progress_series("units_per_second")
    throughput = _line_chart(
        "tl-throughput", "Throughput (units/s)", tp_t, tp_v,
        series_css="s1", y_format="plain", markers=markers, x_max=x_max)

    rss_series: Dict[str, Tuple[List[float], List[float]]] = {}
    for frame in frames:
        resources = frame.get("resources") or {}
        t = float(frame["t"])
        parent = resources.get("parent_rss_bytes")
        if isinstance(parent, (int, float)):
            ts, vs = rss_series.setdefault("parent", ([], []))
            ts.append(t)
            vs.append(float(parent))
        for worker in resources.get("workers") or []:
            rss = worker.get("rss_bytes")
            if isinstance(rss, (int, float)):
                label = f"worker {worker.get('ordinal')}"
                ts, vs = rss_series.setdefault(label, ([], []))
                ts.append(t)
                vs.append(float(rss))
    rss_chart = multi_line_chart(
        "tl-rss", "Resident set size (parent + workers)",
        [(label, ts, vs) for label, (ts, vs) in rss_series.items()],
        markers=markers, x_max=x_max)

    eta_t, eta_v = progress_series("eta_seconds")
    eta_chart = _line_chart(
        "tl-eta", "ETA convergence (estimated seconds remaining)",
        eta_t, eta_v, series_css="s3", markers=markers, x_max=x_max)

    cost_html = _costs_section(costs) if costs else ""
    heading = ('<h2 id="timeline" style="font-size:16px;margin:8px 0">'
               'Campaign timeline</h2>')
    return (heading + f'<div class="tiles">{"".join(tiles)}</div>'
            + throughput + rss_chart + eta_chart + cost_html)


_PHASE_FILL = ("var(--series-1)", "var(--series-3)", "var(--series-2)",
               "var(--series-4)", "var(--series-5)", "var(--series-6)")


def _costs_section(costs: Mapping) -> str:
    """Cost-attribution panel: stacked phase-share bar, phase table with
    the CPU view, top cost centers, per-worker breakdown."""
    phases = costs.get("phases", {})
    cpu_phases = (costs.get("cpu") or {}).get("phases", {})

    bar_h = 26
    x = 0.0
    rects: List[str] = []
    legend: List[str] = []
    fill_by_phase: Dict[str, str] = {}
    for i, (name, stats) in enumerate(phases.items()):
        fill = _PHASE_FILL[i % len(_PHASE_FILL)]
        fill_by_phase[name] = fill
        share = float(stats.get("share") or 0.0)
        if share <= 0.0:
            continue
        width = _CHART_W * share
        rects.append(
            f'<rect x="{x:.1f}" y="0" width="{max(width, 1.0):.1f}" '
            f'height="{bar_h}" fill="{fill}">'
            f'<title>{_esc(name)}: {100.0 * share:.1f}% '
            f'({_fmt(stats.get("self_seconds"))}s self)</title></rect>')
        legend.append(
            f'<span><span class="swatch" style="background:{fill}"></span>'
            f'{_esc(name)} {100.0 * share:.1f}%</span>')
        x += width
    if rects:
        share_fig = (
            '<figure class="chart"><figcaption>Wall-time share by phase '
            '(self time, all workers pooled)</figcaption>'
            f'<svg viewBox="0 0 {_CHART_W} {bar_h}" role="img" '
            f'aria-label="Wall-time share by phase">{"".join(rects)}</svg>'
            f'<div class="legend">{"".join(legend)}</div></figure>')
    else:
        share_fig = ('<figure class="chart"><figcaption>Wall-time share '
                     'by phase</figcaption><p class="empty">no attributed '
                     'time</p></figure>')

    phase_rows = []
    for name, stats in phases.items():
        cpu_share = (cpu_phases.get(name) or {}).get("share")
        cpu_cell = ("—" if cpu_share is None
                    else f"{100.0 * float(cpu_share):.1f}%")
        phase_rows.append(
            f"<tr><td><span class=\"swatch\" "
            f"style=\"background:{fill_by_phase.get(name, '')}\"></span>"
            f"{_esc(name)}</td>"
            f"<td class=\"num\">{float(stats.get('self_seconds') or 0.0):.3f}</td>"
            f"<td class=\"num\">{100.0 * float(stats.get('share') or 0.0):.1f}%</td>"
            f"<td class=\"num\">{cpu_cell}</td></tr>")
    phase_table = (
        '<figure class="chart"><figcaption>Phase breakdown '
        f'(wall {_fmt(costs.get("wall_seconds"))}s · attributed '
        f'{_fmt(costs.get("attributed_seconds"))}s · '
        f'{_fmt(costs.get("n_spans"))} spans)</figcaption>'
        '<table class="data"><thead><tr><th>phase</th>'
        '<th>self s</th><th>wall share</th><th>CPU share</th></tr></thead>'
        f'<tbody>{"".join(phase_rows)}</tbody></table></figure>')

    top_rows = []
    for center in costs.get("top_cost_centers", []):
        top_rows.append(
            f"<tr><td>{_esc(center.get('path'))}</td>"
            f"<td>{_esc(center.get('phase'))}</td>"
            f"<td class=\"num\">{int(center.get('calls', 0))}</td>"
            f"<td class=\"num\">{float(center.get('total_seconds') or 0.0):.3f}</td>"
            f"<td class=\"num\">{float(center.get('self_seconds') or 0.0):.3f}</td>"
            f"<td class=\"num\">{100.0 * float(center.get('share') or 0.0):.1f}%"
            "</td></tr>")
    if top_rows:
        top_table = (
            '<figure class="chart"><figcaption>Top cost centers (by self '
            'time)</figcaption><table class="data"><thead><tr><th>span path'
            '</th><th>phase</th><th>calls</th><th>total s</th><th>self s</th>'
            f'<th>share</th></tr></thead><tbody>{"".join(top_rows)}</tbody>'
            '</table></figure>')
    else:
        top_table = ""

    worker_rows = []
    phase_names = list(phases)
    for worker, worker_phases in costs.get("workers", {}).items():
        total = sum(
            float((worker_phases.get(p) or {}).get("self_seconds") or 0.0)
            for p in phase_names)
        cells = "".join(
            f"<td class=\"num\">"
            f"{float((worker_phases.get(p) or {}).get('self_seconds') or 0.0):.3f}"
            "</td>"
            for p in phase_names)
        worker_rows.append(f"<tr><td>{_esc(worker)}</td>"
                           f"<td class=\"num\">{total:.3f}</td>{cells}</tr>")
    if worker_rows:
        phase_heads = "".join(f"<th>{_esc(p)}</th>" for p in phase_names)
        worker_table = (
            '<details class="tableview"><summary>Per-worker phase breakdown '
            '(self seconds)</summary><table class="data"><thead><tr>'
            f'<th>process</th><th>total s</th>{phase_heads}</tr></thead>'
            f'<tbody>{"".join(worker_rows)}</tbody></table></details>')
    else:
        worker_table = ""

    return ('<h2 id="costs" style="font-size:16px;margin:8px 0">'
            'Cost attribution</h2>'
            + share_fig + phase_table + top_table + worker_table)


def render_timeline_dashboard(
    records: Sequence[Mapping], *,
    costs: Optional[Mapping] = None,
    title: Optional[str] = None,
) -> str:
    """Render one campaign's history from its timeline stream alone.

    ``records`` is a loaded ``repro.timeline/1`` stream
    (:func:`~repro.obs.timeline.read_timeline`); ``costs`` optionally
    adds the ``repro.costs/1`` breakdown.  Everything on the page comes
    from the artifact — no live session required.
    """
    body = timeline_section(records, costs=costs)
    header = records[0] if records else {}
    n_frames = sum(1 for r in records if r.get("kind") == "frame")
    n_annotations = sum(1 for r in records if r.get("kind") == "annotation")
    subtitle = (f"{n_frames} frames · {n_annotations} annotations · "
                f"{_fmt(header.get('interval'))}s interval")
    footer = (f"schema {header.get('schema')} · {len(records)} records · "
              "generated by repro.obs.dashboard")
    return _page(title or "Campaign timeline — dashboard", subtitle, body,
                 footer)


# -- entry points --------------------------------------------------------------

def write_dashboard(html_text: str, path: str | os.PathLike) -> str:
    """Write a rendered dashboard to ``path`` (atomically); returns the
    path."""
    if not html_text.startswith("<!DOCTYPE html>"):
        raise ValidationError("not a rendered dashboard (missing doctype)")
    return atomic_write_text(path, html_text)
