"""Self-contained HTML campaign reports: the rendered successor to the
markdown record.

``repro report <journal> [--compare other] -o report.html`` renders one
campaign journal (typically multi-trial, see ``--trials``) into a
single HTML file with no external assets: inline CSS, hand-rolled SVG
charts.  Per figure series it shows

* a chart with one marker per sweep point and a **bootstrap-CI error
  bar** (``class="ci-bar"``) per marker, computed over the per-trial
  medians by :func:`trial_ci`;
* a table of the same numbers (median, CI bounds, trial count);

plus a paper-vs-measured table (the claims of
:data:`~repro.core.record.CLAIMS` whose figure matches a journal
experiment), a Mann-Whitney comparison section when ``--compare``
names a second journal, a Fig-10-style attribution trend derived from
the journaled per-point metric deltas, aggregated campaign metrics
(histogram p50/p95/p99 included) and a failure/`[hole]` listing.

Everything is deterministic: two renders of the same journal(s) are
byte-identical (no wall clock, no randomness beyond the seeded
bootstrap).  The bootstrap is pure Python and returns numpy's interval
bit for bit (:func:`bootstrap_ci`, ``tests/test_randomness.py``), so
the report needs no numpy.
"""

from __future__ import annotations

import html
import math
from collections import Counter
from functools import lru_cache
from html.parser import HTMLParser
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.rng import Generator
from repro.analysis.stats import (CampaignResults, Comparison, TrialSet,
                                  median, median_of_sorted, quantile)
from repro.core.report import format_si

__all__ = ["render_html_report", "write_html_report",
           "validate_html_report", "bootstrap_ci", "trial_ci"]

_CSS = """
body { font-family: system-ui, sans-serif; margin: 2em auto;
       max-width: 72em; color: #1c2733; }
h1 { border-bottom: 2px solid #356; padding-bottom: .2em; }
h2 { margin-top: 2em; color: #356; }
h3 { margin-bottom: .3em; }
table { border-collapse: collapse; margin: .6em 0; font-size: .92em; }
th, td { border: 1px solid #c9d4de; padding: .25em .6em;
         text-align: right; }
th { background: #eef3f7; }
td.l, th.l { text-align: left; }
tr.sig td { background: #fff3d6; }
tr.hole td { background: #fde8e8; }
.summary { color: #567; }
.chart-grid { display: flex; flex-wrap: wrap; gap: 1em; }
figure { margin: 0; border: 1px solid #c9d4de; padding: .5em;
         border-radius: 4px; }
figcaption { font-size: .85em; color: #567; text-align: center; }
.note { color: #789; font-style: italic; }
"""


@lru_cache(maxsize=8)
def _resample_rows(n: int, n_boot: int,
                   seed: int) -> Tuple[Tuple[Tuple[int, ...], int], ...]:
    """numpy's ``default_rng(seed).integers(0, n, size=(n_boot, n))``,
    drawn row by row as numpy fills it, with each row reduced to its
    sorted index multiset and the number of rows that share it.

    A row's median depends only on that multiset, and the index matrix
    only on ``(n, n_boot, seed)``; a 3-trial point has at most 10
    distinct rows of its 2,000.
    """
    draw = Generator(seed).integers
    rows = Counter(tuple(sorted([draw(0, n) for _ in range(n)]))
                   for _ in range(n_boot))
    return tuple(rows.items())


def bootstrap_ci(samples: Sequence[float], confidence: float = 0.95,
                 n_boot: int = 2000, seed: int = 0) -> Tuple[float, float]:
    """Bootstrap confidence interval on the median: bit for bit numpy's
    ``quantile(median(a[default_rng(seed).integers(0, n, (n_boot, n))],
    axis=1), [lo, 1 - lo])``."""
    values = [float(v) for v in samples]
    if not values:
        raise ValueError("cannot bootstrap an empty sample")
    if not (0 < confidence < 1):
        raise ValueError("confidence must be in (0, 1)")
    get = values.__getitem__
    if any(map(math.isnan, values)):
        # numpy's median of a row that draws a NaN is NaN.
        def row_median(row: Tuple[int, ...]) -> float:
            return median(list(map(get, row)))
    else:
        def row_median(row: Tuple[int, ...]) -> float:
            return median_of_sorted(sorted(map(get, row)))
    medians: List[float] = []
    for row, count in _resample_rows(len(values), n_boot, seed):
        medians += [row_median(row)] * count
    lo = (1 - confidence) / 2
    return quantile(medians, lo), quantile(medians, 1 - lo)


def trial_ci(ts: TrialSet) -> Tuple[float, float]:
    """95% bootstrap CI on the median of the trial medians.

    With a single trial there is nothing to resample: fall back to
    that trial's own decile band (or a degenerate interval).
    """
    if ts.n == 1:
        if ts.bands:
            return ts.bands[0]
        return (ts.values[0], ts.values[0])
    return bootstrap_ci(ts.values)


_SERIES_COLOR = "#2b6cb0"


def _esc(text: object) -> str:
    return html.escape(str(text), quote=True)


# ---------------------------------------------------------------------------
# SVG chart with CI error bars
# ---------------------------------------------------------------------------

def _axis_pos(values: Sequence[float], span: float, pad: float,
              log: bool) -> List[float]:
    vals = [math.log10(v) if log else v for v in values]
    lo, hi = min(vals), max(vals)
    if hi <= lo:
        hi = lo + 1.0
    return [pad + (v - lo) / (hi - lo) * (span - 2 * pad) for v in vals]


def _svg_series_chart(label: str, points: List[TrialSet],
                      cis: List[Tuple[float, float]],
                      width: int = 440, height: int = 220) -> str:
    """One series as an inline SVG: median line + CI whiskers (*cis*,
    one per point)."""
    pts = [(ts.x, ts.median, *ci) for ts, ci in zip(points, cis)]
    xs = [p[0] for p in pts]
    log_x = all(x > 0 for x in xs) and len(set(xs)) > 1 \
        and max(xs) / min(xs) >= 100
    pad = 34
    px = _axis_pos(xs, width, pad, log_x)
    y_lo = min(min(p[2], p[1]) for p in pts)
    y_hi = max(max(p[3], p[1]) for p in pts)
    if y_hi <= y_lo:
        y_hi = y_lo + (abs(y_lo) or 1.0)
    margin = (y_hi - y_lo) * 0.08

    def ypos(v: float) -> float:
        frac = (v - y_lo + margin) / (y_hi - y_lo + 2 * margin)
        return height - pad - frac * (height - 2 * pad)

    parts = [f'<svg class="series-chart" role="img" '
             f'viewBox="0 0 {width} {height}" width="{width}" '
             f'height="{height}">',
             f'<rect x="0" y="0" width="{width}" height="{height}" '
             f'fill="#ffffff" stroke="#c9d4de"/>']
    # Axes annotations: min/max of both axes (SI-formatted).
    parts.append(
        f'<text x="{pad}" y="{height - 6}" font-size="10" '
        f'fill="#567">{_esc(format_si(min(xs)))}</text>')
    parts.append(
        f'<text x="{width - pad}" y="{height - 6}" font-size="10" '
        f'text-anchor="end" fill="#567">{_esc(format_si(max(xs)))}'
        f'{" (log)" if log_x else ""}</text>')
    parts.append(
        f'<text x="4" y="{pad}" font-size="10" fill="#567">'
        f'{_esc(format_si(y_hi))}</text>')
    parts.append(
        f'<text x="4" y="{height - pad}" font-size="10" fill="#567">'
        f'{_esc(format_si(y_lo))}</text>')
    # Median polyline.
    if len(pts) > 1:
        poly = " ".join(f"{x:.1f},{ypos(p[1]):.1f}"
                        for x, p in zip(px, pts))
        parts.append(f'<polyline points="{poly}" fill="none" '
                     f'stroke="{_SERIES_COLOR}" stroke-width="1.5"/>')
    # CI whiskers + markers.
    for x, (_, med, lo, hi) in zip(px, pts):
        y1, y2 = ypos(hi), ypos(lo)
        parts.append(
            f'<g class="ci-bar">'
            f'<line x1="{x:.1f}" y1="{y1:.1f}" x2="{x:.1f}" '
            f'y2="{y2:.1f}" stroke="{_SERIES_COLOR}" stroke-width="1"/>'
            f'<line x1="{x - 3:.1f}" y1="{y1:.1f}" x2="{x + 3:.1f}" '
            f'y2="{y1:.1f}" stroke="{_SERIES_COLOR}" stroke-width="1"/>'
            f'<line x1="{x - 3:.1f}" y1="{y2:.1f}" x2="{x + 3:.1f}" '
            f'y2="{y2:.1f}" stroke="{_SERIES_COLOR}" stroke-width="1"/>'
            f'</g>')
        parts.append(f'<circle cx="{x:.1f}" cy="{ypos(med):.1f}" r="2.5" '
                     f'fill="{_SERIES_COLOR}"/>')
    parts.append('</svg>')
    return "".join(parts)


# ---------------------------------------------------------------------------
# Sections
# ---------------------------------------------------------------------------

def _series_section(results: CampaignResults) -> List[str]:
    out: List[str] = []
    for experiment in results.experiments():
        out.append(f"<h2>Experiment {_esc(experiment)}</h2>")
        trials = results.trials(experiment)
        out.append(f'<p class="summary">{trials} trial(s) per point; '
                   f'error bars are 95% bootstrap CIs over the '
                   f'per-trial medians'
                   f'{" (decile band at a single trial)" if trials == 1 else ""}.'
                   f'</p>')
        series = results.series_points(experiment)
        # One bootstrap per point, shared by the chart and the table.
        cis = {label: [trial_ci(ts) for ts in points]
               for label, points in series.items()}
        out.append('<div class="chart-grid">')
        for label, points in series.items():
            out.append("<figure>")
            out.append(_svg_series_chart(label, points, cis[label]))
            out.append(f"<figcaption>{_esc(label)}</figcaption>")
            out.append("</figure>")
        out.append("</div>")
        for label, points in series.items():
            out.append(f"<h3>{_esc(label)}</h3>")
            out.append('<table class="series">')
            out.append("<tr><th>x</th><th>median</th><th>CI lo</th>"
                       "<th>CI hi</th><th>trials</th></tr>")
            for ts, (lo, hi) in zip(points, cis[label]):
                out.append(
                    f"<tr><td>{_esc(format_si(ts.x))}</td>"
                    f"<td>{_esc(format_si(ts.median))}</td>"
                    f"<td>{_esc(format_si(lo))}</td>"
                    f"<td>{_esc(format_si(hi))}</td>"
                    f"<td>{ts.n}</td></tr>")
            out.append("</table>")
    return out


def _matched_claims(experiments: List[str]) -> List[Tuple[str, str, str]]:
    """(figure, claim, journal experiment) for claims whose figure id
    matches a journal experiment (by prefix either way: the fig1a/fig1b
    entry points journal under the shared sweep name ``fig1``)."""
    from repro.core.record import CLAIMS
    out = []
    for fig, text in ((c.figure, c.text) for c in CLAIMS):
        for exp in experiments:
            if fig == exp or fig.startswith(exp) or exp.startswith(fig):
                out.append((fig, text, exp))
                break
    return out


def _measured_summary(results: CampaignResults, experiment: str) -> str:
    """Compact journal-derived summary: first→last median per series."""
    bits = []
    for label, points in results.series_points(experiment).items():
        if not points:
            continue
        first, last = points[0], points[-1]
        if len(points) == 1:
            bits.append(f"{label}: {format_si(first.median)}")
        else:
            bits.append(f"{label}: {format_si(first.median)} → "
                        f"{format_si(last.median)}")
    return "; ".join(bits) if bits else "no completed points"


def _paper_section(results: CampaignResults) -> List[str]:
    out = ["<h2>Paper vs. measured</h2>"]
    matched = _matched_claims(results.experiments())
    if not matched:
        out.append('<p class="note">No paper claim matches the '
                   'experiments in this journal.</p>')
        out.append('<table id="paper-vs-measured">'
                   '<tr><th class="l">Figure</th>'
                   '<th class="l">Paper claim</th>'
                   '<th class="l">Measured (this campaign)</th></tr>'
                   '</table>')
        return out
    out.append('<p class="summary">Measured values are re-derived from '
               'this journal\'s trial records (median over trials, '
               'series first → last sweep point); the full observation '
               'extraction lives in EXPERIMENTS.md.</p>')
    out.append('<table id="paper-vs-measured">')
    out.append('<tr><th class="l">Figure</th><th class="l">Paper claim'
               '</th><th class="l">Measured (this campaign)</th></tr>')
    for fig, claim, exp in matched:
        out.append(f'<tr><td class="l">{_esc(fig)}</td>'
                   f'<td class="l">{_esc(claim)}</td>'
                   f'<td class="l">{_esc(_measured_summary(results, exp))}'
                   f'</td></tr>')
    out.append("</table>")
    return out


def _compare_section(comparisons: List[Comparison], other_name: str,
                     alpha: float = 0.05) -> List[str]:
    out = [f"<h2>Comparison vs. {_esc(other_name)}</h2>"]
    if not comparisons:
        out.append('<p class="note">No common (experiment, series, x) '
                   'points between the two journals.</p>')
        return out
    n_sig = sum(c.test.significant(alpha) for c in comparisons)
    out.append(f'<p class="summary">Two-sided Mann-Whitney U per sweep '
               f'point over the per-trial medians; rows at '
               f'p &lt; {alpha:g} are highlighted '
               f'({n_sig}/{len(comparisons)} significant).  A12 is the '
               f'Vargha-Delaney effect size (0.5 = no effect).</p>')
    out.append('<table id="comparison">')
    out.append('<tr><th class="l">experiment</th><th class="l">series'
               '</th><th>x</th><th>median A</th><th>median B</th>'
               '<th>Δ%</th><th>U</th><th>p</th><th>A12</th>'
               '<th class="l">sig.</th></tr>')
    for c in comparisons:
        sig = c.test.significant(alpha)
        delta = "-" if c.delta_pct is None else f"{c.delta_pct:+.1f}%"
        out.append(
            f'<tr{" class=" + chr(34) + "sig" + chr(34) if sig else ""}>'
            f'<td class="l">{_esc(c.experiment)}</td>'
            f'<td class="l">{_esc(c.series)}</td>'
            f'<td>{_esc(format_si(c.x))}</td>'
            f'<td>{_esc(format_si(c.median_a))}</td>'
            f'<td>{_esc(format_si(c.median_b))}</td>'
            f'<td>{_esc(delta)}</td>'
            f'<td>{c.test.u:g}</td>'
            f'<td>{c.test.p_value:.3f}</td>'
            f'<td>{c.test.effect_size:.2f}</td>'
            f'<td class="l">{"*" if sig else ""}</td></tr>')
    out.append("</table>")
    return out


def _point_interference(metrics: dict) -> Optional[Tuple[float, float]]:
    """(stall fraction, mean bandwidth B/s) from one point's metric
    delta, or None when the point carried no usable telemetry."""
    from repro.obs.metrics import parse_metric_key
    stall = busy = sent = dur = 0.0
    for key, entry in metrics.items():
        name, _labels = parse_metric_key(key)
        value = entry.get("value")
        if name == "runtime.stall_seconds":
            stall += value
        elif name == "runtime.busy_seconds":
            busy += value
        elif name == "net.bytes":
            sent += value
        elif name == "net.transfer_seconds" \
                and isinstance(value, dict):
            dur += value.get("sum", 0.0)
    if busy <= 0 or dur <= 0 or sent <= 0:
        return None
    return (stall / busy, sent / dur)


def _attribution_section(results: CampaignResults) -> List[str]:
    out = ['<h2 id="attribution-trend">Attribution trend (Fig 10)</h2>']
    samples: List[Tuple[str, float, float]] = []
    for entry, metrics in results.point_metrics():
        point = _point_interference(metrics)
        if point is None:
            continue
        trial = int(entry.get("trial", 0))
        key = entry["key"] if not trial else f"{entry['key']}#t{trial}"
        samples.append((f"{entry['experiment']}/{key}", *point))
    if len(samples) < 2:
        if results.point_metrics():
            out.append('<p class="note">The journaled metrics carry no '
                       'compute+communication overlap (needs busy/stall '
                       'and transfer counters from an overlap-style '
                       'experiment, e.g. fig10).</p>')
        else:
            out.append('<p class="note">No per-point metric deltas in '
                       'this journal (run the campaign with --metrics '
                       'to record them).</p>')
        return out
    from repro.obs.attribution import _pearson
    corr = _pearson([s[1] for s in samples], [s[2] for s in samples])
    if corr is None:
        out.append('<p class="summary">Correlation: n/a '
                   '(insufficient variance across points).</p>')
    else:
        trend = ("matches Fig 10 (stalls depress bandwidth)"
                 if corr < 0 else "does NOT match Fig 10")
        out.append(f'<p class="summary">Pearson correlation(stall '
                   f'fraction, bandwidth) = {corr:+.3f} — {trend}.</p>')
    out.append("<table>")
    out.append('<tr><th class="l">point</th><th>stall fraction</th>'
               '<th>mean bandwidth</th></tr>')
    for label, stall, bw in sorted(samples, key=lambda s: s[1]):
        out.append(f'<tr><td class="l">{_esc(label)}</td>'
                   f'<td>{stall:.3f}</td>'
                   f'<td>{_esc(format_si(bw, "B/s"))}</td></tr>')
    out.append("</table>")
    return out


def _metrics_section(results: CampaignResults) -> List[str]:
    point_metrics = results.point_metrics()
    if not point_metrics:
        return []
    from repro.obs.metrics import MetricsRegistry
    registry = MetricsRegistry()
    for _entry, delta in point_metrics:
        registry.merge_delta(delta)
    out = ["<h2>Campaign metrics</h2>",
           '<p class="summary">Per-point metric deltas folded across '
           'the whole journal (the measurer\'s running aggregate); '
           'histogram rows include bucket-estimated quantiles.</p>',
           "<table>",
           '<tr><th class="l">metric</th><th class="l">type</th>'
           '<th>value / count</th><th>p50</th><th>p95</th><th>p99</th>'
           '</tr>']
    for key, entry in registry.snapshot().items():
        kind = entry["type"]
        value = entry["value"]
        if kind == "histogram":
            q = value.get("quantiles", {})
            out.append(
                f'<tr><td class="l">{_esc(key)}</td>'
                f'<td class="l">histogram</td>'
                f'<td>{value["count"]}</td>'
                f'<td>{_esc(format_si(q.get("p50", 0.0)))}</td>'
                f'<td>{_esc(format_si(q.get("p95", 0.0)))}</td>'
                f'<td>{_esc(format_si(q.get("p99", 0.0)))}</td></tr>')
        else:
            out.append(
                f'<tr><td class="l">{_esc(key)}</td>'
                f'<td class="l">{_esc(kind)}</td>'
                f'<td>{_esc(format_si(value))}</td>'
                f'<td>-</td><td>-</td><td>-</td></tr>')
    out.append("</table>")
    return out


def _failures_section(results: CampaignResults) -> List[str]:
    failures = results.failures()
    out = ['<h2 id="failures">Failures</h2>']
    if not failures:
        out.append('<p class="summary">No failed trial records.</p>')
        return out
    out.append(f'<p class="summary">{len(failures)} failed trial '
               f'record(s); harness-level losses are marked '
               f'<code>[hole]</code> — those points are missing from '
               f'the series above.</p>')
    out.append("<table>")
    out.append('<tr><th class="l">experiment</th><th class="l">point'
               '</th><th>trial</th><th class="l">error</th>'
               '<th class="l">message</th></tr>')
    for f in failures:
        cls = ' class="hole"' if f["harness"] else ""
        hole = "[hole] " if f["harness"] else ""
        out.append(f'<tr{cls}><td class="l">{_esc(f["experiment"])}</td>'
                   f'<td class="l">{_esc(f["key"])}</td>'
                   f'<td>{f["trial"]}</td>'
                   f'<td class="l">{hole}{_esc(f["error"])}</td>'
                   f'<td class="l">{_esc(f["message"])}</td></tr>')
    out.append("</table>")
    return out


# ---------------------------------------------------------------------------
# Document assembly + validation
# ---------------------------------------------------------------------------

def render_html_report(results: CampaignResults,
                       compare: Optional[CampaignResults] = None,
                       title: Optional[str] = None) -> str:
    """Render one campaign (plus optional comparison) to HTML text."""
    title = title or f"Campaign report — {results.name}"
    counts = results.status_counts()
    summary = ", ".join(f"{v} {k}" for k, v in sorted(counts.items())) \
        or "empty journal"
    body: List[str] = [
        f"<h1>{_esc(title)}</h1>",
        f'<p class="summary">Journal <code>{_esc(results.name)}</code>: '
        f'{len(results.entries)} record(s) ({_esc(summary)}).  '
        f'Generated by <code>repro report</code>; self-contained, no '
        f'external assets.</p>']
    body.extend(_series_section(results))
    body.extend(_paper_section(results))
    if compare is not None:
        body.extend(_compare_section(results.compare(compare),
                                     compare.name))
    body.extend(_attribution_section(results))
    body.extend(_metrics_section(results))
    body.extend(_failures_section(results))
    return ("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n"
            "<meta charset=\"utf-8\"/>\n"
            f"<title>{_esc(title)}</title>\n"
            f"<style>{_CSS}</style>\n"
            "</head>\n<body>\n"
            + "\n".join(body)
            + "\n</body>\n</html>\n")


_VOID_TAGS = {"meta", "br", "hr", "img", "input", "link", "circle",
              "line", "rect", "polyline", "path"}


class _WellFormedChecker(HTMLParser):
    """Tag-balance checker for the self-contained report."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.stack: List[str] = []
        self.problems: List[str] = []
        self.seen: Dict[str, int] = {}

    def handle_starttag(self, tag, attrs):
        self.seen[tag] = self.seen.get(tag, 0) + 1
        if tag not in _VOID_TAGS:
            self.stack.append(tag)

    def handle_startendtag(self, tag, attrs):
        self.seen[tag] = self.seen.get(tag, 0) + 1

    def handle_endtag(self, tag):
        if tag in _VOID_TAGS:
            return
        if not self.stack:
            self.problems.append(f"closing </{tag}> with no open tag")
        elif self.stack[-1] != tag:
            self.problems.append(
                f"mismatched </{tag}>; open tag is <{self.stack[-1]}>")
            if tag in self.stack:
                while self.stack and self.stack[-1] != tag:
                    self.stack.pop()
                self.stack.pop()
        else:
            self.stack.pop()


def validate_html_report(text: str) -> List[str]:
    """Structural problems of a rendered report (empty list = valid).

    Checks well-formedness (balanced tags) and the report's own
    contract: an html/body skeleton and the paper-vs-measured table.
    CI additionally greps for content markers (CI bars etc.).
    """
    checker = _WellFormedChecker()
    try:
        checker.feed(text)
        checker.close()
    except Exception as err:  # pragma: no cover - parser internal
        return [f"HTML parse error: {err}"]
    problems = list(checker.problems)
    if checker.stack:
        problems.append(
            f"unclosed tag(s) at end of document: "
            f"{', '.join(checker.stack)}")
    for required in ("html", "body", "h1"):
        if not checker.seen.get(required):
            problems.append(f"missing <{required}> element")
    if 'id="paper-vs-measured"' not in text:
        problems.append("missing the paper-vs-measured table")
    return problems


def write_html_report(path, results: CampaignResults,
                      compare: Optional[CampaignResults] = None,
                      title: Optional[str] = None) -> str:
    """Render, self-validate and write; raises on an invalid render."""
    text = render_html_report(results, compare=compare, title=title)
    problems = validate_html_report(text)
    if problems:
        raise ValueError(
            "refusing to write an invalid HTML report: "
            + "; ".join(problems[:5]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text
