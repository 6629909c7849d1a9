"""Experiment reports: paper-style figure tables, markdown and HTML.

Every figure sweep runs on :class:`~repro.eval.harness.runner.ExperimentRunner`,
and its printed series comes from here: :func:`per_query_means` turns the
runner's per-trial rows into the per-query means a figure plots, and
:func:`text_table` renders those, or any other driver's plain rows, as
the aligned text table the CLI prints and the benches write to
``benchmarks/out/``.

The comparative report the harness exists for walks :class:`ExperimentResults`:
the summary table with bootstrap CIs and Mann-Whitney p-values, the
speedup matrix against the named baseline engine, per-figure series
tables regenerated from archived runs, and (when a trajectory archive is
supplied) the per-PR wall-clock trend table. Both renderers walk the same
section model, so the HTML report is the markdown report with styling --
never a diverging second implementation. One number formatter,
:func:`_fmt`, serves every table.
"""

from __future__ import annotations

import html
from dataclasses import dataclass, field

from .results import ExperimentResults, cell_label
from .trajectory import trend_markdown

__all__ = ["per_query_means", "render_html", "render_markdown", "text_table"]

#: The per-query cost columns every figure table plots.
FIGURE_COLUMNS = ("cpu_seconds", "io_accesses", "candidates", "answers")


def _fmt(value: object) -> str:
    """One number-formatting policy for every table cell."""
    if value is None:
        return "-"
    if isinstance(value, str):
        return value
    number = float(value)
    if number == int(number) and abs(number) < 1e9:
        return str(int(number))
    if 0 < abs(number) < 1e-3 or abs(number) >= 1e6:
        return f"{number:.3e}"
    return f"{number:.4g}"


def per_query_means(
    rows: list[dict[str, object]], *axes: str
) -> list[dict[str, object]]:
    """Runner trial rows -> a figure's points: per-query means per trial.

    The runner sums each counter over a trial's query workload; a figure
    plots the mean per query. Each point carries the trial's dataset,
    then the named ``axes`` columns of its row (``"gamma"``, or a value
    the caller added such as ``"d"``), then :data:`FIGURE_COLUMNS`.
    """
    points = []
    for row in rows:
        count = float(row["num_queries"]) or 1.0
        point: dict[str, object] = {"dataset": row["weights"]}
        point.update((axis, row[axis]) for axis in axes)
        point.update((column, row[column] / count) for column in FIGURE_COLUMNS)
        points.append(point)
    return points


def text_table(name: str, rows: list[dict[str, object]]) -> str:
    """Plain ``{column: value}`` rows as an aligned text table."""
    if not rows:
        return f"== {name} ==\n(no rows)"
    columns = list(rows[0])
    cells = [[_fmt(row[c]) for c in columns] for row in rows]
    widths = [
        max(len(col), *(len(line[i]) for line in cells))
        for i, col in enumerate(columns)
    ]
    header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
    separator = "  ".join("-" * w for w in widths)
    body = "\n".join(
        "  ".join(line[i].ljust(widths[i]) for i in range(len(columns)))
        for line in cells
    )
    return f"== {name} ==\n{header}\n{separator}\n{body}"


@dataclass
class _Table:
    title: str
    headers: list[str]
    rows: list[list[str]]
    note: str = ""


@dataclass
class _Report:
    title: str
    preamble: list[str]
    tables: list[_Table] = field(default_factory=list)
    trend: str = ""


def _preamble(results: ExperimentResults) -> list[str]:
    meta = results.meta
    config = results.config
    lines = []
    if meta:
        lines.append(
            "run: "
            + ", ".join(
                f"{key}={meta[key]}"
                for key in ("git_hash", "host", "cpu_count", "python")
                if key in meta
            )
        )
    if config:
        lines.append(
            "config: "
            + ", ".join(
                f"{key}={config[key]}"
                for key in ("engines", "kinds", "repeats", "seed")
                if key in config
            )
        )
    lines.append(f"baseline engine: `{results.baseline_engine}`")
    lines.append(f"trials: {len(results.rows)}")
    return lines


def _summary_table(results: ExperimentResults) -> _Table:
    headers = [
        "engine",
        "cell",
        "repeats",
        "median s",
        "95% CI",
        "speedup",
        "p (MWU)",
        "io",
        "candidates",
        "answers",
    ]
    rows = []
    for record in results.summary_records:
        rows.append(
            [
                str(record["engine"]),
                str(record["cell"]),
                _fmt(record["repeats"]),
                f"{float(record['median_seconds']):.4f}",
                f"[{float(record['ci_low']):.4f}, {float(record['ci_high']):.4f}]",
                _fmt(record["speedup_vs_baseline"]),
                (
                    "-"
                    if record["p_value"] is None
                    else f"{float(record['p_value']):.4f}"
                ),
                _fmt(record["io_accesses"]),
                _fmt(record["candidates"]),
                _fmt(record["answers"]),
            ]
        )
    return _Table(
        "Summary (median over repeats, bootstrap CI, Mann-Whitney vs baseline)",
        headers,
        rows,
    )


def _speedup_table(results: ExperimentResults) -> _Table:
    headers = ["engine \\ cell", *results.cells]
    rows = []
    for engine in results.engines:
        cells = results.speedup_matrix[engine]
        rows.append(
            [engine]
            + [
                "-" if cells[cell] is None else f"{cells[cell]:.2f}x"
                for cell in results.cells
            ]
        )
    return _Table(
        f"Speedup matrix (median seconds of `{results.baseline_engine}` "
        "over each engine; >1 is faster)",
        headers,
        rows,
        note="Wall-clock ratios are machine-local; counters are "
        "deterministic under the config's seed.",
    )


def _figure_tables(results: ExperimentResults) -> list[_Table]:
    """Per-(kind, weights) sweep tables: the paper-figure series shape.

    A gamma sweep regenerates the Fig. 7 table, an alpha sweep Fig. 8, a
    scale sweep Fig. 12 -- straight from the archived rows, no re-run.
    Each (engine, cell) reads the same medians as the summary table.
    """
    headers = ["engine", "scale", "gamma", "alpha", "median s", "io", "cand"]
    series: dict[tuple[str, str], dict[tuple[str, str], list[str]]] = {}
    for record in results.rows:
        key = (str(record["engine"]), cell_label(record))
        cells = series.setdefault((str(record["kind"]), str(record["weights"])), {})
        if key in cells:
            continue
        counters = results.median_counters[key]
        cells[key] = [
            key[0],
            str(record["scale"]),
            _fmt(record["gamma"]),
            _fmt(record["alpha"]),
            f"{results.median_seconds[key]:.4f}",
            _fmt(counters["io_accesses"]),
            _fmt(counters["candidates"]),
        ]
    frame = results.frame
    return [
        _Table(
            f"Series: kind={kind}, weights={weight}",
            headers,
            list(series[(kind, weight)].values()),
        )
        for kind in map(str, frame.unique("kind"))
        for weight in map(str, frame.unique("weights"))
        if (kind, weight) in series
    ]


def _build(results: ExperimentResults, trajectory=None, fresh=None) -> _Report:
    report = _Report(
        title=f"Experiment report: {results.name}",
        preamble=_preamble(results),
    )
    report.tables.append(_summary_table(results))
    report.tables.append(_speedup_table(results))
    report.tables.extend(_figure_tables(results))
    if trajectory is not None:
        report.trend = trend_markdown(trajectory, new=fresh)
    return report


def render_markdown(
    results: ExperimentResults,
    trajectory: list[dict] | None = None,
    fresh: dict | None = None,
) -> str:
    """The full report as GitHub-flavored markdown."""
    report = _build(results, trajectory, fresh)
    lines = [f"# {report.title}", ""]
    for line in report.preamble:
        lines.append(f"- {line}")
    lines.append("")
    for table in report.tables:
        lines.append(f"## {table.title}")
        lines.append("")
        lines.append("| " + " | ".join(table.headers) + " |")
        lines.append("|---" * len(table.headers) + "|")
        for row in table.rows:
            lines.append("| " + " | ".join(row) + " |")
        if table.note:
            lines.append("")
            lines.append(f"_{table.note}_")
        lines.append("")
    if report.trend:
        lines.append("## Trajectory (median seconds per archived run)")
        lines.append("")
        lines.append(report.trend.rstrip())
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


_HTML_STYLE = """
body { font-family: system-ui, sans-serif; margin: 2rem; color: #1a1a1a; }
h1 { border-bottom: 2px solid #ddd; padding-bottom: .3rem; }
table { border-collapse: collapse; margin: 1rem 0; font-size: .9rem; }
th, td { border: 1px solid #ccc; padding: .3rem .6rem; text-align: right; }
th:first-child, td:first-child { text-align: left; }
th { background: #f2f2f2; }
tr:nth-child(even) td { background: #fafafa; }
.note { color: #666; font-style: italic; }
""".strip()


def render_html(
    results: ExperimentResults,
    trajectory: list[dict] | None = None,
    fresh: dict | None = None,
) -> str:
    """The same report as a standalone HTML page (no external assets)."""
    report = _build(results, trajectory, fresh)
    parts = [
        "<!doctype html>",
        "<html><head><meta charset='utf-8'>",
        f"<title>{html.escape(report.title)}</title>",
        f"<style>{_HTML_STYLE}</style>",
        "</head><body>",
        f"<h1>{html.escape(report.title)}</h1>",
        "<ul>",
    ]
    for line in report.preamble:
        parts.append(f"<li>{html.escape(line)}</li>")
    parts.append("</ul>")
    for table in report.tables:
        parts.append(f"<h2>{html.escape(table.title)}</h2>")
        parts.append("<table><thead><tr>")
        for header in table.headers:
            parts.append(f"<th>{html.escape(header)}</th>")
        parts.append("</tr></thead><tbody>")
        for row in table.rows:
            parts.append(
                "<tr>"
                + "".join(f"<td>{html.escape(cell)}</td>" for cell in row)
                + "</tr>"
            )
        parts.append("</tbody></table>")
        if table.note:
            parts.append(f"<p class='note'>{html.escape(table.note)}</p>")
    if report.trend:
        parts.append("<h2>Trajectory (median seconds per archived run)</h2>")
        lines = [
            line for line in report.trend.strip().splitlines() if line.strip()
        ]
        if lines and lines[0].startswith("|"):
            parts.append("<table><thead><tr>")
            headers = [c.strip() for c in lines[0].strip("|").split("|")]
            for header in headers:
                parts.append(f"<th>{html.escape(header)}</th>")
            parts.append("</tr></thead><tbody>")
            for line in lines[2:]:
                cells = [c.strip() for c in line.strip("|").split("|")]
                parts.append(
                    "<tr>"
                    + "".join(
                        f"<td>{html.escape(cell)}</td>" for cell in cells
                    )
                    + "</tr>"
                )
            parts.append("</tbody></table>")
        else:
            parts.append(f"<p>{html.escape(report.trend)}</p>")
    parts.append("</body></html>")
    return "\n".join(parts) + "\n"
