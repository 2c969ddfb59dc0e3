"""Result containers and text formatting for experiment output.

Every experiment returns an :class:`ExperimentResult`; the CLI and the
report print it with :func:`format_result`, producing the same rows
or bar series the paper's table/figure reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Union

Cell = Union[str, int, float]


@dataclass
class ExperimentResult:
    """One regenerated table or figure.

    ``rows`` are the data series (first column is the benchmark or
    parameter); ``summary`` holds the figure-level aggregates the
    paper quotes in prose (e.g. "38% over TC with RC").
    """

    experiment_id: str
    title: str
    headers: List[str]
    rows: List[List[Cell]] = field(default_factory=list)
    summary: Dict[str, float] = field(default_factory=dict)
    notes: str = ""

    def column(self, header: str) -> List[Cell]:
        """Extract one column by header name."""
        index = self.headers.index(header)
        return [row[index] for row in self.rows]

    def row(self, name: str) -> List[Cell]:
        """Extract one row by its first-column label."""
        for row in self.rows:
            if row[0] == name:
                return row
        raise KeyError(f"no row {name!r} in {self.experiment_id}")


def format_cell(value: Cell) -> str:
    """A cell as every table prints it: floats to three decimals."""
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def format_result(result: ExperimentResult) -> str:
    """Render a result as an aligned text table."""
    table: List[Sequence[str]] = [result.headers]
    table += [[format_cell(c) for c in row] for row in result.rows]
    widths = [max(len(row[i]) for row in table)
              for i in range(len(result.headers))]

    def line(row: Sequence[str]) -> str:
        return "  ".join(cell.rjust(width)
                         for cell, width in zip(row, widths))

    out = [f"== {result.experiment_id}: {result.title} ==", ""]
    out.append(line(table[0]))
    out.append(line(["-" * w for w in widths]))
    out.extend(line(row) for row in table[1:])
    if result.summary:
        out.append("")
        for key, value in result.summary.items():
            out.append(f"  {key}: {value:.3f}")
    if result.notes:
        out.append("")
        out.append(f"  note: {result.notes}")
    return "\n".join(out)


def render_html_table(result: ExperimentResult) -> str:
    """Render a result as an HTML table (used by the DB report).

    Numeric cells are right-aligned via a class the report's styles
    pick up; the summary aggregates and notes become a footer row so
    one element carries everything ``format_result`` prints.
    """
    import html

    def cell(value: Cell, tag: str = "td") -> str:
        css = ' class="num"' if isinstance(value, (int, float)) else ""
        return f"<{tag}{css}>{html.escape(format_cell(value))}</{tag}>"

    lines = [f'<table class="result" id="{html.escape(result.experiment_id)}">',
             f"<caption>{html.escape(result.title)}</caption>",
             "<thead><tr>"
             + "".join(cell(h, "th") for h in result.headers)
             + "</tr></thead>", "<tbody>"]
    for row in result.rows:
        lines.append("<tr>" + "".join(cell(c) for c in row) + "</tr>")
    lines.append("</tbody>")
    footer = []
    footer.extend(f"{key}: {value:.3f}"
                  for key, value in result.summary.items())
    if result.notes:
        footer.append(result.notes)
    if footer:
        lines.append(
            f'<tfoot><tr><td colspan="{len(result.headers)}">'
            + "<br>".join(html.escape(f) for f in footer)
            + "</td></tr></tfoot>")
    lines.append("</table>")
    return "\n".join(lines)


def geomean(values: Sequence[float]) -> float:
    """Geometric mean (the paper's cross-benchmark aggregate)."""
    if not values:
        raise ValueError("geomean of empty sequence")
    product = 1.0
    for value in values:
        if value <= 0:
            raise ValueError(f"geomean needs positive values, got {value}")
        product *= value
    return product ** (1.0 / len(values))
