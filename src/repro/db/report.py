"""Fuzzbench-style HTML report generated from results-DB queries.

``gtsc-repro db report`` renders one self-contained HTML file — no
external assets, no plotting stack — with four sections:

1. **Fleet summary** — how many runs, workloads, configs, commits and
   hosts the database holds, and where the rows came from;
2. **Paper-figure table** — the Fig. 12-style protocol/consistency
   comparison (normalised to the no-L1 baseline where present), both
   as an HTML table and as the ASCII chart the CLI prints, so the
   figure's *shape* survives into the artifact;
3. **Per-protocol comparison** — key counters (cycles, L1 hit rate,
   NoC bytes, memory stalls, DRAM reads) per recorded point;
4. **Provenance appendix** — every row's run key, git commit, config
   hash, host, source and wall time: the audit trail that answers
   "which commit produced this number".

Everything is a query; nothing simulates.  A report on a database of
ten thousand runs costs the same milliseconds as one on ten.
"""

from __future__ import annotations

import datetime
import html
from typing import List, Optional

import repro
from repro.db import query
from repro.db.store import ResultsDB
from repro.harness.charts import render_chart
from repro.harness.tables import render_html_table

_STYLE = """
body { font-family: -apple-system, "Segoe UI", Roboto, sans-serif;
       margin: 2rem auto; max-width: 72rem; padding: 0 1rem;
       color: #1d1d1f; }
h1 { border-bottom: 2px solid #444; padding-bottom: .3rem; }
h2 { margin-top: 2.2rem; }
table { border-collapse: collapse; margin: 1rem 0; width: 100%; }
caption { caption-side: top; text-align: left; font-weight: 600;
          padding-bottom: .4rem; }
th, td { border: 1px solid #ccc; padding: .3rem .6rem;
         font-size: .92rem; }
th { background: #f0f0f2; text-align: left; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
tfoot td { background: #fafafa; font-size: .85rem; color: #555; }
pre { background: #f6f6f8; border: 1px solid #ddd; padding: .8rem;
      overflow-x: auto; font-size: .8rem; }
code { background: #f0f0f2; padding: 0 .25rem; }
.prov td { font-family: ui-monospace, monospace; font-size: .8rem; }
.meta { color: #666; font-size: .9rem; }
"""


def _short(digest: str, length: int = 12) -> str:
    return digest[:length] if digest else "-"


def render_report(db: ResultsDB, title: str = "G-TSC results",
                  commit: Optional[str] = None) -> str:
    """The full report as one HTML document string."""
    summary = db.summary()
    rows = db.runs(commit=commit)
    matrix = query.matrix_result(db, commit=commit)
    comparison = query.comparison_rows(db, commit=commit)
    generated = datetime.datetime.now(datetime.timezone.utc)

    out: List[str] = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        f"<title>{html.escape(title)}</title>",
        f"<style>{_STYLE}</style></head><body>",
        f"<h1>{html.escape(title)}</h1>",
        f'<p class="meta">Generated '
        f"{generated.strftime('%Y-%m-%d %H:%M UTC')} by repro "
        f"{html.escape(repro.__version__)} from "
        f"<code>{html.escape(db.path)}</code>"
        + (f", filtered to commit <code>{html.escape(commit)}</code>"
           if commit else "") + ".</p>",
    ]

    # -- 1. fleet summary ------------------------------------------------
    out.append("<h2>Fleet summary</h2>")
    sources = ", ".join(
        f"{source or '(unset)'}: {count}"
        for source, count in sorted(summary["by_source"].items()))
    out.append("<table><tbody>")
    for label, value in (
            ("runs", summary["runs"]),
            ("workloads", summary["workloads"]),
            ("protocol/consistency configs", summary["configs"]),
            ("git commits", summary["commits"]),
            ("hosts", summary["hosts"]),
            ("rows by source", sources or "-"),
            ("recorded wall time",
             f"{summary['wall_time_s']:.1f}s")):
        out.append(f"<tr><th>{html.escape(str(label))}</th>"
                   f"<td>{html.escape(str(value))}</td></tr>")
    out.append("</tbody></table>")

    # -- 2. the paper-figure table --------------------------------------
    out.append("<h2>Protocol comparison (Fig. 12 shape)</h2>")
    if matrix.rows:
        out.append(render_html_table(matrix))
        try:
            out.append("<pre>"
                       + html.escape(render_chart(matrix))
                       + "</pre>")
        except ValueError:
            pass  # nothing numeric to chart (e.g. raw-cycles mix)
    else:
        out.append("<p>No matrix points recorded yet — run a sweep "
                   "(<code>gtsc-repro run fig12</code>) into this "
                   "database with <code>--db</code>.</p>")

    # -- 3. per-point key metrics ---------------------------------------
    out.append("<h2>Per-point key metrics</h2>")
    if comparison:
        out.append('<table class="result"><thead><tr>'
                   "<th>benchmark</th><th>config</th><th>cycles</th>"
                   "<th>L1 hit rate</th><th>NoC bytes</th>"
                   "<th>mem-stall cycles</th><th>DRAM reads</th>"
                   "</tr></thead><tbody>")
        for row in comparison:
            out.append(
                "<tr>"
                f"<td>{html.escape(row['workload'])}</td>"
                f"<td>{html.escape(row['config'])}</td>"
                f'<td class="num">{row["cycles"]}</td>'
                f'<td class="num">{row["l1_hit_rate"]:.3f}</td>'
                f'<td class="num">{row["noc_bytes"]}</td>'
                f'<td class="num">{row["stall_mem_cycles"]}</td>'
                f'<td class="num">{row["dram_reads"]}</td>'
                "</tr>")
        out.append("</tbody></table>")
    else:
        out.append("<p>No statistics recorded yet.</p>")

    # -- 4. provenance appendix -----------------------------------------
    out.append("<h2>Provenance appendix</h2>")
    out.append(f'<p class="meta">{len(rows)} run(s), newest first. '
               "Full 64-hex run keys and config hashes are in the "
               "database; shown truncated.</p>")
    out.append('<table class="prov"><thead><tr>'
               "<th>run key</th><th>benchmark</th><th>config</th>"
               "<th>preset</th><th>GPUs</th><th>commit</th>"
               "<th>config hash</th>"
               "<th>host</th><th>source</th><th>status</th>"
               "<th>wall&nbsp;s</th></tr></thead><tbody>")
    for row in rows:
        config = (f"{row['protocol']}-{row['consistency']}"
                  if row["protocol"] else "-")
        wall = (f"{row['wall_time_s']:.2f}"
                if row["wall_time_s"] is not None else "-")
        out.append(
            "<tr>"
            f"<td>{_short(row['run_key'])}</td>"
            f"<td>{html.escape(row['workload'] or '-')}</td>"
            f"<td>{html.escape(config)}</td>"
            f"<td>{html.escape(row['preset'] or '-')}</td>"
            f'<td class="num">{row.get("n_gpus", 1)}</td>'
            f"<td>{_short(row['git_commit'])}</td>"
            f"<td>{_short(row['config_hash'])}</td>"
            f"<td>{html.escape(row['host'] or '-')}</td>"
            f"<td>{html.escape(row['source'] or '-')}</td>"
            f"<td>{html.escape(row['status'])}</td>"
            f'<td class="num">{wall}</td>'
            "</tr>")
    out.append("</tbody></table>")
    out.append("</body></html>")
    return "\n".join(out)


def write_report(db: ResultsDB, path: str,
                 title: str = "G-TSC results",
                 commit: Optional[str] = None) -> str:
    """Render and write the report; returns the path written."""
    import os

    text = render_report(db, title=title, commit=commit)
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
    return path
