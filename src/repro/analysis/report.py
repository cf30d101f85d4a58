"""Plain-text rendering of tables and bar-chart-like series.

Everything the paper shows as a bar chart is rendered as an aligned
ASCII table plus an optional unicode bar column, so experiments print
the same rows/series the paper reports without a plotting stack.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence

_BLOCKS = " ▏▎▍▌▋▊▉█"


def _bar(value: float, vmax: float, width: int = 20) -> str:
    if vmax <= 0:
        return ""
    frac = max(0.0, min(1.0, value / vmax))
    cells = frac * width
    full = int(cells)
    rem = int((cells - full) * 8)
    bar = "█" * full
    if rem and full < width:
        bar += _BLOCKS[rem]
    return bar


def render_table(rows: Sequence[Mapping[str, object]],
                 columns: Optional[Sequence[str]] = None,
                 title: str = "", floatfmt: str = ".3f") -> str:
    """Render dict-rows as an aligned table."""
    if not rows:
        return f"{title}\n(no data)" if title else "(no data)"
    cols = list(columns) if columns else list(rows[0].keys())

    def fmt(v: object) -> str:
        if isinstance(v, float):
            return format(v, floatfmt)
        return str(v)

    table = [[fmt(r.get(c, "")) for c in cols] for r in rows]
    widths = [max(len(c), *(len(row[i]) for row in table))
              for i, c in enumerate(cols)]
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(c.ljust(w) for c, w in zip(cols, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in table:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def render_series(series: Mapping[str, float], title: str = "",
                  unit: str = "", width: int = 24,
                  floatfmt: str = ".3f") -> str:
    """Render a {label -> value} series with proportional bars."""
    lines: List[str] = []
    if title:
        lines.append(title)
    if not series:
        lines.append("(no data)")
        return "\n".join(lines)
    vmax = max(series.values(), default=0.0)
    label_w = max(len(str(k)) for k in series)
    for label, value in series.items():
        bar = _bar(value, vmax, width)
        val = format(value, floatfmt)
        suffix = f" {unit}" if unit else ""
        lines.append(f"{str(label).ljust(label_w)}  {val}{suffix}  {bar}")
    return "\n".join(lines)


def render_grouped(table: Mapping[str, Mapping[str, float]],
                   schemes: Iterable[str], title: str = "",
                   floatfmt: str = ".3f") -> str:
    """Render a workload x scheme matrix (one figure's bar groups)."""
    rows: List[Dict[str, object]] = []
    for workload, row in table.items():
        out: Dict[str, object] = {"workload": workload}
        for s in schemes:
            if s in row:
                out[s] = row[s]
        rows.append(out)
    return render_table(rows, title=title, floatfmt=floatfmt)
