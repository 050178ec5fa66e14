"""Plain-text result tables mirroring the paper's figures.

Every table printed through :func:`print_table` is also offered to the
registered *table collectors* — hooks the observability exporters use to
capture benchmark output as structured data (``--metrics-out``) without
each benchmark learning about files.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

__all__ = [
    "print_table",
    "render_table",
    "add_table_collector",
    "remove_table_collector",
    "fmt_rate",
    "fmt_ms",
    "fmt_bytes",
]

#: callables receiving ``(title, headers, rows)`` for every printed table
_collectors: list[Callable[[str, list[str], list[list[str]]], None]] = []


def add_table_collector(
    collector: Callable[[str, list[str], list[list[str]]], None]
) -> None:
    """Register a hook that observes every table ``print_table`` emits."""
    _collectors.append(collector)


def remove_table_collector(
    collector: Callable[[str, list[str], list[list[str]]], None]
) -> None:
    if collector in _collectors:
        _collectors.remove(collector)


def fmt_rate(events_per_second: float) -> str:
    """Format an event rate the way the paper reports it."""
    if events_per_second >= 1e6:
        return f"{events_per_second / 1e6:.2f} M ev/s"
    if events_per_second >= 1e3:
        return f"{events_per_second / 1e3:.1f} K ev/s"
    return f"{events_per_second:.0f} ev/s"


def fmt_ms(seconds: float) -> str:
    return f"{seconds * 1e3:.3f} ms"


def fmt_bytes(n: float) -> str:
    """Human-readable byte counts for result tables."""
    for unit in ("B", "KB", "MB", "GB"):
        if abs(n) < 1024.0:
            return f"{n:.1f} {unit}"
        n /= 1024.0
    return f"{n:.1f} TB"


def render_table(title: str, headers: Sequence[str],
                 rows: Iterable[Sequence[object]]) -> str:
    """Render an aligned table with a title rule as a string."""
    materialized = [[str(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in materialized:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    line = "  ".join(header.ljust(widths[i]) for i, header in enumerate(headers))
    out = ["", f"=== {title} ===", line, "-" * len(line)]
    for row in materialized:
        out.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(out)


def print_table(title: str, headers: Sequence[str],
                rows: Iterable[Sequence[object]]) -> None:
    """Print an aligned table with a title rule."""
    materialized = [[str(cell) for cell in row] for row in rows]
    for collector in _collectors:
        collector(title, [str(h) for h in headers], materialized)
    print(render_table(title, headers, materialized))
