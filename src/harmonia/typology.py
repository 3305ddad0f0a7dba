"""Cross-linguistic verb-placement counts and consistency reporting.

The bundled dataset (``data/verb_placement.csv``) tabulates how often the
verb, the head of the clause, comes first, second or last among (subject,
object, verb) in the world's languages, per source and per counting unit.
Percentages are kept exactly as printed by the sources; the report recomputes
them from the counts and flags rows where the two disagree by more than 0.05
percentage points (the sources' own rounding granularity), because two of the
printed figures do not match their own counts.  ``typology_report`` returns
one ``GroupReport`` per (source, unit) group.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable

from .distributions import ValidationError

REQUIRED_COLUMNS = ("source", "unit", "order_position", "frequency", "percentage")

#: Maximum absolute gap, in percentage points, between a stored percentage and
#: one recomputed from the counts before the row is flagged inconsistent.
PERCENT_TOL = 0.05

POSITION_NAMES = {1: "initial", 2: "medial", 3: "final"}


@dataclass(frozen=True)
class TypologyRow:
    """One (source, unit, verb position) cell of the placement table."""

    source: str
    unit: str
    order_position: int
    frequency: int
    percentage: float

    def __post_init__(self) -> None:
        if self.order_position not in POSITION_NAMES:
            raise ValidationError(
                f"order_position must be 1, 2 or 3, got {self.order_position}"
            )
        if self.frequency < 0:
            raise ValidationError(f"frequency must be >= 0, got {self.frequency}")
        if not 0.0 <= self.percentage <= 100.0:
            raise ValidationError(
                f"percentage must lie in [0, 100], got {self.percentage}"
            )


@dataclass(frozen=True)
class GroupReport:
    """All three verb positions for one (source, unit) pair."""

    source: str
    unit: str
    rows: tuple[TypologyRow, ...]
    total: int
    recomputed: tuple[float, ...]
    consistent: tuple[bool, ...]
    counts_monotonic: bool


def bundled_dataset_text() -> str:
    return resources.files("harmonia").joinpath("data/verb_placement.csv").read_text("utf-8")


def load_typology(path: str | Path | None = None) -> tuple[TypologyRow, ...]:
    """Parse a verb-placement CSV; ``None`` loads the bundled dataset.

    Comment lines start with ``#``.  The header must carry exactly the
    documented columns; every (source, unit) group must cover positions
    1, 2 and 3 exactly once.
    """
    if path is None:
        text = bundled_dataset_text()
        where = "bundled verb_placement.csv"
    else:
        text = Path(path).read_text("utf-8")
        where = str(path)
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    reader = csv.DictReader(io.StringIO("\n".join(lines)))
    header = tuple(reader.fieldnames or ())
    for col in REQUIRED_COLUMNS:
        if col not in header:
            raise ValidationError(f"{where}: missing column {col!r} (header is {header})")
    extra = [c for c in header if c not in REQUIRED_COLUMNS]
    if extra:
        raise ValidationError(f"{where}: unexpected column(s) {extra}")

    rows = []
    for line_no, record in enumerate(reader, start=2):
        try:
            rows.append(
                TypologyRow(
                    source=record["source"].strip(),
                    unit=record["unit"].strip(),
                    order_position=int(record["order_position"]),
                    frequency=int(record["frequency"]),
                    percentage=float(record["percentage"]),
                )
            )
        except (TypeError, KeyError, ValueError) as err:  # ValidationError is a ValueError
            raise ValidationError(f"{where}, data row {line_no}: {err}") from None

    seen: dict[tuple[str, str], set[int]] = {}
    for row in rows:
        key = (row.source, row.unit)
        positions = seen.setdefault(key, set())
        if row.order_position in positions:
            raise ValidationError(
                f"{where}: duplicate position {row.order_position} for {key}"
            )
        positions.add(row.order_position)
    for key, positions in seen.items():
        if positions != {1, 2, 3}:
            raise ValidationError(
                f"{where}: group {key} covers positions {sorted(positions)}, need 1..3"
            )
    return tuple(rows)


def typology_report(rows: Iterable[TypologyRow]) -> tuple[GroupReport, ...]:
    """Group rows, recompute percentages from counts, and flag mismatches;
    one report per (source, unit) group, in order of first appearance."""
    by_group: dict[tuple[str, str], list[TypologyRow]] = {}
    for row in rows:
        by_group.setdefault((row.source, row.unit), []).append(row)
    groups = []
    for (source, unit), members in by_group.items():
        members = sorted(members, key=lambda r: r.order_position)
        total = sum(r.frequency for r in members)
        if total <= 0:
            raise ValidationError(f"group {(source, unit)} has zero total count")
        recomputed = tuple(100.0 * r.frequency / total for r in members)
        consistent = tuple(
            abs(rc - r.percentage) <= PERCENT_TOL
            for rc, r in zip(recomputed, members)
        )
        counts = [r.frequency for r in members]
        groups.append(
            GroupReport(
                source=source,
                unit=unit,
                rows=tuple(members),
                total=total,
                recomputed=recomputed,
                consistent=consistent,
                counts_monotonic=all(a <= b for a, b in zip(counts, counts[1:])),
            )
        )
    return tuple(groups)
