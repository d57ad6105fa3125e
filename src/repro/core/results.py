"""Containers for experiment outputs.

A :class:`Series` is one curve of a paper figure: x values plus the
median and first/last-decile band at each x (exactly the paper's plot
format, §2.1).  An :class:`ExperimentResult` groups the series of one
figure/table with metadata and derived observations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["Series", "ExperimentResult"]


@dataclass
class Series:
    """One curve: x -> median value with a decile band."""

    label: str
    x: List[float] = field(default_factory=list)
    median: List[float] = field(default_factory=list)
    p10: List[float] = field(default_factory=list)
    p90: List[float] = field(default_factory=list)
    xlabel: str = ""
    ylabel: str = ""

    def add_value(self, x: float, value: float) -> None:
        """Append a deterministic point (degenerate band)."""
        self.x.append(float(x))
        self.median.append(float(value))
        self.p10.append(float(value))
        self.p90.append(float(value))

    def at(self, x: float) -> float:
        """Median value at the x closest to *x*."""
        if not self.x:
            raise ValueError(f"series {self.label!r} is empty")
        idx = min(range(len(self.x)), key=lambda i: abs(self.x[i] - x))
        return self.median[idx]

    def __len__(self) -> int:
        return len(self.x)


@dataclass
class ExperimentResult:
    """All series of one figure/table plus derived observations.

    ``failures`` maps a sweep-point key (e.g. ``"n=20"``) to a
    structured description of why that point could not be produced —
    under fault injection a point may die with a
    :class:`~repro.faults.reliability.TransportError` while the rest of
    the figure completes (graceful degradation rather than a lost
    campaign)."""

    name: str                       # e.g. "fig4a"
    title: str
    series: Dict[str, Series] = field(default_factory=dict)
    meta: Dict[str, object] = field(default_factory=dict)
    observations: Dict[str, object] = field(default_factory=dict)
    failures: Dict[str, Dict[str, object]] = field(default_factory=dict)

    def new_series(self, key: str, label: Optional[str] = None,
                   xlabel: str = "", ylabel: str = "") -> Series:
        s = Series(label=label if label is not None else key,
                   xlabel=xlabel, ylabel=ylabel)
        self.series[key] = s
        return s

    def __getitem__(self, key: str) -> Series:
        return self.series[key]

    def observe(self, key: str, value: object) -> None:
        self.observations[key] = value

    def record_failure(self, key: str,
                       error: Optional[BaseException] = None,
                       **info: object) -> None:
        """Record a structured per-point failure annotation."""
        entry: Dict[str, object] = dict(info)
        if error is not None:
            entry.setdefault("error", type(error).__name__)
            entry.setdefault("message", str(error))
            for attr in ("reason", "src", "dst", "retries", "timeouts"):
                value = getattr(error, attr, None)
                if value is not None:
                    entry.setdefault(attr, value)
        self.failures[key] = entry

    @property
    def ok(self) -> bool:
        return not self.failures
