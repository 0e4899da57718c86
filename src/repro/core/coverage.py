"""Coverage accounting and the Table I renderer.

One :class:`CoverageRow` per app with the three Visited/Sum/Rate column
groups of the paper's Table I (Activities, Fragments, Fragments in
Visited Activities), plus the aggregate averages the paper quotes
(71.94% Activities, 66% Fragments).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.explorer import ExplorationResult


@dataclass(frozen=True)
class CoverageRow:
    package: str
    downloads: str
    activities_visited: int
    activities_sum: int
    fragments_visited: int
    fragments_sum: int
    fiva_visited: int
    fiva_sum: int

    @staticmethod
    def _rate(visited: int, total: int) -> Optional[float]:
        return visited / total if total else None

    @property
    def activity_rate(self) -> Optional[float]:
        return self._rate(self.activities_visited, self.activities_sum)

    @property
    def fragment_rate(self) -> Optional[float]:
        return self._rate(self.fragments_visited, self.fragments_sum)

    @property
    def fiva_rate(self) -> Optional[float]:
        return self._rate(self.fiva_visited, self.fiva_sum)

    @classmethod
    def from_result(cls, result: ExplorationResult,
                    downloads: str = "") -> "CoverageRow":
        fiva_visited, fiva_sum = result.fragments_in_visited_activities()
        return cls(
            package=result.package,
            downloads=downloads,
            activities_visited=len(result.visited_activities),
            activities_sum=result.activity_total,
            fragments_visited=len(result.visited_fragments),
            fragments_sum=result.fragment_total,
            fiva_visited=fiva_visited,
            fiva_sum=fiva_sum,
        )


@dataclass
class CoverageReport:
    """The full Table I."""

    rows: List[CoverageRow]

    @staticmethod
    def _percent(value: Optional[float]) -> str:
        return f"{value:.2%}" if value is not None else "n/a"

    @property
    def mean_activity_rate(self) -> float:
        rates = [r.activity_rate for r in self.rows if r.activity_rate is not None]
        return sum(rates) / len(rates) if rates else 0.0

    @property
    def mean_fragment_rate(self) -> float:
        rates = [r.fragment_rate for r in self.rows if r.fragment_rate is not None]
        return sum(rates) / len(rates) if rates else 0.0

    @property
    def mean_fiva_rate(self) -> float:
        rates = [r.fiva_rate for r in self.rows if r.fiva_rate is not None]
        return sum(rates) / len(rates) if rates else 0.0

    @property
    def overall_activity_rate(self) -> float:
        """Pooled rate (total visited / total sum across apps)."""
        total = sum(r.activities_sum for r in self.rows)
        visited = sum(r.activities_visited for r in self.rows)
        return visited / total if total else 0.0

    def full_fiva_apps(self) -> int:
        """Apps whose fragments-in-visited-activities rate is 100%."""
        return sum(1 for r in self.rows if r.fiva_rate == 1.0)

    def render(self) -> str:
        """Render in the layout of Table I."""
        header = (
            f"{'Package Name':34} {'Downloads':13} "
            f"{'Act V':>5} {'Sum':>4} {'Rate':>8}  "
            f"{'Frg V':>5} {'Sum':>4} {'Rate':>8}  "
            f"{'FiVA V':>6} {'Sum':>4} {'Rate':>8}"
        )
        lines = [header, "-" * len(header)]
        for row in sorted(self.rows, key=lambda r: r.package):
            lines.append(
                f"{row.package:34} {row.downloads:13} "
                f"{row.activities_visited:5d} {row.activities_sum:4d} "
                f"{self._percent(row.activity_rate):>8}  "
                f"{row.fragments_visited:5d} {row.fragments_sum:4d} "
                f"{self._percent(row.fragment_rate):>8}  "
                f"{row.fiva_visited:6d} {row.fiva_sum:4d} "
                f"{self._percent(row.fiva_rate):>8}"
            )
        lines.append("-" * len(header))
        lines.append(
            f"{'MEAN':34} {'':13} "
            f"{'':5} {'':4} {self._percent(self.mean_activity_rate):>8}  "
            f"{'':5} {'':4} {self._percent(self.mean_fragment_rate):>8}  "
            f"{'':6} {'':4} {self._percent(self.mean_fiva_rate):>8}"
        )
        return "\n".join(lines)
