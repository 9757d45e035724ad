"""Aggregate statistics and model ranking over evaluation results.

Summaries report mean, population standard deviation, median, and the 25/75
quantiles (linear interpolation) per metric per region. Models rank by their
region-averaged DSC, descending; DSC ties (within 5e-5, the printed rounding
resolution) break by region-averaged HD95 ascending, then by name.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import EmptyList
from .metrics import REGION_ORDER, CaseMetrics, percentile

__all__ = [
    "StatRow",
    "SummaryStats",
    "ModelSummary",
    "ModelRanking",
    "summarize",
    "model_summary",
    "rank_models",
    "format_summary_table",
    "format_ranking_table",
]

DSC_TIE_TOL = 5e-5
_STAT_NAMES = ("mean", "stddev", "median", "q25", "q75")


@dataclass(frozen=True)
class StatRow:
    mean: float
    stddev: float
    median: float
    q25: float
    q75: float


@dataclass(frozen=True)
class SummaryStats:
    """Per metric ("DSC", "HD95") per region ("ET", "TC", "WT") statistics."""

    stats: dict[str, dict[str, StatRow]]
    n_cases: int


def _stat_row(values: np.ndarray) -> StatRow:
    return StatRow(
        mean=float(values.mean()),
        stddev=float(values.std()),  # population
        median=percentile(values, 50),
        q25=percentile(values, 25),
        q75=percentile(values, 75),
    )


def summarize(cases: list[CaseMetrics]) -> SummaryStats:
    """Aggregate per-case metrics into the summary-table statistics."""
    if not cases:
        raise EmptyList("summarize needs at least one case")
    stats: dict[str, dict[str, StatRow]] = {"DSC": {}, "HD95": {}}
    for region in REGION_ORDER:
        stats["DSC"][region] = _stat_row(np.array([c.dsc[region] for c in cases]))
        stats["HD95"][region] = _stat_row(np.array([c.hd95[region] for c in cases]))
    return SummaryStats(stats, len(cases))


@dataclass(frozen=True)
class ModelSummary:
    """One model's per-region DSC/HD95 means and their region averages."""

    name: str
    dsc: dict[str, float]
    hd95: dict[str, float]
    avg_dsc: float
    avg_hd95: float


def model_summary(name: str, dsc: dict[str, float], hd95: dict[str, float]) -> ModelSummary:
    """Build a summary with region averages as plain arithmetic means."""
    if set(dsc) != set(REGION_ORDER) or set(hd95) != set(REGION_ORDER):
        raise ValueError(f"need one DSC and one HD95 value per region {REGION_ORDER}")
    avg_dsc = sum(dsc[r] for r in REGION_ORDER) / len(REGION_ORDER)
    avg_hd95 = sum(hd95[r] for r in REGION_ORDER) / len(REGION_ORDER)
    return ModelSummary(name, dict(dsc), dict(hd95), avg_dsc, avg_hd95)


@dataclass(frozen=True)
class ModelRanking:
    """Model names with ranks 1..n, listed best first."""

    ranking: tuple[tuple[str, int], ...]

    def to_json(self) -> str:
        return json.dumps(
            [{"name": n, "rank": r} for n, r in self.ranking], sort_keys=True
        )


def rank_models(summaries: list[ModelSummary]) -> ModelRanking:
    """Order models by avg DSC descending, HD95 (then name) breaking ties.

    Models whose avg DSC values differ by at most 5e-5 (chained) are treated
    as tied and reordered by avg HD95 ascending, then by name.
    """
    if not summaries:
        raise EmptyList("rank_models needs at least one model summary")
    ordered = sorted(summaries, key=lambda s: -s.avg_dsc)
    groups: list[list[ModelSummary]] = [[ordered[0]]]
    for s in ordered[1:]:
        if abs(groups[-1][-1].avg_dsc - s.avg_dsc) <= DSC_TIE_TOL:
            groups[-1].append(s)
        else:
            groups.append([s])
    final: list[ModelSummary] = []
    for g in groups:
        final.extend(sorted(g, key=lambda s: (s.avg_hd95, s.name)))
    return ModelRanking(tuple((s.name, i + 1) for i, s in enumerate(final)))


def format_summary_table(stats: SummaryStats) -> str:
    """Text table in the Mean/StdDev/Median/25quantile/75quantile layout."""
    header1 = f"{'':12s}{'DSC':30s}{'HD95':30s}"
    header2 = "{:12s}".format("") + "".join(
        f"{r:>10s}" for r in REGION_ORDER
    ) + "".join(f"{r:>10s}" for r in REGION_ORDER)
    rows = []
    labels = {"mean": "Mean", "stddev": "StdDev", "median": "Median",
              "q25": "25quantile", "q75": "75quantile"}
    for stat in _STAT_NAMES:
        cells = [f"{getattr(stats.stats['DSC'][r], stat):10.4f}" for r in REGION_ORDER]
        cells += [f"{getattr(stats.stats['HD95'][r], stat):10.2f}" for r in REGION_ORDER]
        rows.append(f"{labels[stat]:12s}" + "".join(cells))
    return "\n".join([header1, header2] + rows) + "\n"


def format_ranking_table(summaries: list[ModelSummary], ranking: ModelRanking) -> str:
    """Text table of per-region and average scores with the final rank."""
    by_name = {s.name: s for s in summaries}
    width = max(len("Model"), *(len(s.name) for s in summaries)) + 2
    head = (
        f"{'Model':<{width}}"
        + "".join(f"{'DSC_' + r:>10s}" for r in REGION_ORDER)
        + f"{'DSC_Avg':>10s}"
        + "".join(f"{'HD95_' + r:>10s}" for r in REGION_ORDER)
        + f"{'HD95_Avg':>10s}{'Rank':>6s}"
    )
    lines = [head]
    for name, rank in ranking.ranking:
        s = by_name[name]
        lines.append(
            f"{name:<{width}}"
            + "".join(f"{s.dsc[r]:10.4f}" for r in REGION_ORDER)
            + f"{s.avg_dsc:10.4f}"
            + "".join(f"{s.hd95[r]:10.2f}" for r in REGION_ORDER)
            + f"{s.avg_hd95:10.2f}{rank:6d}"
        )
    return "\n".join(lines) + "\n"
